#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "kernels/reference.hpp"

namespace perfbench {

using namespace optibfs;

namespace {

std::string describe(const Query& q) {
  std::ostringstream out;
  const char* kind = q.kind == QueryKind::kDistance ? "distance"
                     : q.kind == QueryKind::kPath   ? "path"
                                                    : "level_set";
  out << kind << "(" << q.source;
  if (q.kind == QueryKind::kLevelSet) {
    out << ", depth " << q.depth;
  } else {
    out << ", " << q.target;
  }
  out << ")";
  return out.str();
}

}  // namespace

std::string check_levels_answer(const Query& q, const QueryResult& r,
                                const std::vector<level_t>& ref,
                                const CsrGraph& g) {
  const std::string what = describe(q) + " at version " +
                           std::to_string(r.graph_version) + ": ";
  switch (q.kind) {
    case QueryKind::kDistance: {
      const level_t want =
          q.target == kInvalidVertex ? kUnvisited : ref[q.target];
      if (r.distance != want) {
        return what + "distance " + std::to_string(r.distance) + ", want " +
               std::to_string(want);
      }
      return {};
    }
    case QueryKind::kPath: {
      const level_t want = ref[q.target];
      if (r.distance != want) {
        return what + "distance " + std::to_string(r.distance) + ", want " +
               std::to_string(want);
      }
      if (want == kUnvisited) {
        return r.path.empty() ? std::string{} : what + "path to unreachable";
      }
      if (r.path.size() != static_cast<std::size_t>(want) + 1 ||
          r.path.front() != q.source || r.path.back() != q.target) {
        return what + "path has wrong length or endpoints";
      }
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        const vid_t u = g.to_internal(r.path[i]);
        const vid_t v = g.to_internal(r.path[i + 1]);
        if (!g.has_edge(u, v)) return what + "path uses a missing edge";
      }
      return {};
    }
    case QueryKind::kLevelSet: {
      std::vector<vid_t> want;
      for (vid_t v = 0; v < static_cast<vid_t>(ref.size()); ++v) {
        if (ref[v] == q.depth) want.push_back(v);
      }
      std::vector<vid_t> got = r.members;
      std::sort(got.begin(), got.end());
      if (got != want) {
        return what + std::to_string(got.size()) + " members, want " +
               std::to_string(want.size());
      }
      return {};
    }
    default:
      return what + "not a BFS-typed query";
  }
}

std::string check_kernel_round(const KernelRound& round, const CsrGraph& g,
                               double damping, double epsilon) {
  const std::string at = " at version " + std::to_string(round.version) + ": ";
  const std::vector<vid_t> labels = kernels::cc_reference(g);
  const vid_t label = labels[round.cc_vertex];
  const auto size = static_cast<std::uint64_t>(
      std::count(labels.begin(), labels.end(), label));
  if (round.cc.component != label || round.cc.component_size != size) {
    return "components_of(" + std::to_string(round.cc_vertex) + ")" + at +
           "component " + std::to_string(round.cc.component) + " size " +
           std::to_string(round.cc.component_size) + ", want " +
           std::to_string(label) + " size " + std::to_string(size);
  }
  const std::vector<std::uint32_t> cores = kernels::kcore_reference(g);
  if (round.core.core != cores[round.core_vertex]) {
    return "core_number(" + std::to_string(round.core_vertex) + ")" + at +
           std::to_string(round.core.core) + ", want " +
           std::to_string(cores[round.core_vertex]);
  }
  const std::vector<double> rank = kernels::pagerank_reference(g, damping);
  const double tol =
      epsilon * static_cast<double>(g.num_vertices()) / (1.0 - damping) + 1e-12;
  std::vector<double> sorted = rank;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  if (round.rank.topk.size() != static_cast<std::size_t>(round.topk)) {
    return "rank_topk" + at + "wrong width";
  }
  const double kth = sorted[static_cast<std::size_t>(round.topk) - 1];
  for (const auto& [v, r] : round.rank.topk) {
    if (std::abs(r - rank[v]) > tol) {
      return "rank_topk" + at + "rank of " + std::to_string(v) + " off by " +
             std::to_string(std::abs(r - rank[v]));
    }
    if (rank[v] < kth - 2.0 * tol) {
      return "rank_topk" + at + std::to_string(v) + " is not in the top " +
             std::to_string(round.topk);
    }
  }
  return {};
}

}  // namespace perfbench
