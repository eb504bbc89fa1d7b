// Self-test of the answer checks: correct answers pass, and each kind of
// wrong answer is caught. Exits non-zero on the first surprise.
#include <iostream>
#include <string>

#include "checks.hpp"
#include "core/bfs_serial.hpp"
#include "graph/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "service/bfs_service.hpp"

using namespace optibfs;

namespace {

int failures = 0;

void expect(bool pass, const std::string& err, const char* what) {
  if (pass == err.empty()) return;
  ++failures;
  std::cerr << "FAIL " << what << ": " << (err.empty() ? "wrong answer accepted" : err)
            << "\n";
}

}  // namespace

int main() {
  const auto g = std::make_shared<const CsrGraph>(CsrGraph::from_edges(gen::grid2d(6, 6)));
  const auto ref = bfs_serial(*g, 0).level;

  BfsService service(ServiceConfig{});
  service.register_graph(g);
  Query q;
  q.kind = QueryKind::kPath;
  q.source = 0;
  q.target = 35;
  QueryResult path = service.query(q);
  expect(true, perfbench::check_levels_answer(q, path, ref, *g), "path");
  QueryResult bad = path;
  bad.path[2] = bad.path[4];
  expect(false, perfbench::check_levels_answer(q, bad, ref, *g), "path with a gap");
  bad = path;
  bad.distance += 1;
  expect(false, perfbench::check_levels_answer(q, bad, ref, *g), "path distance");

  q.kind = QueryKind::kDistance;
  QueryResult dist = service.query(q);
  expect(true, perfbench::check_levels_answer(q, dist, ref, *g), "distance");
  dist.distance -= 1;
  expect(false, perfbench::check_levels_answer(q, dist, ref, *g), "wrong distance");

  q.kind = QueryKind::kLevelSet;
  q.depth = 3;
  QueryResult ring = service.query(q);
  expect(true, perfbench::check_levels_answer(q, ring, ref, *g), "level set");
  ring.members.pop_back();
  expect(false, perfbench::check_levels_answer(q, ring, ref, *g), "short level set");

  perfbench::KernelRound round;
  round.cc_vertex = 7;
  round.core_vertex = 14;
  round.topk = 3;
  round.cc = service.components_of(round.cc_vertex);
  round.core = service.core_number(round.core_vertex);
  round.rank = service.rank_topk(round.topk);
  const BFSOptions defaults;
  const auto check = [&](const perfbench::KernelRound& r) {
    return perfbench::check_kernel_round(r, *g, defaults.pr_damping, defaults.pr_epsilon);
  };
  expect(true, check(round), "kernel round");
  perfbench::KernelRound wrong = round;
  wrong.cc.component_size -= 1;
  expect(false, check(wrong), "component size");
  wrong = round;
  wrong.core.core += 1;
  expect(false, check(wrong), "core number");
  wrong = round;
  wrong.rank.topk[0].second += 1.0;
  expect(false, check(wrong), "rank value");

  if (failures == 0) std::cout << "answer checks: ok\n";
  return failures == 0 ? 0 : 1;
}
