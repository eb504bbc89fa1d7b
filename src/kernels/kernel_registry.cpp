#include "kernels/kernel_registry.hpp"

#include <stdexcept>

#include "kernels/components.hpp"
#include "kernels/kcore.hpp"
#include "kernels/mis.hpp"
#include "kernels/pagerank_delta.hpp"

namespace optibfs::kernels {

const std::vector<std::string>& all_kernels() {
  static const std::vector<std::string> names = {
      "CC",  "CC_RMW",  "KCORE",   "KCORE_RMW",
      "MIS", "MIS_RMW", "PRDELTA", "PRDELTA_RMW",
  };
  return names;
}

const std::vector<std::string>& optimistic_kernels() {
  static const std::vector<std::string> names = {"CC", "KCORE", "MIS",
                                                 "PRDELTA"};
  return names;
}

bool is_kernel(const std::string& name) {
  for (const std::string& k : all_kernels())
    if (k == name) return true;
  return false;
}

namespace {

std::unique_ptr<GraphKernel> make_on(const std::string& name,
                                     const CsrGraph& graph,
                                     const BFSOptions& options,
                                     ThreadTeam* borrowed) {
  const bool rmw = name.ends_with("_RMW");
  const std::string base = rmw ? name.substr(0, name.size() - 4) : name;
  // The kernel's team: the borrowed one, or its own, started only once
  // the name is known.
  const auto team = [&] {
    return borrowed != nullptr
               ? TeamHandle(*borrowed)
               : TeamHandle(options.num_threads, options.pin_threads);
  };
  if (base == "CC")
    return std::make_unique<ComponentsKernel>(graph, options, rmw, team());
  if (base == "KCORE")
    return std::make_unique<KCoreKernel>(graph, options, rmw, team());
  if (base == "MIS")
    return std::make_unique<MisKernel>(graph, options, rmw, team());
  if (base == "PRDELTA")
    return std::make_unique<PageRankDeltaKernel>(graph, options, rmw, team());
  throw std::invalid_argument("unknown kernel: " + name);
}

}  // namespace

std::unique_ptr<GraphKernel> make_kernel(const std::string& name,
                                         const CsrGraph& graph,
                                         const BFSOptions& options) {
  return make_on(name, graph, options, nullptr);
}

std::unique_ptr<GraphKernel> make_kernel(const std::string& name,
                                         const CsrGraph& graph,
                                         const BFSOptions& options,
                                         ThreadTeam& team) {
  return make_on(name, graph, options, &team);
}

}  // namespace optibfs::kernels
