// Kernel registry — name -> runnable kernel, mirroring core/registry's
// make_bfs so bfs_cli / benches / the service can select kernels the
// same way they select engines.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"
#include "kernels/kernel.hpp"
#include "runtime/thread_team.hpp"

namespace optibfs::kernels {

/// All registered kernel names: the four optimistic kernels plus their
/// `_RMW` ablation twins.
const std::vector<std::string>& all_kernels();

/// Just the optimistic variants (CC, KCORE, MIS, PRDELTA).
const std::vector<std::string>& optimistic_kernels();

/// True if `name` is a registered kernel.
bool is_kernel(const std::string& name);

/// Constructs the named kernel bound to `graph` (which must outlive
/// it). Throws std::invalid_argument for unknown names.
std::unique_ptr<GraphKernel> make_kernel(const std::string& name,
                                         const CsrGraph& graph,
                                         const BFSOptions& options);

/// Same, on a borrowed `team` whose width is the kernel's.
std::unique_ptr<GraphKernel> make_kernel(const std::string& name,
                                         const CsrGraph& graph,
                                         const BFSOptions& options,
                                         ThreadTeam& team);

}  // namespace optibfs::kernels
