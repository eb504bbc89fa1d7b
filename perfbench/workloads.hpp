// The ledger's workloads: social-serve, mesh-single and graph-analytics
// (README.md says why each exists, and why tenants-churn was dropped).
#pragma once

#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names();

/// Runs one workload end to end. After a stall it prints its result
/// and exits the process itself (the stuck service is never joined).
Outcome run_workload(const Args& args);

}  // namespace perfbench
