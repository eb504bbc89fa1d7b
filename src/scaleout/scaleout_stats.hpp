// The scale-out tier reports through the serving core's one stats
// struct (service/service_stats.hpp); this name stays for callers that
// spell it the tier's way.
#pragma once

#include "service/service_stats.hpp"

namespace optibfs::scaleout {

using ScaleoutStats = ServiceStats;

}  // namespace optibfs::scaleout
