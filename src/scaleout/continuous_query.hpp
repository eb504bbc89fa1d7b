// Continuous distance queries (DESIGN.md section 4.6): standing
// watch_distance(s, t) subscriptions answered as a *byproduct* of each
// applied update batch, instead of by polling.
//
// The table keeps one cached level array per watched source, stamped
// with the tenant epoch it is correct for. After the mutator applies a
// batch it calls roll_forward(), which advances every watched source to
// the new epoch by the cheapest sufficient means:
//
//   * batch_affects_levels() says the batch provably cannot change any
//     distance from this source -> re-stamp, touch nothing (exactly the
//     service cache's revalidation argument);
//   * otherwise repair the array in place with the incremental engine's
//     optimistic relaxation waves;
//   * when the deletion cone covers too much of the graph (repair bails
//     out) — or the cached array's stamp does not match the pre-batch
//     epoch (a watch registered while an apply was in flight) — fall
//     back to a from-scratch recompute.
//
// A watch fires only when the watched distance *actually changes*:
// roll_forward compares levels[target] against the last value delivered
// and collects a notification only on a transition. Callbacks are
// returned to the caller (the service's mutator thread) and invoked
// after every lock is released, so a callback may re-enter the service
// (submit queries, add watches) without deadlocking.
//
// Locking: one table mutex serializes add/remove (caller threads)
// against roll_forward (the mutator). Like the dispatcher's admission
// mutex, this is front-of-house bookkeeping — a documented exemption
// from the no-locks discipline, which governs traversal hot paths (the
// repair waves themselves run lock-free under the mutex holder).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_bfs.hpp"
#include "graph/types.hpp"

namespace optibfs::scaleout {

using TenantId = std::uint64_t;
using WatchId = std::uint64_t;

/// One delivered distance transition. `new_distance` holds at `version`
/// (the tenant epoch the batch produced); kUnvisited means unreachable.
struct WatchEvent {
  TenantId tenant = 0;
  WatchId watch = 0;
  vid_t source = 0;
  vid_t target = 0;
  level_t old_distance = kUnvisited;
  level_t new_distance = kUnvisited;
  std::uint64_t version = 0;
};

/// Invoked on the service's mutator thread, after locks are released.
/// Must not block indefinitely (it stalls the update pipeline).
using WatchCallback = std::function<void(const WatchEvent&)>;

/// What watch_distance() hands back: the subscription id and the
/// distance at registration time (notifications report changes from
/// this baseline).
struct WatchTicket {
  WatchId id = 0;
  level_t initial_distance = kUnvisited;
  std::uint64_t version = 0;
};

class ContinuousQueryTable {
 public:
  explicit ContinuousQueryTable(TenantId tenant) : tenant_(tenant) {}

  ContinuousQueryTable(const ContinuousQueryTable&) = delete;
  ContinuousQueryTable& operator=(const ContinuousQueryTable&) = delete;

  /// Registers a watch against `snap` (the tenant's current epoch
  /// `version`). The initial distance is computed here — serially; a
  /// registration is a cold path — unless another watch already caches
  /// this source at this epoch.
  WatchTicket add(const GraphSnapshot& snap, std::uint64_t version,
                  vid_t source, vid_t target, WatchCallback callback);

  /// Drops a subscription. Returns false for an unknown id.
  bool remove(WatchId id);

  std::size_t size() const;

  struct Rollforward {
    std::uint64_t repairs = 0;     ///< source arrays repaired in place
    std::uint64_t recomputes = 0;  ///< cone/stamp fallbacks (from scratch)
    std::uint64_t unchanged = 0;   ///< watches evaluated, distance unchanged
    std::uint64_t notified = 0;    ///< watches whose distance changed
    /// Fire these after releasing every lock (mutator thread).
    std::vector<std::pair<WatchCallback, WatchEvent>> notifications;
  };

  /// Advances every watched source from `prev_version` to `new_version`
  /// across one applied batch. `snap` is the post-batch snapshot,
  /// `summary` the batch's effective updates; `engine` runs on the
  /// calling (mutator) thread only. Returns the collected notifications
  /// instead of firing them (see header comment).
  Rollforward roll_forward(IncrementalBfsEngine& engine,
                           const GraphSnapshot& snap,
                           std::uint64_t prev_version,
                           std::uint64_t new_version,
                           const BatchSummary& summary);

 private:
  /// Cached levels for one watched source, shared by every watch on it.
  struct SourceState {
    std::uint64_t version = 0;  ///< epoch `levels` is correct for
    std::uint64_t refs = 0;     ///< watches on this source
    std::vector<level_t> levels;
  };

  struct Watch {
    WatchId id = 0;
    vid_t source = 0;
    vid_t target = 0;
    level_t last = kUnvisited;  ///< last delivered distance
    WatchCallback callback;
  };

  TenantId tenant_;
  mutable std::mutex mutex_;
  WatchId next_id_ = 0;
  std::vector<Watch> watches_;
  std::unordered_map<vid_t, SourceState> by_source_;
};

}  // namespace optibfs::scaleout
