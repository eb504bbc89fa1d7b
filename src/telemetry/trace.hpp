// Flight-recorder event rings — the tracing half of src/telemetry/.
//
// Each instrumented thread owns one fixed-capacity TraceRing and pushes
// timestamped span/instant events into it with plain stores (single
// writer, no locks, no atomic RMW — same discipline as the counter
// slabs in counters.hpp). When the ring wraps, the oldest events are
// overwritten and the loss is accounted (dropped()); recording never
// blocks and never allocates.
//
// Rings are read back only at quiescent points (after the runs whose
// threads write them have joined), by the Chrome-trace exporter in
// chrome_trace.cpp.
//
// Everything here is compiled only when OPTIBFS_TELEMETRY is defined;
// recorder.hpp provides inline no-op stubs for the OFF build so call
// sites compile unchanged and the library contains no tracing symbols.
#pragma once

#include <cstdint>

#if defined(OPTIBFS_TELEMETRY)
#include <cstddef>
#include <vector>
#endif

namespace optibfs::telemetry {

// X-macro master list of event names: enum and Chrome-trace "name"
// field stay in sync by construction.
//
// clang-format off
#define OPTIBFS_EVENT_LIST(X)                                                \
  X(kEvRun,           "bfs_run")        /* whole single-source run      */   \
  X(kEvLevel,         "level")          /* one top-down level drain     */   \
  X(kEvLevelBottomUp, "level_bottom_up")/* one owner-computes BU level  */   \
  X(kEvLevelSerial,   "level_serial")   /* one serially-drained level   */   \
  X(kEvDirectionFlip, "direction_flip") /* barrier window flipped dir   */   \
  X(kEvSegmentClaim,  "segment_claim")  /* optimistic segment fetch+drain */ \
  X(kEvStealRound,    "steal_round")    /* one round of victim probing  */   \
  X(kEvWave,          "msbfs_wave")     /* one MS-BFS wave              */   \
  X(kEvBatchDispatch, "batch_dispatch") /* service batch execution      */   \
  X(kEvQueueWait,     "queue_wait")     /* query admission -> dispatch  */   \
  X(kEvExecute,       "execute")        /* query dispatch -> completion */   \
  X(kEvApplyBatch,    "apply_batch")    /* dynamic edge-update batch    */   \
  X(kEvRepair,        "repair")         /* one incremental BFS repair   */   \
  X(kEvRepairWave,    "repair_wave")    /* one repair wave level        */   \
  X(kEvKernelFill,    "kernel_fill")    /* one kernel-memo flavor fill  */
// clang-format on

enum EventName : std::uint32_t {
#define OPTIBFS_EVENT_ENUM(id, name) id,
  OPTIBFS_EVENT_LIST(OPTIBFS_EVENT_ENUM)
#undef OPTIBFS_EVENT_ENUM
      kNumEventNames
};

inline const char* event_name(EventName e) {
  switch (e) {
#define OPTIBFS_EVENT_NAME(id, name) \
  case id:                           \
    return name;
    OPTIBFS_EVENT_LIST(OPTIBFS_EVENT_NAME)
#undef OPTIBFS_EVENT_NAME
    case kNumEventNames:
      break;
  }
  return "unknown";
}

#if defined(OPTIBFS_TELEMETRY)

/// One recorded event. start_ns is nanoseconds since the owning
/// FlightRecorder's epoch (steady clock).
struct TraceEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;  ///< ignored for instants
  std::uint64_t arg = 0;     ///< event-specific payload (level, width, ...)
  EventName name = kEvRun;
  bool instant = false;
};

/// Fixed-capacity single-writer ring. push() is plain stores only; on
/// overflow the oldest event is overwritten and dropped() grows. The
/// reader side (events()) must run after the writer has quiesced.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : buf_(capacity == 0 ? 1 : capacity) {}

  std::size_t capacity() const { return buf_.size(); }

  void push(const TraceEvent& ev) {
    buf_[static_cast<std::size_t>(head_ % buf_.size())] = ev;
    ++head_;
  }

  /// Events ever pushed (monotone; exceeds capacity once wrapped).
  std::uint64_t recorded() const { return head_; }

  /// Events lost to wraparound.
  std::uint64_t dropped() const {
    return head_ > buf_.size() ? head_ - buf_.size() : 0;
  }

  /// Surviving events, oldest first.
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    const std::uint64_t n =
        head_ < buf_.size() ? head_ : static_cast<std::uint64_t>(buf_.size());
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head_ - n; i < head_; ++i)
      out.push_back(buf_[static_cast<std::size_t>(i % buf_.size())]);
    return out;
  }

 private:
  std::vector<TraceEvent> buf_;
  std::uint64_t head_ = 0;
};

#endif  // OPTIBFS_TELEMETRY

}  // namespace optibfs::telemetry
