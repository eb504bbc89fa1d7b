// Physical memory topology: the syscall-facing floor under Topology.
//
// The paper's §IV-C NUMA sketch (socket-local steals, queue-pool
// migration) is policy; this header is mechanism. It answers four
// questions for the rest of the runtime, each with a graceful answer on
// machines where the real answer is unavailable (this container is
// single-node, single-core, and has no libnuma headers):
//
//   1. What does the machine look like?  system_topology() parses
//      /sys/devices/system/node/node*/cpulist directly (hwloc-free);
//      when sysfs is absent (non-Linux, sandboxes) it degrades to a
//      single flat node covering std::thread::hardware_concurrency()
//      with detected == false.
//   2. Can we back big arrays with 2 MiB pages?  thp_mode() probes
//      /sys/kernel/mm/transparent_hugepage/enabled; advise_huge_pages()
//      issues madvise(MADV_HUGEPAGE) and reports honestly whether the
//      kernel accepted it. anon_huge_bytes() reads the process's
//      AnonHugePages from smaps_rollup so telemetry can estimate pages
//      *actually promoted*, not just advised.
//   3. Can we pin and place?  pin_current_thread_to_cpu() wraps
//      pthread_setaffinity_np; bind_to_node()/interleave_across_nodes()
//      issue the raw mbind(2) syscall (no libnuma dependency) with
//      MPOL_MF_MOVE so already-touched pages migrate. All return false
//      rather than throw when the kernel refuses (EPERM in containers).
//   4. How do we allocate without touching?  PlacedBuffer<T> allocates
//      aligned raw storage and leaves every page unfaulted, so the
//      *first* writer — a pinned worker zeroing its owner-computes
//      slice — faults the page onto its own socket (first-touch). A
//      std::vector would fault everything on the constructing thread
//      and pin the whole arena to one node.
//
// The layer is always compiled: a machine that cannot place gets the
// degraded answers above at run time (one flat node, no pinning, no
// huge pages).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace optibfs::mem {

/// One NUMA node as sysfs reports it.
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;  ///< logical cpu ids local to this node
};

/// The machine, as far as placement decisions care.
struct PhysicalTopology {
  std::vector<NumaNode> nodes;
  /// true when sysfs parsing succeeded; false for the flat fallback.
  bool detected = false;
};

/// Transparent-huge-page policy from
/// /sys/kernel/mm/transparent_hugepage/enabled.
enum class ThpMode { kUnknown, kAlways, kMadvise, kNever };

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Single flat node spanning hardware_concurrency() cpus — the degraded
/// answer for non-Linux / missing sysfs.
inline PhysicalTopology flat_physical_topology() {
  PhysicalTopology topo;
  NumaNode node;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  node.cpus.reserve(hw);
  for (unsigned c = 0; c < hw; ++c) node.cpus.push_back(static_cast<int>(c));
  topo.nodes.push_back(std::move(node));
  topo.detected = false;
  return topo;
}

inline const char* thp_mode_name(ThpMode mode) {
  switch (mode) {
    case ThpMode::kAlways: return "always";
    case ThpMode::kMadvise: return "madvise";
    case ThpMode::kNever: return "never";
    default: return "unknown";
  }
}

// ---- detection ------------------------------------------------------

/// Parses a sysfs cpulist string ("0-3,8,10-11") into cpu ids.
/// Malformed chunks are skipped, not fatal.
std::vector<int> parse_cpu_list(const std::string& text);

/// Parses a /sys/devices/system/node-shaped directory tree. Exposed
/// (rather than folded into system_topology) so tests can point it at a
/// fake tree and at a missing root. detected == false when no node*
/// directory with a readable cpulist exists under `root`.
PhysicalTopology parse_node_tree(const std::string& root);

/// The real machine, parsed once and cached (flat fallback on failure).
const PhysicalTopology& system_topology();

/// True when the mbind path is compiled in and the machine reports more
/// than one node — i.e. explicit placement can do anything at all.
bool numa_enabled();

/// True when thread pinning is compiled in for this platform.
bool pinning_available();

// ---- huge pages -----------------------------------------------------

/// Parses one line of .../transparent_hugepage/enabled
/// ("always [madvise] never" -> kMadvise). Exposed for tests.
ThpMode parse_thp_enabled(const std::string& line);

/// The running kernel's THP mode, probed once and cached.
ThpMode thp_mode();

/// True when madvise(MADV_HUGEPAGE) can have an effect (mode always or
/// madvise).
bool huge_pages_supported();

/// madvise(MADV_HUGEPAGE) over [addr, addr+bytes), trimmed inward to
/// page boundaries. Returns true when the kernel accepted the hint.
bool advise_huge_pages(void* addr, std::size_t bytes);

/// Process-wide AnonHugePages from /proc/self/smaps_rollup, in bytes
/// (0 when unreadable). Deltas of this estimate pages actually promoted
/// — THP promotion is asynchronous, so this is an estimate, recorded as
/// such in telemetry.
std::uint64_t anon_huge_bytes();

// ---- pinning / explicit placement -----------------------------------

/// Pins the calling thread to one logical cpu. False on failure (cpu
/// offline, cpuset-restricted container, non-Linux).
bool pin_current_thread_to_cpu(int cpu);

/// mbind(2) [addr, addr+bytes) to `node` (MPOL_BIND | MPOL_MF_MOVE —
/// touched pages migrate). False when the node is unknown, the machine
/// is single-node, or the kernel refuses.
bool bind_to_node(void* addr, std::size_t bytes, int node);

/// mbind(2) MPOL_INTERLEAVE across every detected node — the CSR
/// adjacency placement (no owner socket; spread the bandwidth). False
/// on single-node machines or kernel refusal.
bool interleave_across_nodes(void* addr, std::size_t bytes);

// ---- placement-friendly allocation ----------------------------------

/// Aligned raw storage whose pages stay unfaulted until first write.
///
/// grow(n, huge) (re)allocates capacity for n elements — 2 MiB-aligned
/// with an MADV_HUGEPAGE hint when `huge`, cache-line-aligned otherwise
/// — and *does not construct or zero* the elements. Callers own
/// initialization, which is the point: the engine's parallel first-run
/// region zeroes each owner-computes slice from the thread that will
/// use it, so first-touch places every page socket-locally. Only
/// trivially-copyable element types are supported (the arena stamp
/// words, level entries, queue slots, and bitmap words all are;
/// std::atomic<T> of a trivial T qualifies).
template <typename T>
class PlacedBuffer {
  static_assert(std::is_trivially_destructible_v<T>,
                "PlacedBuffer elements are never destroyed individually");

 public:
  PlacedBuffer() = default;
  ~PlacedBuffer() { release(); }

  PlacedBuffer(PlacedBuffer&& other) noexcept { swap(other); }
  PlacedBuffer& operator=(PlacedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  PlacedBuffer(const PlacedBuffer&) = delete;
  PlacedBuffer& operator=(const PlacedBuffer&) = delete;

  /// Ensures capacity for n elements. Existing contents are discarded
  /// (callers re-initialize; the engine only grows before its first
  /// run). Returns true when a huge-page advise was issued and
  /// accepted.
  bool grow(std::size_t n, bool huge) {
    if (n <= size_ && (huge == huge_ || size_ == 0)) {
      size_ = std::max(size_, n);
      return false;
    }
    release();
    huge_ = huge;
    if (n == 0) return false;
    const std::size_t align = huge ? kHugePageBytes : 64;
    const std::size_t bytes = round_up(n * sizeof(T), align);
    // Commit the new state only once the allocation succeeded: a grow
    // that throws leaves an empty buffer, never n elements at nullptr.
    data_ = static_cast<T*>(::operator new(bytes, std::align_val_t{align}));
    size_ = n;
    bytes_ = bytes;
    align_ = align;
    advised_huge_ = huge && advise_huge_pages(data_, bytes_);
    return advised_huge_;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  std::size_t capacity_bytes() const { return bytes_; }
  bool empty() const { return size_ == 0; }
  /// True when the last grow() issued an accepted MADV_HUGEPAGE.
  bool huge_advised() const { return advised_huge_; }

 private:
  static std::size_t round_up(std::size_t v, std::size_t align) {
    return (v + align - 1) / align * align;
  }
  void release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{align_});
    }
    data_ = nullptr;
    size_ = 0;
    bytes_ = 0;
    advised_huge_ = false;
  }
  void swap(PlacedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(bytes_, other.bytes_);
    std::swap(align_, other.align_);
    std::swap(huge_, other.huge_);
    std::swap(advised_huge_, other.advised_huge_);
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;
  std::size_t align_ = 64;
  bool huge_ = false;
  bool advised_huge_ = false;
};

}  // namespace optibfs::mem
