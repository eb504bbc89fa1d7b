// Syscall-facing side of the memory-topology layer. Every path here
// must fail soft: this library's primary dev container is single-node
// with THP=madvise and no CAP_SYS_NICE, so the "kernel said no"
// branches are the ones that actually run in CI.
#include "runtime/mem_topology.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace optibfs::mem {
namespace {

#if defined(__linux__)
// numaif.h constants, restated locally: the container bakes in the cpp
// toolchain but not libnuma's headers, and mbind is a plain syscall.
constexpr int kMpolBind = 2;
constexpr int kMpolInterleave = 3;
constexpr unsigned kMpolMfMove = 1u << 1;

long raw_mbind(void* addr, unsigned long len, int mode,
               const unsigned long* nodemask, unsigned long maxnode,
               unsigned flags) {
  return syscall(SYS_mbind, addr, len, mode, nodemask, maxnode, flags);
}

std::size_t page_size() {
  const long ps = sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<std::size_t>(ps) : 4096;
}

/// Trims [addr, addr+bytes) inward to whole pages; false when nothing
/// page-aligned remains (madvise/mbind demand page-aligned starts).
bool page_trim(void*& addr, std::size_t& bytes) {
  const std::size_t ps = page_size();
  auto begin = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t end = begin + bytes;
  const std::uintptr_t first = (begin + ps - 1) / ps * ps;
  const std::uintptr_t last = end / ps * ps;
  if (first >= last) return false;
  addr = reinterpret_cast<void*>(first);
  bytes = last - first;
  return true;
}
#endif  // __linux__

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           !std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i >= text.size()) break;
    char* end = nullptr;
    const long first = std::strtol(text.c_str() + i, &end, 10);
    i = static_cast<std::size_t>(end - text.c_str());
    long last = first;
    if (i < text.size() && text[i] == '-') {
      ++i;
      if (i < text.size() &&
          std::isdigit(static_cast<unsigned char>(text[i]))) {
        last = std::strtol(text.c_str() + i, &end, 10);
        i = static_cast<std::size_t>(end - text.c_str());
      } else {
        last = first;  // trailing "-": malformed chunk, keep the start
      }
    }
    if (first < 0 || last < first) continue;
    for (long c = first; c <= last; ++c) cpus.push_back(static_cast<int>(c));
  }
  return cpus;
}

PhysicalTopology parse_node_tree(const std::string& root) {
  PhysicalTopology topo;
  // Probe node0, node1, ... until the first gap; sysfs numbers nodes
  // densely from 0 (possible-but-offline nodes have no directory).
  for (int id = 0;; ++id) {
    std::ostringstream path;
    path << root << "/node" << id << "/cpulist";
    std::ifstream probe(path.str());
    if (!probe) break;
    std::string line;
    std::getline(probe, line);
    NumaNode node;
    node.id = id;
    node.cpus = parse_cpu_list(line);
    if (!node.cpus.empty()) topo.nodes.push_back(std::move(node));
  }
  if (topo.nodes.empty()) return flat_physical_topology();
  topo.detected = true;
  return topo;
}

const PhysicalTopology& system_topology() {
#if defined(__linux__)
  static const PhysicalTopology topo =
      parse_node_tree("/sys/devices/system/node");
#else
  static const PhysicalTopology topo = flat_physical_topology();
#endif
  return topo;
}

bool numa_enabled() {
  const PhysicalTopology& topo = system_topology();
  return topo.detected && topo.nodes.size() > 1;
}

bool pinning_available() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

ThpMode parse_thp_enabled(const std::string& line) {
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']');
  if (open == std::string::npos || close == std::string::npos ||
      close <= open + 1) {
    return ThpMode::kUnknown;
  }
  const std::string picked = line.substr(open + 1, close - open - 1);
  if (picked == "always") return ThpMode::kAlways;
  if (picked == "madvise") return ThpMode::kMadvise;
  if (picked == "never") return ThpMode::kNever;
  return ThpMode::kUnknown;
}

ThpMode thp_mode() {
#if defined(__linux__)
  static const ThpMode mode = parse_thp_enabled(
      read_first_line("/sys/kernel/mm/transparent_hugepage/enabled"));
#else
  static const ThpMode mode = ThpMode::kUnknown;
#endif
  return mode;
}

bool huge_pages_supported() {
  const ThpMode mode = thp_mode();
  return mode == ThpMode::kAlways || mode == ThpMode::kMadvise;
}

bool advise_huge_pages(void* addr, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (!huge_pages_supported()) return false;
  if (addr == nullptr || bytes == 0) return false;
  if (!page_trim(addr, bytes)) return false;
  return madvise(addr, bytes, MADV_HUGEPAGE) == 0;
#else
  (void)addr;
  (void)bytes;
  return false;
#endif
}

std::uint64_t anon_huge_bytes() {
#if defined(__linux__)
  std::ifstream in("/proc/self/smaps_rollup");
  if (!in) return 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AnonHugePages:", 0) != 0) continue;
    std::uint64_t kb = 0;
    if (std::sscanf(line.c_str(), "AnonHugePages: %llu",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      return kb * 1024;
    }
  }
#endif
  return 0;
}

bool pin_current_thread_to_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool bind_to_node(void* addr, std::size_t bytes, int node) {
#if defined(__linux__)
  if (!numa_enabled()) return false;
  if (node < 0 || node >= 64) return false;
  bool known = false;
  for (const NumaNode& n : system_topology().nodes) {
    if (n.id == node) known = true;
  }
  if (!known) return false;
  if (addr == nullptr || bytes == 0) return false;
  if (!page_trim(addr, bytes)) return false;
  unsigned long mask[1] = {1ul << node};
  return raw_mbind(addr, bytes, kMpolBind, mask, 64, kMpolMfMove) == 0;
#else
  (void)addr;
  (void)bytes;
  (void)node;
  return false;
#endif
}

bool interleave_across_nodes(void* addr, std::size_t bytes) {
#if defined(__linux__)
  if (!numa_enabled()) return false;
  if (addr == nullptr || bytes == 0) return false;
  if (!page_trim(addr, bytes)) return false;
  unsigned long mask[1] = {0};
  for (const NumaNode& n : system_topology().nodes) {
    if (n.id >= 0 && n.id < 64) mask[0] |= 1ul << n.id;
  }
  if (mask[0] == 0) return false;
  return raw_mbind(addr, bytes, kMpolInterleave, mask, 64, kMpolMfMove) == 0;
#else
  (void)addr;
  (void)bytes;
  return false;
#endif
}

}  // namespace optibfs::mem
