// Answer checks against serial references, run after the timed phase.
// Every answer a workload samples is compared with bfs_serial (BFS-typed
// queries) or the kernels/reference oracles (kernel-typed queries) on a
// CSR rebuilt from the snapshot the answer was served at.
#pragma once

#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "service/bfs_service.hpp"

namespace perfbench {

/// One sampled answer, with its level array dropped.
struct Sample {
  optibfs::Query query;
  optibfs::QueryResult result;
};

/// Keeps every stride-th answer (offset by the seed), up to `cap`.
class Sampler {
 public:
  Sampler(std::uint64_t seed, std::uint64_t stride, std::size_t cap)
      : offset_(seed % stride), stride_(stride), cap_(cap) {}

  void offer(std::uint64_t index, const optibfs::Query& q, optibfs::QueryResult r) {
    if (index % stride_ != offset_ || samples_.size() >= cap_) return;
    r.levels.reset();
    samples_.push_back({q, std::move(r)});
  }
  std::vector<Sample>& samples() { return samples_; }

 private:
  std::uint64_t offset_;
  std::uint64_t stride_;
  std::size_t cap_;
  std::vector<Sample> samples_;
};

/// Checks a distance / path / level-set answer against `ref`, the
/// serial level array from the query's source on `g`. Returns an empty
/// string when correct, else what is wrong.
std::string check_levels_answer(const optibfs::Query& q,
                                const optibfs::QueryResult& r,
                                const std::vector<optibfs::level_t>& ref,
                                const optibfs::CsrGraph& g);

/// Kernel answers of one graph-analytics round.
struct KernelRound {
  std::uint64_t version = 0;
  optibfs::vid_t cc_vertex = 0;
  optibfs::vid_t core_vertex = 0;
  int topk = 10;
  optibfs::QueryResult cc, core, rank;
};

/// Checks CC and KCORE exactly and PRDELTA within
/// epsilon * n / (1 - damping), the bound a residual push truncated at
/// epsilon per vertex can leave (the kernel suite's own tolerance).
std::string check_kernel_round(const KernelRound& round,
                               const optibfs::CsrGraph& g, double damping,
                               double epsilon);

}  // namespace perfbench
