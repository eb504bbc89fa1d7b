// Self-test of the ledger's figures: a healthy phase reads as itself,
// failures cost throughput and the tail even when they cluster, and a
// stalled phase reads as degraded. Exits non-zero on the first surprise.
#include <cmath>
#include <functional>
#include <iostream>
#include <string>

#include "ledger.hpp"

using perfbench::Load;

namespace {

int failures = 0;

void expect(bool pass, const std::string& what, double value) {
  if (pass) return;
  ++failures;
  std::cerr << "FAIL " << what << ": got " << value << "\n";
}

/// A 10 s phase ending an operation every 10 ms until `until_s`, four in
/// five answers taking 10 ms and the fifth 20 ms (100/s, p50 10 ms, p90
/// 20 ms), except that the operations ending when `fails(t)` holds fail.
Load phase(double until_s, const std::function<bool(double)>& fails) {
  Load l;
  l.seconds = 10.0;
  for (int k = 1; 0.01 * k <= until_s + 1e-9; ++k) {
    if (fails(0.01 * k)) {
      l.fail();
    } else {
      l.ok(k % 5 == 0 ? 20.0 : 10.0);
    }
  }
  l.elapsed_s = until_s;
  return l;
}

bool never(double) { return false; }

}  // namespace

int main() {
  const Load ok = phase(10.0, never);
  expect(std::abs(ok.throughput() - 100.0) < 1.0, "healthy throughput", ok.throughput());
  expect(ok.latency_quantile(0.5) == 10.0, "healthy p50", ok.latency_quantile(0.5));
  expect(ok.latency_quantile(0.9) == 20.0, "healthy p90", ok.latency_quantile(0.9));

  // A stall 3 s in: 64 stranded operations fail when the watchdog fires
  // 5 s later, and nothing ends after that.
  Load stalled = phase(3.0, never);
  for (int k = 0; k < 64; ++k) stalled.fail();
  stalled.stalled = true;
  stalled.elapsed_s = 8.0;
  expect(stalled.throughput() < 35.0, "stalled throughput", stalled.throughput());
  expect(std::isinf(stalled.latency_quantile(0.5)), "stalled p50",
         stalled.latency_quantile(0.5));
  expect(std::isinf(stalled.latency_quantile(0.9)), "stalled p90",
         stalled.latency_quantile(0.9));

  // 15% of the operations fail in three 0.5 s bursts: p90 misses and
  // throughput drops by the failed share; p50 still holds.
  const Load burst = phase(10.0, [](double t) {
    return (t > 2.0 && t <= 2.5) || (t > 4.0 && t <= 4.5) || (t > 6.0 && t <= 6.5);
  });
  expect(std::isinf(burst.latency_quantile(0.9)), "burst p90", burst.latency_quantile(0.9));
  expect(burst.latency_quantile(0.5) == 10.0, "burst p50", burst.latency_quantile(0.5));
  expect(burst.throughput() < 90.0, "burst throughput", burst.throughput());

  // Two failures in a thousand barely move anything.
  const Load sparse = phase(10.0, [](double t) {
    return std::abs(t - 2.5) < 1e-6 || std::abs(t - 7.5) < 1e-6;
  });
  expect(sparse.failed == 2, "sparse failures", static_cast<double>(sparse.failed));
  expect(sparse.latency_quantile(0.9) == 20.0, "sparse p90", sparse.latency_quantile(0.9));
  expect(sparse.throughput() > 99.0, "sparse throughput", sparse.throughput());

  if (failures == 0) std::cout << "ledger figures: ok\n";
  return failures == 0 ? 0 : 1;
}
