// Shared plumbing of the perfbench driver: host clock, correctness-check
// ledger and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-speed probe. The shared machines this benchmark runs on drift by
/// +-30 % in speed over minutes (neighbours contending for caches and memory
/// bandwidth), which no number of repetitions averages out. The probe is a
/// fixed memory-bound loop, owned by the benchmark so no change to the
/// simulator moves it: random read-modify-writes over 64 MiB. It runs in a
/// spawned child (`perfbench --probe`), so its memory never counts toward the
/// benchmark's peak RSS. Host times are normalised by it to the speed of the
/// machine the benchmark was calibrated on: t * kProbeNominalS / probe_s.
inline constexpr double kProbeNominalS = 0.040;

/// The timed loop itself (what `perfbench --probe` runs): seconds of one
/// pass, the median of five.
double run_probe_loop();

/// Spawn `exe --probe`, wait for it and return its seconds; 0 on failure.
double spawn_probe(const char* exe);

/// Every correctness check the run makes, pass or fail. A failed check is
/// reported on stderr and turns the result's `correct` flag false (and the
/// exit code non-zero).
class Checks {
 public:
  void require(bool ok, const std::string& what);
  bool all_passed() const { return failures_.empty(); }
  std::size_t count() const { return count_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> failures_;
};

/// Order statistics with the same conventions as Python's `statistics`
/// module: median(), and quartiles() == statistics.quantiles(v, n=4) with
/// the default "exclusive" method.
double median(std::vector<double> v);
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

}  // namespace perfbench
