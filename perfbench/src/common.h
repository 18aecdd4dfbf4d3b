#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Pieces every perfbench workload shares: the monotonic clock, order
/// statistics, and the result a workload hands back to main().

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// The median (the mean of the middle two for an even count).
double Median(std::vector<double> values);

/// Peak resident set of this process (VmHWM), in MiB. Each workload runs
/// in its own process, so this is that workload's own peak.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: the metrics of its mode (end-to-end, or
/// per-layer when traced), the operation counts, and every failed output
/// check (empty = correct).
struct Result {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> check_failures;
  /// A digest of the workload's outputs; run.py checks that every process
  /// of a run, given identical inputs, prints the same one.
  std::string outputs;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Set-ups per timed run; setup_s is their median.
constexpr size_t kSetupRepeats = 15;

/// Command-line inputs of a workload run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory of this build's artifacts (model cache, bundle, trace files).
  std::string artifacts;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
