// Timing, summary statistics and the benchmark's output format.
//
// Output is JSON lines on stdout: zero or more `{"row": ...}` detail rows
// (per circuit, per signature) and, last, the result object the benchmark
// contract fixes: {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

/// Harrell-Davis estimate of quantile `q` in (0, 1): a weighted mean of
/// all order statistics, the i-th (of n) weighted by the Beta(q(n+1),
/// (1-q)(n+1)) density at (i - 1/2)/n. Latencies here come in clusters (one
/// per circuit), and a single order statistic at a quantile that falls
/// between two clusters jumps between them from run to run; the weighted
/// mean moves smoothly. 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Geometric mean of positive values (0 when empty or any value <= 0).
double geomean(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Worker threads the benchmark sizes its load to: the CPUs this process
/// may run on.
unsigned cpu_count();

/// One detail row, printed as a JSON line {"row": kind, key: value, ...}.
class Row {
 public:
  explicit Row(std::string kind);
  Row& add(const std::string& key, double value);
  Row& add(const std::string& key, const std::string& value);
  void print() const;

 private:
  std::string text_;
};

/// What one workload run produced.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> errors;       ///< why `correct` is false

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records a failed check: the run is no longer correct.
  void fail(std::string why);
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Prints the contract's final result line with the `metrics` named, in
/// that order, taking each value from `result.values`.
void print_result(const Result& result, const std::vector<MetricSpec>& metrics);

}  // namespace e2e
