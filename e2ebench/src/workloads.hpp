// The benchmark's workloads. Each runs set-up, the untraced measurement
// and its checks, and with `trace` also the traced run; it fills every
// end-to-end metric and, when traced, the per-layer metrics that apply.
#pragma once

#include <cstdint>

#include "measure.hpp"

namespace e2e {

struct RunArgs {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;
/// Minimum timed samples per run, so that p90 has at least ten beyond it.
inline constexpr std::size_t kMinSamples = 100;
/// Measurement never runs past this, whatever the sample count.
inline constexpr double kMaxMeasureSeconds = 100.0;

enum class Recipe { kPower, kDelay };

/// table1_power / table1_delay: the Table-1 signatures x {conventional,
/// reliability policy} fanned over the process thread pool.
Result run_table1(const RunArgs& args, Recipe recipe);

/// serve_mix: a closed loop of cpu_count() clients against an in-process
/// rdcsynd server with its result cache on.
Result run_serve_mix(const RunArgs& args);

}  // namespace e2e
