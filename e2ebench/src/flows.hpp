// Flow jobs fanned over the process thread pool, untraced and traced.
//
// A round is every job once. An untraced stream runs rounds back to back in
// a single rdc::ThreadPool::global().parallel_for, each flow through
// rdc::run_flow and timed from outside; every result is checked by the
// independent oracle as it completes (outside the timed call). Jobs are
// admitted in blocks, so a stream ends on a block boundary.
//
// A traced round replays the same jobs pass by pass: the canonical flow
// spec (flow::canonical_flow_spec) is split at '|', each pass is parsed
// on its own and run with Pipeline::run over one flow::Design, and every
// call is timed and followed by reading the Design's artifacts for counts.
// Per-layer numbers come only from the traced round; end-to-end numbers
// only from untraced ones.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flow/synthesis_flow.hpp"
#include "measure.hpp"

namespace e2e {

struct FlowJob {
  const rdc::IncompleteSpec* spec = nullptr;
  rdc::DcPolicy policy = rdc::DcPolicy::kConventional;
  rdc::FlowOptions options;
  std::string policy_name;  ///< for rows: "conventional", "lcf", ...
};

std::string label(const FlowJob& job);

/// The deterministic results of one flow, compared across runs.
struct Outcome {
  std::size_t gates = 0;
  double area = 0.0;
  double delay_ps = 0.0;
  double power_uw = 0.0;
  double error_rate = 0.0;
  bool operator==(const Outcome&) const = default;
};

/// One untraced flow of a stream.
struct FlowRun {
  std::size_t job = 0;
  std::size_t round = 0;
  double latency_ms = 0.0;  ///< around the run_flow call
  double end_ms = 0.0;      ///< when it finished, since the stream began
  Outcome outcome;
  std::size_t report_bytes = 0;  ///< size of the flow's report JSON
  std::string error;  ///< failed status, degradation or oracle rejection
};

struct Stream {
  std::size_t jobs = 0;  ///< flows per round
  double wall_ms = 0.0;
  std::vector<FlowRun> runs;  ///< in completion order

  /// Rounds run, counting a partial last round by its share of the jobs.
  double rounds() const;
  /// Summed flow time, in all and per round.
  double flow_ms() const;
  double flow_ms_per_round() const;
  /// Summed flow time over (wall x threads).
  double busy_share(unsigned threads) const;
  /// Wall time after the second-to-last flow ended.
  double tail_ms() const;
};

/// The first round always runs; after it, each block of `block` consecutive
/// jobs starts only while the stream has lasted less than `seconds` or
/// started fewer than `min_flows` flows, and never after
/// kMaxMeasureSeconds. A block that does not divide the jobs evenly, or
/// 0, means whole rounds.
struct StopRule {
  double seconds = 0.0;
  std::size_t min_flows = 0;
  std::size_t block = 0;
};

/// Untraced rounds of every job over the process pool, until `rule` stops.
Stream run_stream(const std::vector<FlowJob>& jobs, StopRule rule);

/// Counts every flow of `stream` as attempted and fails those with an
/// error or whose outcome differs from the same job's in the first round.
/// Returns the first-round outcome of every job.
std::vector<Outcome> verify_stream(const std::vector<FlowJob>& jobs,
                                   const Stream& stream, Result& result);

/// The layers a traced round attributes pass time to, in report order.
/// Index kHarness is traced flow time not covered by any pass.
inline constexpr std::array<const char*, 10> kLayerNames = {
    "reliability.assign_ms", "espresso.minimize_ms", "sop.factor_ms",
    "sop.extract_ms",        "aig.build_ms",         "aig.restructure_ms",
    "mapper.map_ms",         "mapper.analyze_ms",    "reliability.error_rate_ms",
    "flow.harness_ms"};
inline constexpr std::size_t kHarness = kLayerNames.size() - 1;

struct TracedFlow {
  double total_ms = 0.0;  ///< whole replay: Design, parsing, every pass
  std::array<double, kLayerNames.size()> layer_ms{};
  std::vector<std::pair<std::string, double>> pass_ms;  ///< in flow order
  std::uint64_t dcs_assigned = 0;
  std::uint64_t cubes = 0;  ///< SOP cubes after espresso
  std::uint64_t ands = 0;   ///< AIG and-nodes entering the mapper
  std::uint64_t gates = 0;  ///< mapped cells
  Outcome outcome;
  std::string error;  ///< pass failure or oracle rejection
};

/// One traced round of every job over the process pool. Every traced
/// flow must pass the oracle and reproduce `expected` (the untraced
/// outcome), or it counts as failed: the trace would have measured a
/// different program.
std::vector<TracedFlow> run_traced(const std::vector<FlowJob>& jobs,
                                   const std::vector<Outcome>& expected,
                                   Result& result);

/// Sets the per-layer metrics of a traced round: each layer's time and
/// each count summed over the flows, and trace.overhead_pct of the traced
/// flow time over `untraced_flow_ms`, the untraced flow time per round.
void set_traced_layer_metrics(const std::vector<TracedFlow>& traced,
                              double untraced_flow_ms, Result& result);

/// Sets qor_area, qor_delay_ps and qor_power_uw (geometric means) and
/// qor_error_rate (arithmetic mean) over `outcomes`.
void set_qor_metrics(const std::vector<Outcome>& outcomes, Result& result);

/// Prints one row per job: its outcome, `latency_ms`, and with a traced
/// round (non-null) its per-pass times and counts.
void print_flow_rows(const std::vector<FlowJob>& jobs,
                     const std::vector<Outcome>& outcomes,
                     const std::vector<double>& latency_ms,
                     const std::vector<TracedFlow>* traced);

}  // namespace e2e
