// table1_power and table1_delay.
//
// table1_power is the paper's Table 2/3 experiment: every Table-1
// signature under the default power recipe (espresso | factor | aig |
// map:power | analyze | error_rate), conventional against LCF-threshold
// (0.55) assignment. table1_delay is the paper's delay mode with the
// ABC-style second opinion: objective kDelay with kernel extraction and
// the resyn recipe, conventional against ranking (0.5) assignment. Both
// run kDraws draws of every signature under both policies as one stream
// over the process pool (flows.hpp): a full round, then one draw (every
// signature under both policies) at a time until the run has lasted
// --seconds and holds at least kMinSamples flows. Admitting whole rounds
// instead would make the run's length jump by a round whenever a round
// takes about --seconds.
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "flows.hpp"
#include "specs.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

/// Draws of each signature per run. Over a single draw, the quality
/// figures and the latency percentiles swing with how hard that one draw
/// happens to be (reliability_gain_pct by 12% between seeds); six draws
/// average it out.
constexpr unsigned kDraws = 6;

std::vector<FlowJob> make_jobs(const std::vector<GeneratedSpec>& specs,
                               Recipe recipe) {
  rdc::FlowOptions options;
  rdc::DcPolicy reliability = rdc::DcPolicy::kLcfThreshold;
  std::string reliability_name = "lcf";
  options.lcf_threshold = 0.55;
  if (recipe == Recipe::kDelay) {
    options.objective = rdc::OptimizeFor::kDelay;
    options.use_extraction = true;
    options.resyn_recipe = true;
    options.ranking_fraction = 0.5;
    reliability = rdc::DcPolicy::kRankingFraction;
    reliability_name = "ranking";
  }
  std::vector<FlowJob> jobs;
  for (const GeneratedSpec& g : specs) {
    jobs.push_back({&g.spec, rdc::DcPolicy::kConventional, options, "conventional"});
    jobs.push_back({&g.spec, reliability, options, reliability_name});
  }
  return jobs;
}

}  // namespace

Result run_table1(const RunArgs& args, Recipe recipe) {
  Result result;
  const unsigned threads = rdc::ThreadPool::global().num_threads();

  // Set-up: generate every draw of every signature, several times.
  std::vector<GeneratedSpec> specs;
  std::vector<double> setup_ms, generate_ms;
  std::vector<std::vector<double>> signature_ms(rdc::table1_info().size() * kDraws);
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    specs = generate_table1(args.seed, kDraws);
    setup_ms.push_back(ms_since(start));
    double sum = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      signature_ms[i].push_back(specs[i].generate_ms);
      sum += specs[i].generate_ms;
    }
    generate_ms.push_back(sum);
  }
  result.set("setup_s", median(setup_ms) / 1000.0);
  result.set("synthetic.generate_ms", median(generate_ms));
  for (std::size_t i = 0; i < specs.size(); ++i)
    Row("generate")
        .add("circuit", specs[i].spec.name())
        .add("signature", specs[i].signature)
        .add("inputs", specs[i].spec.num_inputs())
        .add("outputs", specs[i].spec.num_outputs())
        .add("dc_fraction", specs[i].spec.dc_fraction())
        .add("generate_ms", median(signature_ms[i]))
        .print();
  if (args.seed == 0 && !matches_table1_suite(specs))
    result.fail("seed 0 does not reproduce table1_suite()");

  const std::vector<FlowJob> jobs = make_jobs(specs, recipe);
  const Stream stream =
      run_stream(jobs, {args.seconds, kMinSamples, 2 * rdc::table1_info().size()});
  const std::vector<Outcome> outcomes = verify_stream(jobs, stream, result);
  std::vector<double> latencies;
  std::vector<std::vector<double>> job_latency(jobs.size());
  for (const FlowRun& run : stream.runs) {
    latencies.push_back(run.latency_ms);
    job_latency[run.job].push_back(run.latency_ms);
  }
  result.set("latency_ms_p50", quantile(latencies, 0.5));
  result.set("latency_ms_p90", quantile(latencies, 0.9));
  result.set("throughput_per_s", static_cast<double>(latencies.size()) /
                                     (stream.wall_ms / 1000.0));
  result.set("common.pool_busy_share", stream.busy_share(threads));
  result.set("common.pool_tail_ms", stream.tail_ms());
  Row("stream")
      .add("rounds", stream.rounds())
      .add("flows", static_cast<double>(latencies.size()))
      .add("wall_ms", stream.wall_ms)
      .add("flow_ms_per_round", stream.flow_ms_per_round())
      .add("busy_share", stream.busy_share(threads))
      .add("tail_ms", stream.tail_ms())
      .print();

  set_qor_metrics(outcomes, result);
  // Jobs come in (conventional, reliability) pairs per spec.
  std::vector<double> gain;
  for (std::size_t i = 1; i < outcomes.size(); i += 2)
    if (outcomes[i - 1].error_rate > 0.0)
      gain.push_back(100.0 *
                     (outcomes[i - 1].error_rate - outcomes[i].error_rate) /
                     outcomes[i - 1].error_rate);
  result.set("reliability_gain_pct", mean(gain));

  std::vector<TracedFlow> traced;
  if (args.trace) {
    traced = run_traced(jobs, outcomes, result);
    set_traced_layer_metrics(traced, stream.flow_ms_per_round(), result);
  }
  std::vector<double> row_latency;
  for (const auto& samples : job_latency) row_latency.push_back(median(samples));
  print_flow_rows(jobs, outcomes, row_latency,
                  traced.empty() ? nullptr : &traced);
  result.set("peak_rss_mb", peak_rss_mb());
  return result;
}

}  // namespace e2e
