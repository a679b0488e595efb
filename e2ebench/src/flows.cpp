#include "flows.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string_view>

#include "common/thread_pool.hpp"
#include "flow/pipeline.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

std::size_t layer_of(std::string_view pass) {
  const auto is = [&](std::string_view prefix) {
    return pass.substr(0, prefix.size()) == prefix;
  };
  if (is("assign:")) return 0;
  if (pass == "espresso") return 1;
  if (pass == "factor") return 2;
  if (pass == "extract") return 3;
  if (pass == "aig") return 4;
  if (pass == "balance" || pass == "resyn") return 5;
  if (is("map:")) return 6;
  if (pass == "analyze") return 7;
  if (is("error_rate")) return 8;
  return kHarness;
}

std::vector<std::string> split_passes(const std::string& spec) {
  std::vector<std::string> passes;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find('|', begin);
    if (end == std::string::npos) end = spec.size();
    std::string pass = spec.substr(begin, end - begin);
    const auto first = pass.find_first_not_of(' ');
    const auto last = pass.find_last_not_of(' ');
    if (first != std::string::npos)
      passes.push_back(pass.substr(first, last - first + 1));
    begin = end + 1;
  }
  return passes;
}

TracedFlow trace_flow(const FlowJob& job) {
  TracedFlow traced;
  const Clock::time_point start = Clock::now();
  rdc::flow::Design design(*job.spec, job.options);
  for (const std::string& fragment :
       split_passes(rdc::flow::canonical_flow_spec(job.policy, job.options))) {
    rdc::exec::Result<rdc::flow::Pipeline> pass =
        rdc::flow::parse_pipeline(fragment);
    if (!pass.ok()) {
      traced.error = fragment + ": " + pass.status().to_string();
      return traced;
    }
    const std::string name = pass->at(0).name();
    const Clock::time_point pass_start = Clock::now();
    const rdc::exec::Status status = pass->run(design);
    const double ms = ms_since(pass_start);
    if (!status.ok()) {
      traced.error = fragment + ": " + status.to_string();
      return traced;
    }
    traced.layer_ms[layer_of(name)] += ms;
    traced.pass_ms.emplace_back(name, ms);
    if (name.rfind("assign:", 0) == 0) traced.dcs_assigned = design.assignment.assigned;
    if (name == "espresso") {
      traced.cubes = 0;
      for (const rdc::Cover& cover : design.covers()) traced.cubes += cover.size();
    }
    if (design.has(rdc::flow::Artifact::kAig)) traced.ands = design.aig().num_ands();
    if (design.has(rdc::flow::Artifact::kNetlist))
      traced.gates = design.netlist().gate_count();
  }
  traced.total_ms = ms_since(start);
  double covered = 0.0;
  for (const auto& [name, ms] : traced.pass_ms) covered += ms;
  traced.layer_ms[kHarness] = traced.total_ms - covered;
  traced.outcome = {design.stats.gates, design.stats.area,
                    design.stats.delay_ps, design.stats.power_uw,
                    design.error_rate};
  traced.error = check_netlist(*job.spec, design.netlist(), design.error_rate);
  return traced;
}

}  // namespace

std::string label(const FlowJob& job) {
  return job.spec->name() + "/" + job.policy_name;
}

double Stream::rounds() const {
  return jobs > 0 ? static_cast<double>(runs.size()) / static_cast<double>(jobs)
                  : 0.0;
}

double Stream::flow_ms() const {
  double sum = 0.0;
  for (const FlowRun& run : runs) sum += run.latency_ms;
  return sum;
}

double Stream::flow_ms_per_round() const {
  return runs.empty() ? 0.0 : flow_ms() / rounds();
}

double Stream::busy_share(unsigned threads) const {
  return wall_ms > 0.0 ? flow_ms() / (wall_ms * threads) : 0.0;
}

double Stream::tail_ms() const {
  if (runs.size() < 2) return 0.0;
  std::vector<double> ends;
  for (const FlowRun& run : runs) ends.push_back(run.end_ms);
  std::sort(ends.begin(), ends.end());
  return wall_ms - ends[ends.size() - 2];
}

Stream run_stream(const std::vector<FlowJob>& jobs, StopRule rule) {
  const std::size_t n = jobs.size();
  const std::size_t block =
      rule.block > 0 && n % rule.block == 0 ? rule.block : n;
  // A cap on rounds bounds the index range; later indices are skipped.
  const std::uint64_t max_rounds =
      rule.seconds <= 0.0 && rule.min_flows == 0 ? 1 : 1000;
  Stream stream;
  stream.jobs = n;
  std::mutex mutex;  // guards stream.runs and the admission decision
  std::atomic<std::size_t> admitted{0};  // every block below it runs
  std::atomic<bool> stopped{false};
  const Clock::time_point start = Clock::now();
  // Every block runs whole or not at all: the first admit() call for a
  // block decides, and admitting a block admits any earlier block still
  // undecided (claims are handed out in index order, so earlier blocks
  // normally decide first).
  const auto admit = [&](std::size_t b) {
    if (b * block < n || b < admitted.load()) return true;
    if (stopped.load()) return false;
    std::lock_guard<std::mutex> lock(mutex);
    if (b < admitted.load()) return true;
    if (stopped.load()) return false;
    const double elapsed = ms_since(start);
    if ((elapsed < rule.seconds * 1000.0 || b * block < rule.min_flows) &&
        elapsed < kMaxMeasureSeconds * 1000.0) {
      admitted.store(b + 1);
      return true;
    }
    stopped.store(true);
    return false;
  };
  rdc::ThreadPool::global().parallel_for(0, n * max_rounds, [&](std::uint64_t i) {
    FlowRun run;
    run.job = i % n;
    run.round = i / n;
    if (!admit(i / block)) return;
    const FlowJob& job = jobs[run.job];
    const Clock::time_point begin = Clock::now();
    const rdc::FlowResult flow = rdc::run_flow(*job.spec, job.policy, job.options);
    const Clock::time_point end = Clock::now();
    run.latency_ms = ms_between(begin, end);
    run.end_ms = ms_between(start, end);
    run.outcome = {flow.stats.gates, flow.stats.area, flow.stats.delay_ps,
                   flow.stats.power_uw, flow.error_rate};
    run.report_bytes = flow.report.to_json().size();
    if (!flow.status.ok())
      run.error = flow.status.to_string();
    else if (flow.degradation != rdc::DegradationLevel::kNone)
      run.error = std::string("degraded to ") +
                  rdc::degradation_level_name(flow.degradation);
    else if (flow.netlist.gate_count() != flow.stats.gates)
      run.error = "reported gate count differs from the netlist";
    else
      run.error = check_netlist(*job.spec, flow.netlist, flow.error_rate);
    std::lock_guard<std::mutex> lock(mutex);
    stream.runs.push_back(std::move(run));
  });
  stream.wall_ms = ms_since(start);
  return stream;
}

std::vector<Outcome> verify_stream(const std::vector<FlowJob>& jobs,
                                   const Stream& stream, Result& result) {
  std::vector<Outcome> expected(jobs.size());
  for (const FlowRun& run : stream.runs)
    if (run.round == 0) expected[run.job] = run.outcome;
  for (const FlowRun& run : stream.runs) {
    std::string why = run.error;
    if (why.empty() && !(run.outcome == expected[run.job]))
      why = "result differs from the first round";
    ++result.attempted;
    if (!why.empty()) {
      ++result.failed;
      result.fail(label(jobs[run.job]) + ": " + why);
    }
  }
  return expected;
}

std::vector<TracedFlow> run_traced(const std::vector<FlowJob>& jobs,
                                   const std::vector<Outcome>& expected,
                                   Result& result) {
  std::vector<TracedFlow> traced(jobs.size());
  rdc::ThreadPool::global().parallel_for(0, jobs.size(), [&](std::uint64_t i) {
    traced[i] = trace_flow(jobs[i]);
  });
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::string why = traced[j].error;
    if (why.empty() && !(traced[j].outcome == expected.at(j)))
      why = "traced run differs from run_flow";
    ++result.attempted;
    if (!why.empty()) {
      ++result.failed;
      result.fail(label(jobs[j]) + ": " + why);
    }
  }
  return traced;
}

void set_traced_layer_metrics(const std::vector<TracedFlow>& traced,
                              double untraced_flow_ms, Result& result) {
  std::array<double, kLayerNames.size()> layer_ms{};
  double traced_ms = 0.0;
  std::uint64_t dcs = 0, cubes = 0, ands = 0, gates = 0;
  for (const TracedFlow& flow : traced) {
    for (std::size_t layer = 0; layer < layer_ms.size(); ++layer)
      layer_ms[layer] += flow.layer_ms[layer];
    traced_ms += flow.total_ms;
    dcs += flow.dcs_assigned;
    cubes += flow.cubes;
    ands += flow.ands;
    gates += flow.gates;
  }
  for (std::size_t layer = 0; layer < layer_ms.size(); ++layer)
    result.set(kLayerNames[layer], layer_ms[layer]);
  result.set("reliability.dcs_assigned", static_cast<double>(dcs));
  result.set("espresso.cubes", static_cast<double>(cubes));
  result.set("aig.ands", static_cast<double>(ands));
  result.set("mapper.gates", static_cast<double>(gates));
  if (untraced_flow_ms > 0.0)
    result.set("trace.overhead_pct", (traced_ms / untraced_flow_ms - 1.0) * 100.0);
}

void set_qor_metrics(const std::vector<Outcome>& outcomes, Result& result) {
  std::vector<double> area, delay, power, error;
  for (const Outcome& outcome : outcomes) {
    area.push_back(outcome.area);
    delay.push_back(outcome.delay_ps);
    power.push_back(outcome.power_uw);
    error.push_back(outcome.error_rate);
  }
  result.set("qor_area", geomean(area));
  result.set("qor_delay_ps", geomean(delay));
  result.set("qor_power_uw", geomean(power));
  result.set("qor_error_rate", mean(error));
}

void print_flow_rows(const std::vector<FlowJob>& jobs,
                     const std::vector<Outcome>& outcomes,
                     const std::vector<double>& latency_ms,
                     const std::vector<TracedFlow>* traced) {
  for (std::size_t i = 0; i < jobs.size() && i < outcomes.size(); ++i) {
    Row row("flow");
    row.add("circuit", jobs[i].spec->name())
        .add("policy", jobs[i].policy_name)
        .add("latency_ms", i < latency_ms.size() ? latency_ms[i] : 0.0)
        .add("gates", static_cast<double>(outcomes[i].gates))
        .add("area", outcomes[i].area)
        .add("delay_ps", outcomes[i].delay_ps)
        .add("power_uw", outcomes[i].power_uw)
        .add("error_rate", outcomes[i].error_rate);
    if (traced != nullptr && i < traced->size()) {
      const TracedFlow& flow = (*traced)[i];
      for (const auto& [pass, ms] : flow.pass_ms) row.add(pass + "_ms", ms);
      row.add("harness_ms", flow.layer_ms[kHarness])
          .add("dcs_assigned", static_cast<double>(flow.dcs_assigned))
          .add("cubes", static_cast<double>(flow.cubes))
          .add("ands", static_cast<double>(flow.ands));
    }
    row.print();
  }
}

}  // namespace e2e
