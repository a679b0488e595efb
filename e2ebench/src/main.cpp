// rdcsyn end-to-end benchmark.
//
//   e2ebench --workload <table1_power|table1_delay|serve_mix> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Prints detail rows as JSON lines, then one result line holding every
// end-to-end metric (--trace 0, untraced run) or every per-layer metric
// (--trace 1, which adds a traced run on the same inputs). Workload
// rationale and the layer -> end-to-end mapping are in BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "benchdata/suite.hpp"
#include "flow/synthesis_flow.hpp"
#include "measure.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace {

const std::vector<e2e::MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"ok_share", "ratio"},
    {"qor_area", "um2"},
    {"qor_delay_ps", "ps"},
    {"qor_power_uw", "uW"},
    {"qor_error_rate", "ratio"},
    {"reliability_gain_pct", "%"},
};

const std::vector<e2e::MetricSpec> kPerLayer = {
    {"synthetic.generate_ms", "ms"},
    {"reliability.assign_ms", "ms"},
    {"reliability.error_rate_ms", "ms"},
    {"reliability.dcs_assigned", "count"},
    {"espresso.minimize_ms", "ms"},
    {"espresso.cubes", "count"},
    {"sop.factor_ms", "ms"},
    {"sop.extract_ms", "ms"},
    {"aig.build_ms", "ms"},
    {"aig.restructure_ms", "ms"},
    {"aig.ands", "count"},
    {"mapper.map_ms", "ms"},
    {"mapper.analyze_ms", "ms"},
    {"mapper.gates", "count"},
    {"flow.harness_ms", "ms"},
    {"common.pool_busy_share", "ratio"},
    {"common.pool_tail_ms", "ms"},
    {"serve.hit_ms_p50", "ms"},
    {"serve.miss_ms_p50", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.repeat_share", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.shed", "count"},
    {"trace.overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <table1_power|table1_delay|serve_mix>"
               " --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  e2e::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args.trace = value == "1";
    else return usage();
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0) ||
      (workload != "table1_power" && workload != "table1_delay" &&
       workload != "serve_mix"))
    return usage();

  // A fixed configuration: the process pool sized to the CPUs available,
  // and none of the program's own tracing, telemetry or fault injection.
  setenv("RDC_THREADS", std::to_string(e2e::cpu_count()).c_str(), 1);
  for (const char* var : {"RDC_TRACE", "RDC_METRICS", "RDC_EVENTS", "RDC_PERF",
                          "RDC_FAULT", "RDC_CHAOS", "RDC_SIMD"})
    unsetenv(var);

  e2e::Result result;
  std::string self_test;
  try {
    // The oracle must reject a broken netlist and an off rate before its
    // verdicts on the workload count.
    const rdc::IncompleteSpec probe_spec = rdc::make_benchmark("bench");
    const rdc::FlowResult probe =
        rdc::run_flow(probe_spec, rdc::DcPolicy::kConventional);
    self_test = e2e::oracle_self_test(probe_spec, probe.netlist, probe.error_rate);
    e2e::Row("oracle_self_test").add("result", self_test.empty() ? "ok" : self_test).print();
    if (workload == "table1_power") {
      result = e2e::run_table1(args, e2e::Recipe::kPower);
    } else if (workload == "table1_delay") {
      result = e2e::run_table1(args, e2e::Recipe::kDelay);
    } else {
      result = e2e::run_serve_mix(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  if (!self_test.empty()) result.fail(self_test);
  if (result.attempted == 0) result.fail("no operation was attempted");
  result.set("ok_share", result.attempted == 0
                             ? 0.0
                             : static_cast<double>(result.attempted - result.failed) /
                                   static_cast<double>(result.attempted));
  for (const std::string& why : result.errors)
    std::fprintf(stderr, "e2ebench: FAILED %s\n", why.c_str());
  const auto& metrics = args.trace ? kPerLayer : kEndToEnd;
  for (const e2e::MetricSpec& metric : metrics)
    if (result.values.count(metric.name) == 0 &&
        std::string(metric.name).rfind("serve.", 0) != 0) {
      std::fprintf(stderr, "e2ebench: metric %s was not measured\n", metric.name);
      return 1;
    }
  e2e::print_result(result, metrics);
  return 0;
}
