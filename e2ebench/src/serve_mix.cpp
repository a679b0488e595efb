// serve_mix: the rdcsynd serving path under a mixed cold/warm load.
//
// An in-process serve::Server listens on a unix socket with its result
// cache on. cpu_count() client threads run a closed loop through
// serve::submit_job — each waits for its reply before sending the next,
// as rdcsyn_client callers do. Requests follow one seeded sequence over a
// pool of distinct mid-size specs (fresh draws of the n = 8..10 Table-1
// signatures) x the three canonical policies:
//
//   * a fresh request takes the next job of a seeded permutation of the
//     pool, cycling; the cache holds about a third of the pool, so by the
//     time a job comes round again it has been evicted and runs cold;
//   * a repeat (probability kRepeatShare) re-sends one of the recent
//     fresh jobs, which the cache still holds unless that job is still
//     running on another connection.
//
// Set-up generates the pool, runs every job in-process to precompute the
// expected report values (checked by the independent oracle) and starts
// the server. Every reply's gates, area, delay, power and error rate must
// equal the precomputed values; shed and error replies count as failed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "common/thread_pool.hpp"
#include "flow/pipeline.hpp"
#include "flows.hpp"
#include "obs/json.hpp"
#include "pla/pla_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "specs.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

/// Pool draws per signature. ex1010 (the slowest cold run) carries a
/// quarter of the pool so the latency percentiles sit inside a group of
/// similar jobs rather than on the step between two.
const std::vector<PoolEntry> kPool = {{"exp", 6},   {"p3", 6},   {"p1", 6},
                                      {"exam", 6},  {"test4", 6}, {"ex1010", 10}};
/// About half the requests repeat. Not exactly half: with hits and misses
/// even, the median would sit on the step between a 0.1 ms hit and a cold
/// run and jump between them from run to run.
constexpr double kRepeatShare = 0.45;
/// A repeat re-sends the fresh job this many fresh requests back,
/// uniformly in [kRepeatMinBack, kRepeatMaxBack).
constexpr std::size_t kRepeatMinBack = 4;
constexpr std::size_t kRepeatMaxBack = 16;
/// The cache is sized to hold this many reports.
constexpr std::size_t kCacheEntries = 40;
constexpr std::size_t kSequenceLength = std::size_t{1} << 18;

struct Policy {
  rdc::DcPolicy policy;
  const char* name;
};
constexpr Policy kPolicies[] = {{rdc::DcPolicy::kConventional, "conventional"},
                                {rdc::DcPolicy::kRankingFraction, "ranking"},
                                {rdc::DcPolicy::kLcfThreshold, "lcf"}};

struct Setup {
  std::vector<rdc::IncompleteSpec> parsed;  ///< the specs as the server sees them
  std::vector<FlowJob> jobs;                ///< spec-major, kPolicies order
  std::vector<rdc::serve::JobRequest> requests;
  Stream precompute;  ///< one untraced round of every job
  std::unique_ptr<rdc::serve::Server> server;
  double generate_ms = 0.0;
};

/// Builds everything the load needs and starts the server.
Setup set_up(const RunArgs& args, const std::string& socket_path,
             unsigned threads) {
  Setup setup;
  std::vector<std::string> pla;
  for (const GeneratedSpec& g : generate_pool(args.seed, kPool)) {
    setup.generate_ms += g.generate_ms;
    std::ostringstream out;
    rdc::write_pla(g.spec, out);
    pla.push_back(out.str());
    setup.parsed.push_back(rdc::parse_pla_string(pla.back(), g.spec.name()));
  }
  const rdc::FlowOptions options;  // the server's base options
  for (std::size_t s = 0; s < setup.parsed.size(); ++s) {
    for (const Policy& p : kPolicies) {
      setup.jobs.push_back({&setup.parsed[s], p.policy, options, p.name});
      rdc::serve::JobRequest request;
      request.spec_pla = pla[s];
      request.pipeline = rdc::flow::canonical_flow_spec(p.policy, options);
      setup.requests.push_back(std::move(request));
    }
  }
  setup.precompute = run_stream(setup.jobs, {});

  std::size_t report_bytes = 0;
  for (const FlowRun& run : setup.precompute.runs) report_bytes += run.report_bytes;
  rdc::serve::ServerOptions server;
  server.socket_path = socket_path;
  server.executor_threads = static_cast<int>(threads);
  server.cache_max_bytes =
      kCacheEntries * (report_bytes / setup.jobs.size() +
                       rdc::serve::ResultCache::kEntryOverheadBytes);
  unlink(socket_path.c_str());
  setup.server = std::make_unique<rdc::serve::Server>(server);
  if (rdc::exec::Status status = setup.server->start(); !status.ok())
    throw rdc::exec::StatusError(status);
  rdc::serve::ClientOptions client;
  client.socket_path = socket_path;
  if (rdc::exec::Status status = rdc::serve::ping_server(client, 10000.0);
      !status.ok())
    throw rdc::exec::StatusError(status);
  return setup;
}

struct Request {
  std::uint32_t job = 0;
  bool repeat = false;
};

/// The seeded request sequence (see the file comment).
std::vector<Request> make_sequence(std::uint64_t seed, std::size_t jobs) {
  std::mt19937_64 rng(seed ^ 0x73657276655f6d69ull);
  std::vector<std::uint32_t> order(jobs);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> back(kRepeatMinBack,
                                                  kRepeatMaxBack - 1);
  std::vector<Request> sequence;
  std::vector<std::uint32_t> fresh;
  sequence.reserve(kSequenceLength);
  while (sequence.size() < kSequenceLength) {
    if (fresh.size() >= kRepeatMaxBack && coin(rng) < kRepeatShare) {
      sequence.push_back({fresh[fresh.size() - back(rng)], true});
    } else {
      fresh.push_back(order[fresh.size() % jobs]);
      sequence.push_back({fresh.back(), false});
    }
  }
  return sequence;
}

/// Empty when `json` reports exactly `expected`.
std::string check_reply(const std::string& json, const Outcome& expected) {
  std::string error;
  const std::optional<rdc::obs::JsonValue> doc = rdc::obs::parse_json(json, &error);
  if (!doc) return "unparsable report: " + error;
  const rdc::obs::JsonValue* metrics = doc->find("metrics");
  const auto number = [&](const char* key) {
    const rdc::obs::JsonValue* v = metrics ? metrics->find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->number : -1.0;
  };
  const Outcome got{static_cast<std::size_t>(number("gates")), number("area"),
                    number("delay_ps"), number("power_uw"), number("error_rate")};
  if (!(got == expected)) return "reply differs from the in-process result";
  return {};
}

struct Sample {
  double ms = 0.0;
  bool hit = false;
};

}  // namespace

Result run_serve_mix(const RunArgs& args) {
  Result result;
  const unsigned threads = rdc::ThreadPool::global().num_threads();
  const std::string socket_path =
      "e2ebench-" + std::to_string(getpid()) + ".sock";

  Setup setup;
  std::vector<double> setup_ms, generate_ms, busy, tail, precompute_flow_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (setup.server) setup.server->drain(0);
    const Clock::time_point start = Clock::now();
    setup = set_up(args, socket_path, threads);
    setup_ms.push_back(ms_since(start));
    generate_ms.push_back(setup.generate_ms);
    busy.push_back(setup.precompute.busy_share(threads));
    tail.push_back(setup.precompute.tail_ms());
    precompute_flow_ms.push_back(setup.precompute.flow_ms_per_round());
  }
  result.set("setup_s", median(setup_ms) / 1000.0);
  result.set("synthetic.generate_ms", median(generate_ms));
  result.set("common.pool_busy_share", median(busy));
  result.set("common.pool_tail_ms", median(tail));

  const std::vector<Outcome> expected =
      verify_stream(setup.jobs, setup.precompute, result);
  set_qor_metrics(expected, result);
  std::vector<double> gain;
  for (std::size_t i = 0; i + 2 < expected.size(); i += 3)
    for (std::size_t k = 1; k <= 2; ++k)
      if (expected[i].error_rate > 0.0)
        gain.push_back(100.0 * (expected[i].error_rate - expected[i + k].error_rate) /
                       expected[i].error_rate);
  result.set("reliability_gain_pct", mean(gain));

  // The closed loop.
  const std::vector<Request> sequence = make_sequence(args.seed, setup.jobs.size());
  const rdc::serve::ServeStats stats_before = setup.server->stats();
  const rdc::serve::ResultCache::Stats cache_before = setup.server->cache().stats();
  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards the three below
  std::vector<Sample> samples;
  std::vector<std::string> errors;
  std::size_t issued_repeats = 0;
  const Clock::time_point start = Clock::now();
  const auto client = [&] {
    rdc::serve::ClientOptions options;
    options.socket_path = socket_path;
    for (;;) {
      const double elapsed = ms_since(start);
      const std::size_t i = next.fetch_add(1);
      if (i >= sequence.size() || elapsed >= kMaxMeasureSeconds * 1000.0 ||
          (elapsed >= args.seconds * 1000.0 && i >= kMinSamples))
        return;
      const Request request = sequence[i];
      const Clock::time_point sent = Clock::now();
      const rdc::serve::SubmitResult reply =
          rdc::serve::submit_job(options, setup.requests[request.job]);
      const double ms = ms_since(sent);
      std::string why = reply.status.ok()
                            ? check_reply(reply.report_json, expected[request.job])
                            : reply.status.to_string();
      std::lock_guard<std::mutex> lock(mutex);
      samples.push_back({ms, reply.cache_hit});
      if (request.repeat) ++issued_repeats;
      if (!why.empty()) errors.push_back(label(setup.jobs[request.job]) + ": " + why);
    }
  };
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < threads; ++t) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  const double load_ms = ms_since(start);
  const rdc::serve::ServeStats stats_after = setup.server->stats();
  const rdc::serve::ResultCache::Stats cache_after = setup.server->cache().stats();
  setup.server->drain(0);
  setup.server.reset();
  unlink(socket_path.c_str());

  result.attempted += samples.size();
  result.failed += errors.size();
  for (std::string& why : errors) result.fail(std::move(why));
  std::vector<double> all, hits, misses;
  for (const Sample& s : samples) {
    all.push_back(s.ms);
    (s.hit ? hits : misses).push_back(s.ms);
  }
  result.set("latency_ms_p50", quantile(all, 0.5));
  result.set("latency_ms_p90", quantile(all, 0.9));
  result.set("throughput_per_s", static_cast<double>(samples.size()) / (load_ms / 1000.0));

  const double cache_hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double cache_misses = static_cast<double>(cache_after.misses - cache_before.misses);
  const double repeat_share =
      samples.empty() ? 0.0 : static_cast<double>(issued_repeats) / samples.size();
  const double hit_ratio =
      cache_hits + cache_misses > 0 ? cache_hits / (cache_hits + cache_misses) : 0.0;
  result.set("serve.hit_ms_p50", median(hits));
  result.set("serve.miss_ms_p50", median(misses));
  result.set("serve.cache_hit_ratio", hit_ratio);
  result.set("serve.repeat_share", repeat_share);
  result.set("serve.cache_evictions",
             static_cast<double>(cache_after.evictions - cache_before.evictions));
  result.set("serve.shed", static_cast<double>(stats_after.shed - stats_before.shed));
  Row("serve")
      .add("requests", static_cast<double>(samples.size()))
      .add("distinct_jobs", static_cast<double>(setup.jobs.size()))
      .add("repeat_share", repeat_share)
      .add("cache_hit_ratio", hit_ratio)
      .add("hits", static_cast<double>(hits.size()))
      .add("misses", static_cast<double>(misses.size()))
      .add("hit_ms_p50", median(hits))
      .add("miss_ms_p50", median(misses))
      .add("cache_evictions", static_cast<double>(cache_after.evictions - cache_before.evictions))
      .add("shed", static_cast<double>(stats_after.shed - stats_before.shed))
      .add("completed", static_cast<double>(stats_after.completed - stats_before.completed))
      .print();

  std::vector<TracedFlow> traced;
  if (args.trace) {
    traced = run_traced(setup.jobs, expected, result);
    set_traced_layer_metrics(traced, median(precompute_flow_ms), result);
  }
  std::vector<double> precompute_ms(setup.jobs.size());
  for (const FlowRun& run : setup.precompute.runs) precompute_ms[run.job] = run.latency_ms;
  print_flow_rows(setup.jobs, expected, precompute_ms,
                  traced.empty() ? nullptr : &traced);
  result.set("peak_rss_mb", peak_rss_mb());
  return result;
}

}  // namespace e2e
