// rdcsyn_client — client for the rdcsynd serving daemon (DESIGN.md §15).
//
//   rdcsyn_client ping  --socket <path> [--wait-ms N]
//   rdcsyn_client run   <circuit.pla> --socket <path> --pipeline "<spec>"
//                       [--deadline-ms N] [--retries N] [--json out.json]
//   rdcsyn_client bench --socket <path> <a.pla> <b.pla> ...
//                       [--requests N] [--concurrency N] [--pipeline "<spec>"]
//                       [--deadline-ms N] [--no-cache] [--json BENCH.json]
//
// `run` submits one job and prints (or writes) the rdc.flow.report.v1
// reply; transient failures — transport errors, RESOURCE_EXHAUSTED load
// shedding — retry with the supervisor's deterministic jittered backoff
// (exec::outcome_is_transient decides what retries, the same predicate
// the batch drivers use). `bench` is the load generator: N requests
// over C connections round-robin across the given circuits, reporting
// p50/p99 latency, req/s, shed rate and cache hit rate as an
// rdc.bench.report.v1 document (the checked-in BENCH_serve.json recipe).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse_number.hpp"
#include "obs/report.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"

namespace {

using namespace rdc;

constexpr const char* kDefaultPipeline =
    "assign:ranking(0.5) | espresso | factor | aig | map:power | analyze | "
    "error_rate";

int usage() {
  std::printf(
      "usage: rdcsyn_client <command> [options]\n"
      "\n"
      "commands:\n"
      "  ping  --socket <path> [--wait-ms N]\n"
      "        readiness probe; retries connect until the daemon answers\n"
      "        or N ms elapse (default 5000)\n"
      "  run   <circuit.pla> --socket <path> [--pipeline \"<spec>\"]\n"
      "        [--deadline-ms N] [--retries N] [--json <out>]\n"
      "        submit one job; transient failures (transport, shedding)\n"
      "        retry with jittered exponential backoff (default 3\n"
      "        attempts)\n"
      "  bench --socket <path> <a.pla> ... [--requests N]\n"
      "        [--concurrency N] [--pipeline \"<spec>\"] [--deadline-ms N]\n"
      "        [--no-cache] [--retries N] [--json <out>]\n"
      "        load generator: N requests (default 200) over C\n"
      "        connections (default 4) round-robin across the circuits;\n"
      "        emits an rdc.bench.report.v1 document with p50/p99\n"
      "        latency, req/s, shed rate, cache hit rate\n"
      "\n"
      "exit codes:\n"
      "  0  success (bench: at least one request succeeded)\n"
      "  1  transport failure / no successful request\n"
      "  2  usage / invalid arguments\n"
      "  3  the daemon replied with an error status\n");
  return 2;
}

struct Args {
  std::string command;
  std::vector<std::string> inputs;
  std::string socket;
  std::string pipeline = kDefaultPipeline;
  std::string json;
  double wait_ms = 5000.0;
  std::uint32_t deadline_ms = 0;
  int retries = 0;  // 0 = command default
  long requests = 200;
  long concurrency = 4;
  bool no_cache = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto number = [&](auto& slot) {
      const char* v = next();
      if (v != nullptr && parse_number(v, slot)) return true;
      std::fprintf(stderr, "rdcsyn_client: bad value for %s\n", a.c_str());
      return false;
    };
    const char* v = nullptr;
    if (a == "--socket" && (v = next()) != nullptr) {
      args.socket = v;
    } else if (a == "--pipeline" && (v = next()) != nullptr) {
      args.pipeline = v;
    } else if (a == "--json" && (v = next()) != nullptr) {
      args.json = v;
    } else if (a == "--wait-ms") {
      if (!number(args.wait_ms)) return false;
    } else if (a == "--deadline-ms") {
      if (!number(args.deadline_ms)) return false;
    } else if (a == "--retries") {
      if (!number(args.retries)) return false;
    } else if (a == "--requests") {
      if (!number(args.requests)) return false;
    } else if (a == "--concurrency") {
      if (!number(args.concurrency)) return false;
    } else if (a == "--no-cache") {
      args.no_cache = true;
    } else if (!a.empty() && a[0] != '-') {
      args.inputs.push_back(a);
    } else {
      std::fprintf(stderr, "rdcsyn_client: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (args.socket.empty()) {
    std::fprintf(stderr, "rdcsyn_client: --socket is required\n");
    return false;
  }
  return args.wait_ms >= 0 && args.retries >= 0 && args.requests > 0 &&
         args.concurrency > 0;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Circuit name for report rows: the basename without extension.
std::string circuit_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path
                                                : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.resize(dot);
  return name;
}

serve::ClientOptions client_options(const Args& args, int default_attempts) {
  serve::ClientOptions options;
  options.socket_path = args.socket;
  options.retry.max_attempts =
      args.retries > 0 ? args.retries : default_attempts;
  options.retry.base_backoff_ms = 20.0;
  return options;
}

int cmd_ping(const Args& args) {
  serve::ClientOptions options = client_options(args, 1);
  const exec::Status status = serve::ping_server(options, args.wait_ms);
  if (!status.ok()) {
    std::fprintf(stderr, "rdcsyn_client: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("rdcsynd at %s is ready\n", args.socket.c_str());
  return 0;
}

int cmd_run(const Args& args) {
  if (args.inputs.size() != 1) {
    std::fprintf(stderr, "run: exactly one circuit file expected\n");
    return 2;
  }
  serve::JobRequest request;
  if (!read_file(args.inputs[0], request.spec_pla)) {
    std::fprintf(stderr, "rdcsyn_client: cannot read %s\n",
                 args.inputs[0].c_str());
    return 1;
  }
  request.pipeline = args.pipeline;
  request.deadline_ms = args.deadline_ms;
  request.no_cache = args.no_cache;

  serve::ClientOptions options = client_options(args, 3);
  options.retry_key =
      serve::result_cache_key(request.spec_pla, request.pipeline, 0);
  const serve::SubmitResult result = serve::submit_job(options, request);
  if (!result.status.ok()) {
    std::fprintf(stderr, "rdcsyn_client: %s (after %d attempt%s)\n",
                 result.status.to_string().c_str(), result.attempts,
                 result.attempts == 1 ? "" : "s");
    return result.transport_error ? 1 : 3;
  }
  if (!args.json.empty()) {
    std::ofstream out(args.json, std::ios::binary);
    if (!out || !(out << result.report_json << '\n')) {
      std::fprintf(stderr, "rdcsyn_client: cannot write %s\n",
                   args.json.c_str());
      return 1;
    }
    std::printf("wrote %s (%s)\n", args.json.c_str(),
                result.cache_hit ? "cache hit" : "cold run");
  } else {
    std::printf("%s\n", result.report_json.c_str());
  }
  return 0;
}

// --- bench (load generator) ------------------------------------------------

struct Sample {
  std::size_t circuit = 0;
  double latency_ms = 0.0;
  bool ok = false;
  bool shed = false;
  bool cache_hit = false;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

int cmd_bench(const Args& args) {
  if (args.inputs.empty()) {
    std::fprintf(stderr, "bench: at least one circuit file expected\n");
    return 2;
  }
  std::vector<serve::JobRequest> requests(args.inputs.size());
  std::vector<std::string> names(args.inputs.size());
  for (std::size_t i = 0; i < args.inputs.size(); ++i) {
    if (!read_file(args.inputs[i], requests[i].spec_pla)) {
      std::fprintf(stderr, "rdcsyn_client: cannot read %s\n",
                   args.inputs[i].c_str());
      return 1;
    }
    requests[i].pipeline = args.pipeline;
    requests[i].deadline_ms = args.deadline_ms;
    requests[i].no_cache = args.no_cache;
    names[i] = circuit_name(args.inputs[i]);
  }

  obs::RunReport report("serve_load");
  const long total = args.requests;
  std::vector<Sample> samples(static_cast<std::size_t>(total));
  std::atomic<long> next{0};
  const auto now_ms = [] {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count()) /
           1000.0;
  };
  // Saturation semantics: a shed reply is a *data point*, not a failure
  // to retry — retrying would hide the overload behavior this tool
  // exists to measure. --retries overrides for liveness tests.
  serve::ClientOptions options = client_options(args, 1);
  const double start = now_ms();
  std::vector<std::thread> workers;
  const long concurrency = std::min<long>(args.concurrency, total);
  workers.reserve(static_cast<std::size_t>(concurrency));
  for (long w = 0; w < concurrency; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const long index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= total) return;
        const auto circuit =
            static_cast<std::size_t>(index) % requests.size();
        serve::ClientOptions attempt = options;
        attempt.retry_key = static_cast<std::uint64_t>(index);
        Sample& sample = samples[static_cast<std::size_t>(index)];
        sample.circuit = circuit;
        const double begin = now_ms();
        const serve::SubmitResult result =
            serve::submit_job(attempt, requests[circuit]);
        sample.latency_ms = now_ms() - begin;
        sample.ok = result.status.ok();
        sample.shed =
            result.status.code() == exec::StatusCode::kResourceExhausted;
        sample.cache_hit = result.cache_hit;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_ms = now_ms() - start;

  std::uint64_t ok = 0, shed = 0, errors = 0, cache_hits = 0;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const Sample& sample : samples) {
    if (sample.ok) {
      ++ok;
      if (sample.cache_hit) ++cache_hits;
    } else if (sample.shed) {
      ++shed;
    } else {
      ++errors;
    }
    latencies.push_back(sample.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  const double req_per_s =
      wall_ms > 0 ? static_cast<double>(total) / (wall_ms / 1000.0) : 0.0;

  obs::Record& meta = report.meta();
  meta.set("pipeline", args.pipeline);
  meta.set("requests", static_cast<std::uint64_t>(total));
  meta.set("concurrency", static_cast<std::uint64_t>(concurrency));
  meta.set("no_cache", args.no_cache);
  meta.set("ok", ok);
  meta.set("shed", shed);
  meta.set("errors", errors);
  meta.set("cache_hits", cache_hits);
  meta.set("cache_hit_rate",
           ok > 0 ? static_cast<double>(cache_hits) /
                        static_cast<double>(ok)
                  : 0.0);
  meta.set("shed_rate",
           static_cast<double>(shed) / static_cast<double>(total));
  meta.set("p50_ms", percentile(latencies, 0.50));
  meta.set("p99_ms", percentile(latencies, 0.99));
  meta.set("req_per_s", req_per_s);

  for (std::size_t c = 0; c < requests.size(); ++c) {
    std::vector<double> circuit_latencies;
    std::uint64_t c_ok = 0, c_shed = 0, c_errors = 0, c_hits = 0;
    for (const Sample& sample : samples) {
      if (sample.circuit != c) continue;
      circuit_latencies.push_back(sample.latency_ms);
      if (sample.ok) {
        ++c_ok;
        if (sample.cache_hit) ++c_hits;
      } else if (sample.shed) {
        ++c_shed;
      } else {
        ++c_errors;
      }
    }
    std::sort(circuit_latencies.begin(), circuit_latencies.end());
    obs::Record& row = report.add_row();
    row.set("name", names[c]);
    row.set("requests",
            static_cast<std::uint64_t>(circuit_latencies.size()));
    row.set("ok", c_ok);
    row.set("shed", c_shed);
    row.set("errors", c_errors);
    row.set("cache_hits", c_hits);
    row.set("p50_ms", percentile(circuit_latencies, 0.50));
    row.set("p99_ms", percentile(circuit_latencies, 0.99));
  }

  std::printf(
      "%ld requests, concurrency %ld: %llu ok (%llu cache hits), %llu "
      "shed, %llu errors | p50 %.2f ms, p99 %.2f ms, %.1f req/s\n",
      total, concurrency, static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(errors), percentile(latencies, 0.50),
      percentile(latencies, 0.99), req_per_s);
  if (!args.json.empty()) {
    if (!report.write_file(args.json)) return 1;
    std::printf("wrote %s\n", args.json.c_str());
  }
  return ok > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  if (args.command == "ping") return cmd_ping(args);
  if (args.command == "run") return cmd_run(args);
  if (args.command == "bench") return cmd_bench(args);
  std::fprintf(stderr, "rdcsyn_client: unknown command %s\n",
               args.command.c_str());
  return usage();
}
