// rdcsynd — the synthesis serving daemon (DESIGN.md §15).
//
// Listens on a unix domain socket for framed (spec bytes, pipeline spec)
// jobs, runs them on a bounded executor pool under per-request
// ExecBudgets, and replies with rdc.flow.report.v1 JSON. Repeated
// requests hit the content-addressed result cache; overload past the
// admission queue (or the RSS cap) is shed with RESOURCE_EXHAUSTED;
// malformed frames and slow clients get Status replies and a connection
// close, never a crash. SIGINT/SIGTERM drains gracefully: stop
// accepting, finish or cancel in-flight work, flush the final metrics
// snapshot, emit a serve.drain event, exit 0.
//
//   rdcsynd --socket /tmp/rdcsynd.sock [options]
//
// Telemetry: RDC_METRICS=<path>[:interval_ms] exposes the serve.*
// counters and gauges (queue depth, inflight, connections, cache bytes);
// RDC_EVENTS logs the serve.drain record.
#include <cstdio>
#include <string>

#include "common/parse_number.hpp"
#include "exec/shutdown.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

using namespace rdc;

int usage() {
  std::printf(
      "usage: rdcsynd --socket <path> [options]\n"
      "\n"
      "Serves synthesis jobs over a unix domain socket. Submit with\n"
      "rdcsyn_client.\n"
      "\n"
      "options:\n"
      "  --socket <path>       unix socket to listen on (required)\n"
      "  --threads <n>         executor threads; default 2\n"
      "  --queue <n>           admission queue depth; requests past it are\n"
      "                        shed with RESOURCE_EXHAUSTED; default 64\n"
      "  --max-rss-mb <mb>     shed new work while process RSS exceeds\n"
      "                        this; default off\n"
      "  --deadline-ms <ms>    per-request budget when the request has\n"
      "                        none; default off\n"
      "  --io-timeout-ms <ms>  per-connection read/write deadline\n"
      "                        (slow-loris defense); default 5000\n"
      "  --drain-ms <ms>       how long a drain lets in-flight work finish\n"
      "                        before cancelling it; default 5000\n"
      "  --cache-mb <mb>       result cache byte cap; default 64\n"
      "  --max-frame-mb <mb>   frame body size cap; default 16\n"
      "\n"
      "exit codes:\n"
      "  0  clean drain after SIGINT/SIGTERM\n"
      "  1  startup or hard error (bad socket path, bind failure)\n"
      "  2  usage / invalid arguments\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  double max_rss_mb = 0.0, cache_mb = 64.0, max_frame_mb = 16.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto number = [&](auto& slot) {
      const char* v = next();
      if (v != nullptr && parse_number(v, slot)) return true;
      std::fprintf(stderr, "rdcsynd: bad value for %s\n", a.c_str());
      return false;
    };
    const char* v = nullptr;
    if (a == "--socket" && (v = next()) != nullptr) {
      options.socket_path = v;
    } else if (a == "--threads") {
      if (!number(options.executor_threads)) return usage();
    } else if (a == "--queue") {
      if (!number(options.max_queue_depth)) return usage();
    } else if (a == "--max-rss-mb") {
      if (!number(max_rss_mb)) return usage();
    } else if (a == "--deadline-ms") {
      if (!number(options.default_deadline_ms)) return usage();
    } else if (a == "--io-timeout-ms") {
      if (!number(options.io_timeout_ms)) return usage();
    } else if (a == "--drain-ms") {
      if (!number(options.drain_deadline_ms)) return usage();
    } else if (a == "--cache-mb") {
      if (!number(cache_mb)) return usage();
    } else if (a == "--max-frame-mb") {
      if (!number(max_frame_mb)) return usage();
    } else {
      std::fprintf(stderr, "rdcsynd: unknown argument %s\n", a.c_str());
      return usage();
    }
  }
  if (options.socket_path.empty() || options.executor_threads < 1 ||
      options.io_timeout_ms < 0 || options.drain_deadline_ms < 0 ||
      options.default_deadline_ms < 0 || max_rss_mb < 0 || cache_mb < 0 ||
      max_frame_mb <= 0)
    return usage();
  options.max_rss_bytes =
      static_cast<std::uint64_t>(max_rss_mb * 1024.0 * 1024.0);
  options.cache_max_bytes =
      static_cast<std::uint64_t>(cache_mb * 1024.0 * 1024.0);
  options.max_frame_bytes =
      static_cast<std::size_t>(max_frame_mb * 1024.0 * 1024.0);

  // The daemon owns the shutdown: the drain sequence (not the metrics
  // snapshotter's re-raise path) decides the exit code.
  exec::install_shutdown_handlers();
  exec::claim_shutdown_ownership();
  obs::metrics_init_from_env();

  serve::Server server(std::move(options));
  if (exec::Status status = server.start(); !status.ok()) {
    std::fprintf(stderr, "rdcsynd: %s\n", status.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "rdcsynd: listening on %s (%d executors)\n",
               server.options().socket_path.c_str(),
               server.options().executor_threads);
  server.run_until_shutdown();
  const serve::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "rdcsynd: drained (signal %d): %llu accepted, %llu shed, "
               "%llu completed, %llu cancelled\n",
               exec::shutdown_signal(),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.cancelled));
  obs::stop_metrics_snapshotter();
  return 0;
}
