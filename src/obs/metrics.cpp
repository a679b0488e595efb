#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/parse_number.hpp"
#include "exec/budget.hpp"
#include "exec/shutdown.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace rdc::obs {

namespace {

#if defined(__linux__)
rusage current_rusage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// Virtual memory size from /proc/self/statm (first field, in pages).
double current_vm_bytes() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  unsigned long long pages = 0;
  const int matched = std::fscanf(file, "%llu", &pages);
  std::fclose(file);
  if (matched != 1) return 0.0;
  static const long page_size = sysconf(_SC_PAGESIZE);
  return static_cast<double>(pages) * static_cast<double>(page_size);
}
#endif

}  // namespace

// --- Snapshot serialization ----------------------------------------------

std::string Snapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("rdc.metrics.v1");
  // Run-varying header — the "modulo timestamps" part of the determinism
  // contract. Everything after `uptime_ms` is a pure function of the
  // captured state.
  w.key("seq").value(seq);
  w.key("ts").value(ts);
  w.key("uptime_ms").value(uptime_ms);
  w.key("gauges").begin_object();
  for (const Gauge& gauge : gauges) {
    w.key(gauge.name).begin_object();
    w.key("value").value(gauge.value);
    if (!gauge.unit.empty()) w.key("unit").value(gauge.unit);
    if (!gauge.help.empty()) w.key("help").value(gauge.help);
    w.end_object();
  }
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.key(name).value(value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const Histogram& histo : histograms) {
    w.key(histo.name).begin_object();
    w.key("count").value(histo.data.count);
    w.key("sum").value(histo.data.sum);
    w.key("buckets").begin_array();
    for (const std::uint64_t bucket : histo.data.buckets) w.value(bucket);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string Snapshot::to_prometheus() const {
  // Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — map the snake.case
  // names by replacing '.' with '_' and prefixing the namespace.
  const auto prom_name = [](const std::string& name, const char* suffix) {
    std::string out = "rdc_";
    for (const char c : name) out.push_back(c == '.' ? '_' : c);
    out += suffix;
    return out;
  };

  std::string out;
  for (const Gauge& gauge : gauges) {
    const std::string name = prom_name(gauge.name, "");
    if (!gauge.help.empty())
      out += "# HELP " + name + " " + gauge.help + "\n";
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + format_double(gauge.value) + "\n";
  }
  for (const auto& [counter, value] : counters) {
    const std::string name = prom_name(counter, "_total");
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const Histogram& histo : histograms) {
    const std::string name = prom_name(histo.name, "");
    out += "# TYPE " + name + " histogram\n";
    // Power-of-two buckets: bucket b holds (2^(b-1), 2^b] with bucket 0
    // holding {0, 1} and the last bucket open-ended — so the cumulative
    // `le` bounds are 1, 2, 4, ..., 2^(kHistoBuckets-2), then +Inf.
    std::uint64_t cumulative = 0;
    for (unsigned b = 0; b + 1 < kHistoBuckets; ++b) {
      cumulative += histo.data.buckets[b];
      out += name + "_bucket{le=\"" + std::to_string(std::uint64_t{1} << b) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(histo.data.count) +
           "\n";
    out += name + "_sum " + std::to_string(histo.data.sum) + "\n";
    out += name + "_count " + std::to_string(histo.data.count) + "\n";
  }
  return out;
}

// --- MetricsRegistry ------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry;  // leaked: see obs
  return *instance;
}

MetricsRegistry::MetricsRegistry() {
  // Built-in process sampler: live resource gauges pulled at snapshot
  // time. All are cheap reads (/proc, getrusage) at snapshot cadence.
  register_gauge("process.rss_bytes", "resident set size", "bytes", [] {
    return static_cast<double>(exec::current_rss_bytes());
  });
#if defined(__linux__)
  register_gauge("process.vm_bytes", "virtual memory size", "bytes",
                 [] { return current_vm_bytes(); });
  register_gauge("process.cpu_user_seconds", "user CPU time consumed",
                 "seconds",
                 [] { return timeval_seconds(current_rusage().ru_utime); });
  register_gauge("process.cpu_system_seconds", "system CPU time consumed",
                 "seconds",
                 [] { return timeval_seconds(current_rusage().ru_stime); });
  register_gauge("process.minor_faults", "soft page faults", "count", [] {
    return static_cast<double>(current_rusage().ru_minflt);
  });
  register_gauge("process.major_faults", "hard page faults (I/O)", "count",
                 [] {
                   return static_cast<double>(current_rusage().ru_majflt);
                 });
  register_gauge("process.max_rss_bytes", "peak resident set size", "bytes",
                 [] {
                   // ru_maxrss is in KiB on Linux.
                   return static_cast<double>(current_rusage().ru_maxrss) *
                          1024.0;
                 });
#endif
}

void MetricsRegistry::register_gauge(std::string name, std::string help,
                                     std::string unit,
                                     std::function<double()> sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_)
    if (entry.name == name) {
      entry.help = std::move(help);
      entry.unit = std::move(unit);
      entry.sample = std::move(sample);
      return;
    }
  entries_.push_back(
      {std::move(name), std::move(help), std::move(unit), std::move(sample),
       0.0});
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_)
    if (entry.name == name) {
      entry.sample = nullptr;
      entry.value = value;
      return;
    }
  entries_.push_back({name, "", "", nullptr, value});
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.ts = iso8601_utc_now();
  snap.uptime_ms = static_cast<double>(trace_now_ns()) / 1e6;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.gauges.reserve(entries_.size());
    for (const Entry& entry : entries_)
      snap.gauges.push_back({entry.name, entry.help, entry.unit,
                             entry.sample ? entry.sample() : entry.value});
  }
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const Snapshot::Gauge& a, const Snapshot::Gauge& b) {
              return a.name < b.name;
            });
  snap.counters.reserve(kNumCounters);
  for (unsigned i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    snap.counters.emplace_back(counter_name(c), counter_total(c));
  }
  for (unsigned i = 0; i < kNumHistos; ++i) {
    const auto h = static_cast<Histo>(i);
    snap.histograms.push_back({histo_name(h), histo_total(h)});
  }
  return snap;
}

Snapshot metrics_snapshot() { return MetricsRegistry::global().snapshot(); }

// --- snapshotter ----------------------------------------------------------

namespace {

/// Background writer. Owns its thread; stop() is idempotent and writes the
/// final snapshot before joining, so the last document on disk is never
/// torn and never stale.
struct Snapshotter {
  std::mutex mutex;
  std::condition_variable cv;
  std::thread thread;
  std::string path;
  int interval_ms = 0;
  bool running = false;
  bool stop_requested = false;
  std::uint64_t seq = 0;
  /// Serializes concurrent writers (the loop thread vs. a drain-time
  /// flush_metrics_snapshot call): both share one tmp file and the seq
  /// counter, so the write must be atomic end to end.
  std::mutex write_mutex;

  void write_once() {
    std::lock_guard<std::mutex> io(write_mutex);
    Snapshot snap = metrics_snapshot();
    snap.seq = ++seq;
    write_snapshot_file(snap, path);
  }

  /// Unowned shutdown signal: this thread is the process's last poller,
  /// so it completes the orderly teardown — final snapshot, terminating
  /// event record, flushed sinks — then re-raises with the default
  /// disposition restored so the process still dies with 128+N.
  [[noreturn]] void finish_unowned_shutdown() {
    write_once();
    if (events_enabled()) {
      Record fields;
      fields.set("signal", exec::shutdown_signal());
      emit_event("process.shutdown", fields);
    }
    flush_events();
    exec::reraise_shutdown_signal();
    std::abort();  // unreachable: the re-raised signal terminates us
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stop_requested) {
      lock.unlock();
      write_once();
      lock.lock();
      // Chunked waits (≤100 ms) so a shutdown signal is noticed promptly
      // even with a long snapshot interval.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(interval_ms);
      while (!stop_requested) {
        if (exec::shutdown_requested() && !exec::shutdown_owned()) {
          lock.unlock();
          finish_unowned_shutdown();
        }
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        cv.wait_for(lock,
                    std::min<std::chrono::steady_clock::duration>(
                        deadline - now, std::chrono::milliseconds(100)),
                    [this] { return stop_requested; });
      }
    }
  }
};

/// One-way kill switch for forked workers; see metrics_disable().
std::atomic<bool> g_metrics_disabled{false};

Snapshotter& snapshotter() {
  static Snapshotter* instance = new Snapshotter;
  return *instance;
}

void stop_at_exit() { stop_metrics_snapshotter(); }

}  // namespace

bool write_snapshot_file(const Snapshot& snapshot, const std::string& path) {
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  const std::string body =
      prometheus ? snapshot.to_prometheus() : snapshot.to_json();
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[rdc::obs] cannot write metrics to %s\n",
                 tmp.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), file);
  if (!prometheus) std::fputc('\n', file);
  std::fclose(file);
  // Atomic replace: a concurrent reader sees either the previous complete
  // snapshot or this one, never a prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "[rdc::obs] cannot rename %s to %s\n", tmp.c_str(),
                 path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void start_metrics_snapshotter(const std::string& path, int interval_ms) {
  if (g_metrics_disabled.load(std::memory_order_relaxed)) return;
  stop_metrics_snapshotter();  // restart semantics
  set_counters_enabled(true);
  Snapshotter& s = snapshotter();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.path = path;
  s.interval_ms = interval_ms;
  s.stop_requested = false;
  s.running = true;
  if (interval_ms > 0) {
    // The snapshotter thread polls the shutdown flag, so it is a valid
    // poller to anchor the graceful SIGINT/SIGTERM path on.
    exec::install_shutdown_handlers();
    s.thread = std::thread([&s] { s.loop(); });
  }
}

void stop_metrics_snapshotter() {
  if (g_metrics_disabled.load(std::memory_order_relaxed)) return;
  Snapshotter& s = snapshotter();
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.running) return;
    s.stop_requested = true;
  }
  s.cv.notify_all();
  if (s.thread.joinable()) s.thread.join();
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.running = false;
  }
  // Final snapshot: flush whatever the last interval missed (and produce
  // the only snapshot when interval_ms == 0).
  s.write_once();
}

bool flush_metrics_snapshot() {
  if (g_metrics_disabled.load(std::memory_order_relaxed)) return false;
  Snapshotter& s = snapshotter();
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.running) return false;
  }
  // Synchronous: the snapshot is on disk (renamed into place) when this
  // returns, which is what a drain sequence needs before it reports done.
  s.write_once();
  return true;
}

void metrics_disable() {
  g_metrics_disabled.store(true, std::memory_order_relaxed);
}

void metrics_init_from_env() {
  // Checked before the once_flag on purpose: a forked worker inherits the
  // flag in whatever state the parent had it, possibly mid-call — the
  // plain atomic read cannot deadlock.
  if (g_metrics_disabled.load(std::memory_order_relaxed)) return;
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("RDC_METRICS");
    if (env == nullptr || *env == '\0') return;
    // RDC_METRICS=<path>[:interval_ms] — the suffix is an interval only
    // when everything after the last ':' is digits (paths may contain
    // colons).
    std::string spec = env;
    std::string path = spec;
    int interval_ms = 1000;
    const std::size_t colon = spec.rfind(':');
    if (colon != std::string::npos && colon + 1 < spec.size()) {
      const std::string suffix = spec.substr(colon + 1);
      if (std::all_of(suffix.begin(), suffix.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
          })) {
        path = spec.substr(0, colon);
        interval_ms = std::atoi(suffix.c_str());
      }
    }
    if (path.empty()) return;
    start_metrics_snapshotter(path, interval_ms);
    std::atexit(stop_at_exit);
  });
}

}  // namespace rdc::obs
