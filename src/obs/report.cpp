#include "obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "common/thread_pool.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace rdc::obs {

// --- Record --------------------------------------------------------------

Record::Field& Record::slot(std::string key) {
  for (Field& field : fields_)
    if (field.key == key) return field;
  fields_.push_back({});
  fields_.back().key = std::move(key);
  return fields_.back();
}

void Record::set(std::string key, std::string value) {
  Field& field = slot(std::move(key));
  field.kind = Field::Kind::kString;
  field.string = std::move(value);
}

void Record::set(std::string key, double value) {
  Field& field = slot(std::move(key));
  field.kind = Field::Kind::kDouble;
  field.number = value;
}

void Record::set(std::string key, bool value) {
  Field& field = slot(std::move(key));
  field.kind = Field::Kind::kBool;
  field.boolean = value;
}

void Record::set_int(std::string key, std::int64_t value) {
  Field& field = slot(std::move(key));
  field.kind = Field::Kind::kInt;
  field.int_value = value;
}

void Record::set_uint(std::string key, std::uint64_t value) {
  Field& field = slot(std::move(key));
  field.kind = Field::Kind::kUint;
  field.uint_value = value;
}

void Record::set_raw(std::string key, std::string json_text) {
  Field& field = slot(std::move(key));
  field.kind = Field::Kind::kRaw;
  field.string = std::move(json_text);
}

void Record::merge(const Record& other) {
  for (const Field& field : other.fields_) slot(field.key) = field;
}

void Record::write(JsonWriter& w) const {
  w.begin_object();
  write_fields(w);
  w.end_object();
}

void Record::write_fields(JsonWriter& w) const {
  for (const Field& field : fields_) {
    w.key(field.key);
    switch (field.kind) {
      case Field::Kind::kString: w.value(field.string); break;
      case Field::Kind::kDouble: w.value(field.number); break;
      case Field::Kind::kInt: w.value(field.int_value); break;
      case Field::Kind::kUint: w.value(field.uint_value); break;
      case Field::Kind::kBool: w.value(field.boolean); break;
      case Field::Kind::kRaw: w.raw(field.string); break;
    }
  }
}

// --- FlowReport ----------------------------------------------------------

double FlowReport::total_ms() const {
  double total = 0.0;
  for (const Phase& phase : phases) total += phase.wall_ms;
  return total;
}

PerfCounts FlowReport::perf_total() const {
  PerfCounts total;
  for (const Phase& phase : phases) total += phase.perf;
  return total;
}

const FlowReport::Phase* FlowReport::find_phase(std::string_view name) const {
  for (const Phase& phase : phases)
    if (name == phase.name) return &phase;
  return nullptr;
}

std::string FlowReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("rdc.flow.report.v1");
  w.key("total_ms").value(total_ms());
  w.key("phases").begin_array();
  for (const Phase& phase : phases) {
    w.begin_object();
    w.key("name").value(phase.name);
    w.key("wall_ms").value(phase.wall_ms);
    // Hardware counters only when RDC_PERF produced them — a perf-off run
    // (every existing golden) serializes byte-identically to before.
    if (phase.perf.valid) {
      w.key("cycles").value(phase.perf.cycles);
      w.key("instructions").value(phase.perf.instructions);
      w.key("ipc").value(phase.perf.ipc());
    }
    w.end_object();
  }
  w.end_array();
  if (const PerfCounts total = perf_total(); total.valid) {
    w.key("perf").begin_object();
    w.key("cycles").value(total.cycles);
    w.key("instructions").value(total.instructions);
    w.key("llc_misses").value(total.llc_misses);
    w.key("branch_misses").value(total.branch_misses);
    w.key("ipc").value(total.ipc());
    w.key("llc_miss_per_kinst").value(total.llc_miss_per_kinst());
    w.key("branch_miss_per_kinst").value(total.branch_miss_per_kinst());
    w.end_object();
  }
  w.key("metrics");
  metrics.write(w);
  w.end_object();
  return w.str();
}

// --- RunReport -----------------------------------------------------------

RunReport::RunReport(std::string suite)
    : suite_(std::move(suite)), start_ns_(trace_now_ns()) {}

Record& RunReport::add_row() {
  rows_.push_back({});
  return rows_.back();
}

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("rdc.bench.report.v1");
  w.key("suite").value(suite_);
  w.key("generator").value("rdcsyn");
  w.key("git_rev").value(git_revision());
  w.key("date").value(iso8601_utc_now());
  w.key("threads").value(std::uint64_t{ThreadPool::global().num_threads()});
  w.key("compiler").value(compiler_id());
  // Host context: a perf snapshot is only comparable to another taken on
  // similar hardware, so the header names the CPU and core count the run
  // actually used (rdc_perf_diff users eyeball these before trusting a
  // regression verdict).
  w.key("cpu").value(host_cpu_model());
  w.key("cores").value(std::uint64_t{host_core_count()});
  w.key("wall_ms").value(static_cast<double>(trace_now_ns() - start_ns_) /
                         1e6);
  if (!meta_.empty()) {
    w.key("meta");
    meta_.write(w);
  }
  w.key("rows").begin_array();
  for (const Record& row : rows_) row.write(w);
  w.end_array();
  // Deterministic work counters only — scheduling-dependent values would
  // break the byte-identical-across-RDC_THREADS property of the document
  // body that the bench artifacts rely on.
  w.key("counters").begin_object();
  for (unsigned i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (!counter_is_deterministic(c)) continue;
    w.key(counter_name(c)).value(counter_total(c));
  }
  w.end_object();
  w.end_object();
  return w.str();
}

bool RunReport::write_file(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[rdc::obs] cannot write report to %s\n",
                 path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
  return true;
}

// --- metadata ------------------------------------------------------------

std::string git_revision() {
  if (const char* env = std::getenv("RDC_GIT_REV");
      env != nullptr && *env != '\0')
    return env;
#ifdef RDCSYN_GIT_REV
  if (RDCSYN_GIT_REV[0] != '\0') return RDCSYN_GIT_REV;
#endif
  return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_cpu_model() {
  if (const char* env = std::getenv("RDC_CPU_MODEL");
      env != nullptr && *env != '\0')
    return env;
#if defined(__linux__)
  std::FILE* cpuinfo = std::fopen("/proc/cpuinfo", "r");
  if (cpuinfo != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, cpuinfo) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) continue;
      std::string model = colon + 1;
      while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
        model.erase(model.begin());
      while (!model.empty() &&
             (model.back() == '\n' || model.back() == ' '))
        model.pop_back();
      std::fclose(cpuinfo);
      if (!model.empty()) return model;
      break;
    }
    std::fclose(cpuinfo);
  }
#endif
  return "unknown";
}

unsigned host_core_count() { return std::thread::hardware_concurrency(); }

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

}  // namespace rdc::obs
