// CI helper: validates that a JSON file parses (with the same minimal
// parser the test suite uses) and contains the given top-level keys.
// Dotted paths descend into nested objects ("meta.threshold"). Used by
// scripts/check.sh to smoke-test the --json bench reports and the
// RDC_TRACE Chrome trace output without requiring python.
//
// Documents with a recognized top-level "schema" tag are additionally
// held to that schema's required keys (rdc.bench.report.v1,
// rdc.flow.report.v1, rdc.metrics.v1), so a report that drifts fails CI
// even when the caller forgot to list the keys explicitly.
//
// --events switches to JSONL mode for rdc.events.v1 logs: every line
// must parse, carry the schema tag and a non-empty event name, and the
// seq numbers must be strictly increasing (the written contract that
// seq == physical line order). Known event kinds (job.spawn, job.crash,
// retry.attempt, batch.resume, process.shutdown) are additionally
// key-checked against their documented fields.
//
// --journal switches to JSONL mode for rdc.journal.v1 files: schema tag,
// non-empty 16-hex job key, known state, strictly increasing seq,
// status on terminal states — and the resume audit: at most one terminal
// record per job (a duplicate means a job ran twice).
//
// Usage: rdc_json_check <file> [key ...]
//        rdc_json_check --events <file>
//        rdc_json_check --journal <file>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

const rdc::obs::JsonValue* lookup(const rdc::obs::JsonValue& doc,
                                  const std::string& path) {
  const rdc::obs::JsonValue* node = &doc;
  std::size_t begin = 0;
  while (node != nullptr && begin <= path.size()) {
    const std::size_t dot = path.find('.', begin);
    const std::string key = path.substr(
        begin, dot == std::string::npos ? std::string::npos : dot - begin);
    node = node->find(key);
    if (dot == std::string::npos) break;
    begin = dot + 1;
  }
  return node;
}

/// Required top-level keys per known schema tag; nullptr-terminated.
const char* const* schema_required_keys(const std::string& schema) {
  static const char* const kBench[] = {"suite",   "generator", "git_rev",
                                       "date",    "threads",   "compiler",
                                       "wall_ms", "rows",      "counters",
                                       nullptr};
  static const char* const kFlow[] = {"total_ms", "phases", "metrics",
                                      nullptr};
  static const char* const kMetrics[] = {"seq",      "ts",
                                         "uptime_ms", "gauges",
                                         "counters",  "histograms", nullptr};
  if (schema == "rdc.bench.report.v1") return kBench;
  if (schema == "rdc.flow.report.v1") return kFlow;
  if (schema == "rdc.metrics.v1") return kMetrics;
  return nullptr;
}

/// Required fields per known event kind; nullptr-terminated. Unknown
/// kinds are fine (the taxonomy grows), known kinds must not drift.
const char* const* event_required_keys(const std::string& event) {
  static const char* const kSpawn[] = {"job", "name", "attempt", "pid",
                                       nullptr};
  static const char* const kCrash[] = {"job", "name", "attempt", "signal",
                                       nullptr};
  static const char* const kRetry[] = {"job", "name", "attempt",
                                       "backoff_ms", nullptr};
  static const char* const kResume[] = {"journal", "resumed", nullptr};
  static const char* const kShutdown[] = {"signal", nullptr};
  static const char* const kDrain[] = {"signal",    "accepted", "shed",
                                       "completed", "cache_hits", nullptr};
  if (event == "job.spawn") return kSpawn;
  if (event == "job.crash") return kCrash;
  if (event == "retry.attempt") return kRetry;
  if (event == "batch.resume") return kResume;
  if (event == "process.shutdown") return kShutdown;
  if (event == "serve.drain") return kDrain;
  return nullptr;
}

int check_journal(const char* path) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "rdc_json_check: cannot read %s\n", path);
    return 1;
  }
  int failures = 0;
  std::size_t line_no = 0;
  double last_seq = 0.0;
  std::map<std::string, int> terminal_per_job;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    ++line_no;

    std::string error;
    const auto doc = rdc::obs::parse_json(line, &error);
    if (!doc) {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: parse error: %s\n", path,
                   line_no, error.c_str());
      ++failures;
      continue;
    }
    const rdc::obs::JsonValue* schema = doc->find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string != "rdc.journal.v1") {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: bad or missing schema\n",
                   path, line_no);
      ++failures;
    }
    const rdc::obs::JsonValue* seq = doc->find("seq");
    if (seq == nullptr || !seq->is_number()) {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: missing seq\n", path,
                   line_no);
      ++failures;
    } else {
      if (seq->number <= last_seq) {
        std::fprintf(stderr,
                     "rdc_json_check: %s:%zu: seq %.0f not increasing "
                     "(previous %.0f)\n",
                     path, line_no, seq->number, last_seq);
        ++failures;
      }
      last_seq = seq->number;
    }
    const rdc::obs::JsonValue* job = doc->find("job");
    std::string job_key;
    if (job == nullptr || !job->is_string() || job->string.empty()) {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: missing job key\n", path,
                   line_no);
      ++failures;
    } else {
      job_key = job->string;
    }
    const rdc::obs::JsonValue* state = doc->find("state");
    if (state == nullptr || !state->is_string() ||
        (state->string != "pending" && state->string != "running" &&
         state->string != "done" && state->string != "failed")) {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: bad or missing state\n",
                   path, line_no);
      ++failures;
      continue;
    }
    const bool terminal =
        state->string == "done" || state->string == "failed";
    if (terminal) {
      const rdc::obs::JsonValue* status = doc->find("status");
      if (status == nullptr || !status->is_string() ||
          status->string.empty()) {
        std::fprintf(stderr,
                     "rdc_json_check: %s:%zu: terminal record without "
                     "status\n",
                     path, line_no);
        ++failures;
      }
      if (!job_key.empty() && ++terminal_per_job[job_key] > 1) {
        // The resume audit: one terminal record per job, ever — a second
        // one means a finished job was re-executed.
        std::fprintf(stderr,
                     "rdc_json_check: %s:%zu: job %s reached a terminal "
                     "state twice\n",
                     path, line_no, job_key.c_str());
        ++failures;
      }
    }
  }
  if (line_no == 0) {
    std::fprintf(stderr, "rdc_json_check: %s: no journal lines\n", path);
    return 1;
  }
  if (failures > 0) return 1;
  std::printf("rdc_json_check: %s ok (%zu journal line%s, %zu terminal)\n",
              path, line_no, line_no == 1 ? "" : "s",
              terminal_per_job.size());
  return 0;
}

int check_events(const char* path) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "rdc_json_check: cannot read %s\n", path);
    return 1;
  }
  int failures = 0;
  std::size_t line_no = 0;
  double last_seq = 0.0;  // seq starts at 1, so 0 is below every valid value
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    ++line_no;

    std::string error;
    const auto doc = rdc::obs::parse_json(line, &error);
    if (!doc) {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: parse error: %s\n", path,
                   line_no, error.c_str());
      ++failures;
      continue;
    }
    const rdc::obs::JsonValue* schema = doc->find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string != "rdc.events.v1") {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: bad or missing schema\n",
                   path, line_no);
      ++failures;
    }
    const rdc::obs::JsonValue* event = doc->find("event");
    if (event == nullptr || !event->is_string() || event->string.empty()) {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: missing event name\n",
                   path, line_no);
      ++failures;
    } else if (const char* const* required =
                   event_required_keys(event->string)) {
      for (; *required != nullptr; ++required) {
        if (doc->find(*required) == nullptr) {
          std::fprintf(stderr,
                       "rdc_json_check: %s:%zu: event %s requires key "
                       "'%s'\n",
                       path, line_no, event->string.c_str(), *required);
          ++failures;
        }
      }
    }
    const rdc::obs::JsonValue* seq = doc->find("seq");
    if (seq == nullptr || !seq->is_number()) {
      std::fprintf(stderr, "rdc_json_check: %s:%zu: missing seq\n", path,
                   line_no);
      ++failures;
    } else {
      if (seq->number <= last_seq) {
        std::fprintf(stderr,
                     "rdc_json_check: %s:%zu: seq %.0f not increasing "
                     "(previous %.0f)\n",
                     path, line_no, seq->number, last_seq);
        ++failures;
      }
      last_seq = seq->number;
    }
    for (const char* required : {"ts_ns", "tid"}) {
      const rdc::obs::JsonValue* field = doc->find(required);
      if (field == nullptr || !field->is_number()) {
        std::fprintf(stderr, "rdc_json_check: %s:%zu: missing %s\n", path,
                     line_no, required);
        ++failures;
      }
    }
  }
  if (line_no == 0) {
    std::fprintf(stderr, "rdc_json_check: %s: no event lines\n", path);
    return 1;
  }
  if (failures > 0) return 1;
  std::printf("rdc_json_check: %s ok (%zu event line%s)\n", path, line_no,
              line_no == 1 ? "" : "s");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--events") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s --events <file>\n", argv[0]);
      return 2;
    }
    return check_events(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--journal") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s --journal <file>\n", argv[0]);
      return 2;
    }
    return check_journal(argv[2]);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file> [key ...]\n"
                 "       %s --events <file>\n"
                 "       %s --journal <file>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  std::string text;
  if (!read_file(argv[1], text)) {
    std::fprintf(stderr, "rdc_json_check: cannot read %s\n", argv[1]);
    return 1;
  }

  std::string error;
  const auto doc = rdc::obs::parse_json(text, &error);
  if (!doc) {
    std::fprintf(stderr, "rdc_json_check: %s: parse error: %s\n", argv[1],
                 error.c_str());
    return 1;
  }

  int missing = 0;
  int checked = 0;

  // Schema-tagged documents get their required keys enforced even when
  // the caller listed none.
  if (const rdc::obs::JsonValue* schema = doc->find("schema");
      schema != nullptr && schema->is_string()) {
    if (const char* const* required = schema_required_keys(schema->string)) {
      for (; *required != nullptr; ++required, ++checked) {
        if (doc->find(*required) == nullptr) {
          std::fprintf(stderr,
                       "rdc_json_check: %s: schema %s requires key '%s'\n",
                       argv[1], schema->string.c_str(), *required);
          ++missing;
        }
      }
    }
  }

  // rdc.flow.report.v1: the optional metrics.fault_model stamp must name a
  // registered model ("bitflip", "bitflip(2)", "bitflip_weighted(1,0.5)",
  // "stuckat") — a report carrying a corrupted or unknown label fails CI.
  if (const rdc::obs::JsonValue* schema = doc->find("schema");
      schema != nullptr && schema->is_string() &&
      schema->string == "rdc.flow.report.v1") {
    if (const rdc::obs::JsonValue* model =
            lookup(*doc, "metrics.fault_model")) {
      ++checked;
      const std::string label = model->is_string() ? model->string : "";
      const std::string name = label.substr(0, label.find('('));
      if (name != "bitflip" && name != "bitflip_weighted" &&
          name != "stuckat") {
        std::fprintf(stderr,
                     "rdc_json_check: %s: metrics.fault_model '%s' is not a "
                     "known fault model\n",
                     argv[1], label.c_str());
        ++missing;
      }
    }
  }

  for (int i = 2; i < argc; ++i, ++checked) {
    const std::string path = argv[i];
    if (lookup(*doc, path) == nullptr) {
      std::fprintf(stderr, "rdc_json_check: %s: missing key '%s'\n", argv[1],
                   path.c_str());
      ++missing;
    }
  }
  if (missing > 0) return 1;
  std::printf("rdc_json_check: %s ok (%d key%s checked)\n", argv[1], checked,
              checked == 1 ? "" : "s");
  return 0;
}
