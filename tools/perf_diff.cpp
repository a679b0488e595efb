// CI perf-regression gate: compares two rdc.bench.report.v1 files and
// fails when any matched benchmark row got slower than the noise
// threshold allows. scripts/check.sh runs an identity diff (same file
// twice at --threshold 0) as a self-check and a synthetic regressed
// fixture that must fail.
//
// Usage: rdc_perf_diff <baseline.json> <candidate.json> [--threshold PCT]
// Exit:  0 no regression, 1 regression found, 2 unusable input/usage.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/parse_number.hpp"
#include "obs/perf_diff.hpp"

namespace {

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <candidate.json> [--threshold PCT]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* candidate_path = nullptr;
  rdc::obs::PerfDiffOptions options;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0) {
      if (i + 1 >= argc) return usage(argv[0]);
      if (!rdc::parse_number(argv[++i], options.threshold_pct) ||
          options.threshold_pct < 0.0) {
        std::fprintf(stderr, "rdc_perf_diff: bad threshold '%s'\n", argv[i]);
        return 2;
      }
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (candidate_path == nullptr) {
      candidate_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (baseline_path == nullptr || candidate_path == nullptr)
    return usage(argv[0]);

  std::string baseline_json, candidate_json;
  if (!read_file(baseline_path, baseline_json)) {
    std::fprintf(stderr, "rdc_perf_diff: cannot read %s\n", baseline_path);
    return 2;
  }
  if (!read_file(candidate_path, candidate_json)) {
    std::fprintf(stderr, "rdc_perf_diff: cannot read %s\n", candidate_path);
    return 2;
  }

  const rdc::obs::PerfDiffResult result =
      rdc::obs::diff_reports(baseline_json, candidate_json, options);
  const std::string table = rdc::obs::format_perf_diff(result, options);
  std::fputs(table.c_str(), result.parse_ok ? stdout : stderr);
  if (!result.parse_ok) return 2;
  return result.has_regression() ? 1 : 0;
}
