#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace e2e {
namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  std::vector<double> log_weight(values.size());
  double top = -INFINITY;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = (static_cast<double>(i) + 0.5) / n;
    log_weight[i] = (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x);
    top = std::max(top, log_weight[i]);
  }
  double weighted = 0.0, total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double w = std::exp(log_weight[i] - top);
    weighted += w * values[i];
    total += w;
  }
  return weighted / total;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Row::Row(std::string kind) : text_("{\"row\": " + quoted(kind)) {}

Row& Row::add(const std::string& key, double value) {
  text_ += ", " + quoted(key) + ": " + number(value);
  return *this;
}

Row& Row::add(const std::string& key, const std::string& value) {
  text_ += ", " + quoted(key) + ": " + quoted(value);
  return *this;
}

void Row::print() const { std::printf("%s}\n", text_.c_str()); }

void Result::fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

void print_result(const Result& result, const std::vector<MetricSpec>& metrics) {
  std::string text = "{\"correct\": ";
  text += result.correct ? "true" : "false";
  text += ", \"attempted\": " + std::to_string(result.attempted);
  text += ", \"failed\": " + std::to_string(result.failed);
  text += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto it = result.values.find(metrics[i].name);
    if (i > 0) text += ", ";
    text += quoted(metrics[i].name) + ": {\"value\": " +
            number(it == result.values.end() ? 0.0 : it->second) +
            ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  text += "}}";
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

}  // namespace e2e
