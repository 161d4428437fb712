#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>

namespace mpch::bench {

namespace {

double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1000.0 + static_cast<double>(tv.tv_usec) / 1000.0;
}

double usage_ms(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_ms() { return usage_ms(RUSAGE_SELF) + usage_ms(RUSAGE_CHILDREN); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // The sample with exactly ten samples above it; with fewer than eleven
  // samples no percentile qualifies and the maximum stands in.
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = values[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

TimedLoop::TimedLoop(double seconds, std::size_t min_runs)
    : start_ms_(now_ms()), seconds_(seconds), min_runs_(min_runs) {}

bool TimedLoop::more() const {
  return now_ms() - start_ms_ < seconds_ * 1000.0 || latencies_ms_.size() < min_runs_;
}

void TimedLoop::record(double latency_ms, bool ok) {
  latencies_ms_.push_back(latency_ms);
  ++attempted_;
  if (!ok) ++failed_;
}

double TimedLoop::runs_per_s() const {
  return wall_ms_ > 0 ? 1000.0 * static_cast<double>(attempted_ - failed_) / wall_ms_ : 0;
}

std::vector<Metric> end_to_end_metrics(const TimedLoop& loop, double setup_s) {
  const Tail t = tail(loop.latencies_ms());
  const double runs = static_cast<double>(std::max<std::uint64_t>(loop.attempted(), 1));
  std::cout << "run_ms_tail is p" << t.percentile << " of " << t.samples << " runs\n";
  return {
      {"runs_per_s", loop.runs_per_s(), "1/s"},
      {"run_ms_p50", median(loop.latencies_ms()), "ms"},
      {"run_ms_tail", t.value, "ms"},
      {"cpu_ms_per_run", loop.cpu_ms_total() / runs, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"setup_s", setup_s, "s"},
      {"verified_frac", static_cast<double>(loop.attempted() - loop.failed()) / runs, "frac"},
  };
}

void print_result(const Outcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace mpch::bench
