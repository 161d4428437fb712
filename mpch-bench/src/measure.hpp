// measure.hpp — timing, resource accounting and result reporting shared by
// the three workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

namespace mpch::bench {

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool tiny = false;  ///< smoke-test sizes: every workload shrinks its inputs
};

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

double now_ms();

/// User plus system CPU of this process and of every child it has reaped
/// (the socket transport's router processes), in milliseconds.
double cpu_ms();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

double median(std::vector<double> values);

/// The highest percentile that still has at least ten samples above it.
struct Tail {
  double value = 0;
  double percentile = 0;  ///< in percent
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// Run `setup` `repeats` times and return the median wall time in seconds.
/// The state the last call leaves behind is the one the workload measures.
template <typename Setup>
double repeated_setup_s(int repeats, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = now_ms();
    setup();
    seconds.push_back((now_ms() - t0) / 1000.0);
  }
  return median(seconds);
}

/// The timed region of a workload: a sequence of timed runs with untimed
/// output checks in between. Wall and CPU time accumulate only inside
/// attempt(); latency samples and pass/fail counts are recorded per run.
class TimedLoop {
 public:
  TimedLoop(double seconds, std::size_t min_runs);

  /// True while the measuring time is not used up, or fewer than
  /// `min_runs` runs were recorded (a tail needs at least eleven samples).
  bool more() const;

  /// Time one run. An exception counts as a failed run (reported on
  /// stderr) and yields nullopt. `*latency_ms` receives the run's wall time.
  template <typename F>
  auto attempt(const char* what, double* latency_ms, F&& run)
      -> std::optional<decltype(run())> {
    const double wall0 = now_ms();
    const double cpu0 = cpu_ms();
    std::optional<decltype(run())> result;
    try {
      result = run();
    } catch (const std::exception& e) {
      std::cerr << what << ": run failed: " << e.what() << "\n";
    }
    *latency_ms = now_ms() - wall0;
    wall_ms_ += *latency_ms;
    cpu_ms_ += cpu_ms() - cpu0;
    return result;
  }

  /// Record one run: its latency, and whether it completed and passed its
  /// output check.
  void record(double latency_ms, bool ok);

  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double wall_ms() const { return wall_ms_; }
  double cpu_ms_total() const { return cpu_ms_; }
  /// Verified runs per second of timed wall time.
  double runs_per_s() const;

 private:
  double start_ms_;
  double seconds_;
  std::size_t min_runs_;
  double wall_ms_ = 0;
  double cpu_ms_ = 0;
  std::vector<double> latencies_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The seven end-to-end metrics of one untraced loop, and a human-readable
/// summary line (which percentile the tail is, over how many samples) on
/// stdout.
std::vector<Metric> end_to_end_metrics(const TimedLoop& loop, double setup_s);

/// Print the result object as the last stdout line.
void print_result(const Outcome& outcome);

}  // namespace mpch::bench
