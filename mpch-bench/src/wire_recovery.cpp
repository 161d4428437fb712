// wire-recovery — fault::ChaosHarness::run_restart over the socket transport
// (default router process count), checkpointing every 2 rounds, one crash
// per execution. A run recovers eight executions in turn, alternating the
// chatty ram-emulation scenario with the bulky pointer-chasing one; keeping
// both in every run makes run latency unimodal, so its median and tail are
// stable. It uses
// the same layers as chains the other way round: checkpoints write the
// execution state, the restore reads it back and re-derives the oracle
// memo, and every message crosses a process boundary, while strategy code is
// a small share.
//
// ChaosHarness hides its transport, so the traced pass runs the same jobs
// through bench::traced_restart (MpcSimulation with a checkpointing
// RoundObserver, then resume).
#include <vector>

#include "fault/recovery.hpp"
#include "layers.hpp"
#include "serve/scenario.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mpch::bench {

namespace {

constexpr std::uint64_t kCheckpointEvery = 2;

struct Job {
  std::string strategy;
  std::uint64_t seed = 0;
  fault::FaultPlan plan;
  Artifacts reference;  ///< the fault-free run
};

serve::Scenario socket_scenario(const Job& job, LayerClock* clock) {
  Span span(clock != nullptr ? &clock->scenario_ms : nullptr);
  serve::Scenario sc = serve::make_scenario(job.strategy, job.seed, 0);
  sc.config.transport = transport::TransportKind::kSocket;
  return sc;
}

/// A fault-free socket run, then a crash plan that lands after the first
/// checkpoint and before the last round.
Job make_job(const std::string& strategy, util::Rng& rng) {
  Job job;
  job.strategy = strategy;
  job.seed = 1 + rng.next_u64() % 1000000;
  const serve::Scenario sc = socket_scenario(job, nullptr);
  job.reference.oracle = sc.make_oracle();
  Execution exec(sc.config, job.reference.oracle, nullptr);
  job.reference.run = exec.run(*sc.algo, sc.initial);
  const std::uint64_t rounds = job.reference.run.rounds_used;
  if (rounds < 5) {
    throw std::runtime_error(strategy + " finished in too few rounds to crash mid-run");
  }
  const std::uint64_t round = 2 + rng.next_u64() % (rounds - 3);
  job.plan = fault::FaultPlan::parse("crash:machine=" + std::to_string(rng.next_u64() % 4) +
                                     ",round=" + std::to_string(round));
  return job;
}

Artifacts run_untraced(const Job& job) {
  const serve::Scenario sc = socket_scenario(job, nullptr);
  fault::ChaosHarness harness(sc.config, [&sc] { return sc.make_oracle(); });
  fault::ChaosResult r = harness.run_restart(*sc.algo, sc.initial, job.plan, kCheckpointEvery);
  return {std::move(r.run), std::move(r.oracle), r.cost.recoveries};
}

Artifacts run_traced(const Job& job, LayerClock* clock) {
  return traced_restart(socket_scenario(job, clock), job.plan, kCheckpointEvery, clock);
}

/// The crash fired, was recovered from once, and the recovered run is
/// bit-identical to the fault-free one.
bool recovered_ok(const Job& job, const Artifacts& r) {
  return r.recoveries == 1 && identical(job.reference, r.run, r.oracle.get());
}

/// One run: every job recovered in turn, traced when `clock` is set.
std::vector<Artifacts> run_all(const std::vector<Job>& jobs, LayerClock* clock) {
  std::vector<Artifacts> out;
  for (const Job& job : jobs) {
    out.push_back(clock != nullptr ? run_traced(job, clock) : run_untraced(job));
  }
  return out;
}

bool recovered_ok(const std::vector<Job>& jobs, const std::optional<std::vector<Artifacts>>& r) {
  if (!r.has_value()) return false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!recovered_ok(jobs[i], (*r)[i])) return false;
  }
  return true;
}

}  // namespace

Outcome run_wire_recovery(const Options& options) {
  const std::uint64_t job_count = options.tiny ? 2 : 8;
  std::vector<Job> jobs;
  Outcome out;

  const double setup_s = repeated_setup_s(setup_repeats(options), [&] {
    util::Rng rng(options.seed);
    jobs.clear();
    for (std::uint64_t i = 0; i < job_count; ++i) {
      jobs.push_back(make_job(i % 2 == 0 ? "ram-emulation" : "pointer-chasing", rng));
    }
    if (!recovered_ok(jobs, run_all(jobs, nullptr))) out.correct = false;  // warm-up run
  });

  TimedLoop plain(options.trace ? options.seconds / 2 : options.seconds, kMinRuns);
  while (plain.more()) {
    double ms = 0;
    const auto r = plain.attempt("wire-recovery", &ms, [&] { return run_all(jobs, nullptr); });
    plain.record(ms, recovered_ok(jobs, r));
  }
  out.attempted = plain.attempted();
  out.failed = plain.failed();

  if (!options.trace) {
    out.metrics = end_to_end_metrics(plain, setup_s);
  } else {
    // Both passes are checked against the same fault-free references, so a
    // traced run that passes is bit-identical to the untraced pass.
    LayerClock clock;
    TimedLoop traced(options.seconds / 2, 1);
    while (traced.more()) {
      double ms = 0;
      const auto r = traced.attempt("wire-recovery", &ms, [&] { return run_all(jobs, &clock); });
      if (r.has_value()) {
        for (const Artifacts& a : *r) clock.count(a.run);
      }
      traced.record(ms, recovered_ok(jobs, r));
    }
    out.attempted += traced.attempted();
    out.failed += traced.failed();
    print_overhead(plain.runs_per_s(), traced.runs_per_s());
    out.metrics = layer_metrics(clock, traced, jobs.size(), {});
  }
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace mpch::bench
