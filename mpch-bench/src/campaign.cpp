// campaign — a generated jobfile through serve::ServeService::run_jobs on
// min(nproc, 4) workers: many short jobs, so per-job fixed costs (scenario
// construction, admission), pool scaling, and the shared oracle memo and
// buffer arenas dominate instead of any one simulation.
//
// The jobfile covers all eight scenarios with simulate seed sweeps, a slice
// that re-runs seeds already swept (the same oracle families, so the shared
// memo can hit), a verify slice, and a small in-process chaos restart slice.
// Every job carries the smallest budget-bits its declared envelope fits, so
// admission runs on every job and admits it.
//
// ServeService::execute is private, so the reference and the traced pass run
// each job serially through the public calls it makes (serial_job below).
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "analysis/protocol_spec.hpp"
#include "analysis/spec_soundness.hpp"
#include "analysis/static_checker.hpp"
#include "layers.hpp"
#include "serve/job_spec.hpp"
#include "serve/scenario.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mpch::bench {

namespace {

std::uint64_t pool_workers() {
  return std::clamp<std::uint64_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// The smallest budget-bits admission accepts for `strategy`: the worst
/// round-start memory or delivery its declared envelope allows.
std::uint64_t fitting_budget(const std::string& strategy) {
  const serve::Scenario sc = serve::make_scenario(strategy, 1, 0);
  const analysis::ProtocolSpec spec =
      dynamic_cast<const analysis::ProtocolSpecProvider&>(*sc.algo).protocol_spec();
  std::uint64_t bits = std::max(spec.steady.memory_bits, spec.steady.recv_bits);
  for (const analysis::RoundEnvelope& e : spec.prologue) {
    bits = std::max({bits, e.memory_bits, e.recv_bits});
  }
  return bits;
}

/// The jobfile text for `seed`. Slice sizes are fixed; the seed picks the
/// scenario seeds and the crash points.
std::string make_jobfile(std::uint64_t seed, bool tiny) {
  util::Rng rng(seed);
  std::ostringstream jobs;
  auto line = [&](const std::string& verb, const std::string& strategy, std::uint64_t first_seed,
                  std::uint64_t repeat, const std::string& extra) {
    jobs << verb << " strategy=" << strategy << " seed=" << first_seed
         << " repeat=" << (tiny ? 1 : repeat) << " budget-bits=" << fitting_budget(strategy)
         << extra << "\n";
  };
  auto next_seed = [&rng] { return 1 + rng.next_u64() % 1000000; };

  std::map<std::string, std::uint64_t> swept;
  for (const std::string& strategy : serve::strategy_names()) {
    swept[strategy] = next_seed();
    line("simulate", strategy, swept[strategy], strategy == "batch-pointer-chasing" ? 24 : 80, "");
  }
  // Re-run seeds already swept: same oracle families, so the memo is shared.
  line("simulate", "pointer-chasing", swept["pointer-chasing"], 80, "");
  line("simulate", "speculative", swept["speculative"], 40, "");
  line("simulate", "pipelined-simline", swept["pipelined-simline"], 40, "");
  for (const char* strategy : {"pointer-chasing", "colluding", "ram-emulation"}) {
    line("verify", strategy, next_seed(), 24, "");
  }
  // Crash rounds stay below 40: both scenarios run for more than 60 rounds.
  for (const auto& [strategy, repeat] : {std::pair{"ram-emulation", 12}, {"pointer-chasing", 4}}) {
    const std::uint64_t first_seed = next_seed();
    const std::uint64_t machine = rng.next_u64() % 4;
    const std::uint64_t round = 2 + rng.next_u64() % 38;
    line("chaos", strategy, first_seed, repeat,
         " policy=restart every=2 plan=crash:machine=" + std::to_string(machine) +
             ",round=" + std::to_string(round));
  }
  return jobs.str();
}

serve::Scenario timed_scenario(const serve::JobSpec& spec, LayerClock* clock) {
  Span span(clock != nullptr ? &clock->scenario_ms : nullptr);
  serve::Scenario sc = serve::make_scenario(spec.strategy, spec.seed, spec.threads);
  sc.config.transport = spec.transport;
  sc.config.transport_processes = spec.transport_processes;
  return sc;
}

/// One job with the semantics of ServeService::execute — admission, then the
/// verb — through public calls only. Throws on rejection or a failed check.
Artifacts serial_job(const serve::JobSpec& spec, LayerClock* clock) {
  serve::Scenario sc = timed_scenario(spec, clock);
  analysis::ProtocolSpec declared;
  {
    Span span(clock != nullptr ? &clock->admission_ms : nullptr);
    auto* provider = dynamic_cast<analysis::ProtocolSpecProvider*>(sc.algo.get());
    if (provider == nullptr) throw std::runtime_error(spec.strategy + " declares no ProtocolSpec");
    declared = provider->protocol_spec();
    mpc::MpcConfig admission = sc.config;
    admission.local_memory_bits = spec.budget_bits;
    if (!analysis::check_spec(declared, admission).ok()) {
      throw std::runtime_error(spec.describe() + " rejected at admission");
    }
  }

  Artifacts out;
  out.oracle = sc.make_oracle();
  Execution exec(sc.config, out.oracle, clock);
  out.run = exec.run(*sc.algo, sc.initial);
  if (spec.verb == serve::JobVerb::kVerify &&
      !analysis::check_soundness(declared, out.run, sc.config).ok()) {
    throw std::runtime_error(spec.describe() + ": declared spec unsound against the run");
  }
  if (spec.verb == serve::JobVerb::kChaos) {
    const serve::Scenario chaos = timed_scenario(spec, clock);
    Artifacts recovered =
        traced_restart(chaos, fault::FaultPlan::parse(spec.plan), spec.every, clock);
    if (!identical(out, recovered.run, recovered.oracle.get())) {
      throw std::runtime_error(spec.describe() + ": recovered run differs from fault-free run");
    }
    out = std::move(recovered);
  }
  return out;
}

bool matches(const std::optional<Artifacts>& ref, const mpc::MpcRunResult& run,
             const hash::LazyRandomOracle* oracle) {
  return ref.has_value() && identical(*ref, run, oracle);
}

/// One run: the whole jobfile through a fresh pool (a fresh shared memo and
/// fresh arenas, as for one mpch-serve invocation). Every job is checked
/// against its serial reference; the run passes when all of them match.
struct PoolRun {
  bool ok = true;
  double busy_ms = 0;  ///< sum of job wall_ms
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};

PoolRun run_pool(std::uint64_t workers, const std::vector<serve::JobSpec>& jobs,
                 const std::vector<std::optional<Artifacts>>& refs, TimedLoop& loop) {
  serve::ServeOptions options;
  options.workers = workers;
  serve::ServeService service(options);
  double ms = 0;
  const std::optional<std::vector<serve::JobResult>> results =
      loop.attempt("campaign", &ms, [&] { return service.run_jobs(jobs); });
  PoolRun run;
  run.ok = results.has_value();
  for (std::size_t i = 0; run.ok && i < results->size(); ++i) {
    const serve::JobResult& r = (*results)[i];
    if (r.status != serve::JobStatus::kOk || !matches(refs[i], r.run, r.oracle.get())) {
      std::cerr << "campaign: job " << i << " (" << r.spec.describe() << ") failed: " << r.error
                << "\n";
      run.ok = false;
    }
    run.busy_ms += r.wall_ms;
  }
  run.memo_hits = service.stats().memo_hits;
  run.memo_misses = service.stats().memo_misses;
  loop.record(ms, run.ok);
  return run;
}

/// The whole jobfile, serially through serial_job (traced when `clock` is
/// set); true when every job ran and matched its reference.
bool serial_pass(const std::vector<serve::JobSpec>& jobs,
                 const std::vector<std::optional<Artifacts>>& refs, LayerClock* clock) {
  bool ok = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    try {
      const Artifacts r = serial_job(jobs[i], clock);
      if (clock != nullptr) clock->count(r.run);
      ok = matches(refs[i], r.run, r.oracle.get()) && ok;
    } catch (const std::exception& e) {
      std::cerr << "campaign: traced job " << i << " failed: " << e.what() << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

Outcome run_campaign(const Options& options) {
  const std::uint64_t workers = pool_workers();
  std::vector<serve::JobSpec> jobs;
  std::vector<std::optional<Artifacts>> refs;
  Outcome out;

  const double setup_s = repeated_setup_s(setup_repeats(options), [&] {
    jobs = serve::parse_jobfile(make_jobfile(options.seed, options.tiny));
    refs.assign(jobs.size(), std::nullopt);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      try {
        refs[i] = serial_job(jobs[i], nullptr);
      } catch (const std::exception& e) {
        std::cerr << "campaign: reference job " << i << " failed: " << e.what() << "\n";
        out.correct = false;
      }
    }
    TimedLoop warm(0, 1);
    if (!run_pool(workers, jobs, refs, warm).ok) out.correct = false;
  });
  std::cout << "campaign: a run is " << jobs.size() << " jobs on " << workers << " workers\n";

  if (!options.trace) {
    TimedLoop loop(options.seconds, kMinRuns);
    while (loop.more()) run_pool(workers, jobs, refs, loop);
    out.attempted = loop.attempted();
    out.failed = loop.failed();
    out.metrics = end_to_end_metrics(loop, setup_s);
  } else {
    // Quarters: the pool at N workers, the pool at 1 worker, and the serial
    // pass untraced and traced (their ratio is the tracing overhead).
    const double quarter = options.seconds / 4;
    TimedLoop pooled(quarter, kMinRuns);
    PoolRun totals;
    while (pooled.more()) {
      const PoolRun run = run_pool(workers, jobs, refs, pooled);
      totals.busy_ms += run.busy_ms;
      totals.memo_hits += run.memo_hits;
      totals.memo_misses += run.memo_misses;
    }
    TimedLoop single(quarter, kMinRuns);
    while (single.more()) run_pool(1, jobs, refs, single);

    LayerClock clock;
    auto serial = [&](LayerClock* c) {
      TimedLoop loop(quarter, 1);
      while (loop.more()) {
        double ms = 0;
        const std::optional<bool> ok =
            loop.attempt("campaign", &ms, [&] { return serial_pass(jobs, refs, c); });
        loop.record(ms, ok.value_or(false));
      }
      return loop;
    };
    TimedLoop untraced = serial(nullptr);
    TimedLoop traced = serial(&clock);
    for (const TimedLoop* loop : {&pooled, &single, &untraced, &traced}) {
      out.attempted += loop->attempted();
      out.failed += loop->failed();
    }

    ServeFigures serve;
    serve.pool_busy_frac = totals.busy_ms / (static_cast<double>(workers) * pooled.wall_ms());
    serve.scaling_eff =
        pooled.runs_per_s() / (static_cast<double>(workers) * single.runs_per_s());
    const std::uint64_t lookups = totals.memo_hits + totals.memo_misses;
    serve.memo_hit_frac =
        lookups > 0 ? static_cast<double>(totals.memo_hits) / static_cast<double>(lookups) : 0;
    std::cout << "untraced pool: " << pooled.runs_per_s() << " runs/s at " << workers
              << " workers, " << single.runs_per_s() << " runs/s at 1 worker\n";
    print_overhead(untraced.runs_per_s(), traced.runs_per_s());
    out.metrics = layer_metrics(clock, traced, jobs.size(), serve);
  }
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace mpch::bench
