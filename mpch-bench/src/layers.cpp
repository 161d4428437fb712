#include "layers.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "fault/recovery_core.hpp"

namespace mpch::bench {

namespace {

std::shared_ptr<hash::RandomOracle> wrap_oracle(std::shared_ptr<hash::LazyRandomOracle> oracle,
                                                LayerClock* clock) {
  if (clock == nullptr || oracle == nullptr) return oracle;
  return std::make_shared<TimedOracle>(std::move(oracle), clock);
}

/// The Checkpointer's snapshot step (capture + serialize every `every`
/// rounds, nothing once the run is over), timed as the fault layer.
class TimedCheckpointer final : public mpc::RoundObserver {
 public:
  TimedCheckpointer(const mpc::MpcConfig& config, std::uint64_t every, LayerClock* clock)
      : config_(config), every_(every), clock_(clock) {}

  void bind_oracle(const hash::LazyRandomOracle* oracle) { oracle_ = oracle; }

  void after_round(const mpc::RoundSnapshot& snapshot) override {
    if (snapshot.completed || !fault::snapshot_due(snapshot.round, every_)) return;
    Span span(clock_ != nullptr ? &clock_->checkpoint_ms : nullptr);
    latest_ = fault::serialize(fault::capture(snapshot, config_, oracle_));
    if (clock_ != nullptr) clock_->checkpoint_bytes += (latest_->size() + 7) / 8;
  }

  const std::optional<util::BitString>& latest() const { return latest_; }

 private:
  mpc::MpcConfig config_;
  std::uint64_t every_;
  LayerClock* clock_;
  const hash::LazyRandomOracle* oracle_ = nullptr;
  std::optional<util::BitString> latest_;
};

}  // namespace

void LayerClock::count(const mpc::MpcRunResult& run) {
  rounds += run.rounds_used;
  for (const mpc::RoundStats& r : run.trace.rounds()) {
    messages += r.messages;
    comm_bits += r.communicated_bits;
  }
}

Execution::Execution(const mpc::MpcConfig& config,
                     std::shared_ptr<hash::LazyRandomOracle> oracle, LayerClock* clock)
    : clock_(clock), sim_(config, wrap_oracle(std::move(oracle), clock)) {
  if (clock_ == nullptr) return;
  // The same backend selection MpcSimulation makes from its config, wrapped.
  sim_.set_transport_factory([config, clock] {
    transport::TransportOptions options;
    options.processes = config.transport_processes;
    return std::make_unique<TimedTransport>(transport::make_transport(config.transport, options),
                                            clock);
  });
}

mpc::MpcRunResult Execution::run(mpc::MpcAlgorithm& algo,
                                 const std::vector<util::BitString>& initial,
                                 mpc::RoundObserver* observer) {
  if (clock_ == nullptr) return sim_.run(algo, initial, observer);
  TimedAlgorithm timed(algo, clock_);
  Span span(&clock_->mpc_ms);
  return sim_.run(timed, initial, observer);
}

mpc::MpcRunResult Execution::resume(mpc::MpcAlgorithm& algo, mpc::MpcResumeState state,
                                    mpc::RoundObserver* observer) {
  if (clock_ == nullptr) return sim_.resume(algo, std::move(state), observer);
  TimedAlgorithm timed(algo, clock_);
  Span span(&clock_->mpc_ms);
  return sim_.resume(timed, std::move(state), observer);
}

bool identical(const Artifacts& ref, const mpc::MpcRunResult& run,
               const hash::LazyRandomOracle* oracle) {
  return serve::artifact_mismatches(ref.run, ref.oracle.get(), run, oracle).empty();
}

Artifacts traced_restart(const serve::Scenario& sc, const fault::FaultPlan& plan,
                         std::uint64_t every, LayerClock* clock) {
  Artifacts out;
  std::shared_ptr<hash::LazyRandomOracle> oracle = sc.make_oracle();
  fault::FaultInjector injector(plan, /*fail_stop=*/true);
  injector.bind_oracle(oracle.get());
  TimedCheckpointer checkpointer(sc.config, every, clock);
  checkpointer.bind_oracle(oracle.get());
  fault::ObserverChain chain({&injector, &checkpointer});

  std::optional<mpc::MpcResumeState> state;
  for (std::size_t attempt = 0; attempt <= plan.events.size(); ++attempt) {
    Execution exec(sc.config, oracle, clock);
    try {
      out.run = state.has_value() ? exec.resume(*sc.algo, std::move(*state), &chain)
                                  : exec.run(*sc.algo, sc.initial, &chain);
      out.oracle = std::move(oracle);
      return out;
    } catch (const fault::InjectedFault&) {
      if (!checkpointer.latest().has_value()) throw;
      Span span(clock != nullptr ? &clock->restore_ms : nullptr);
      const fault::Checkpoint cp = fault::deserialize(*checkpointer.latest());
      oracle = sc.make_oracle();
      state = fault::make_resume_state(cp, oracle.get());
      checkpointer.bind_oracle(oracle.get());
      injector.bind_oracle(oracle.get());
      ++out.recoveries;
    }
  }
  throw std::runtime_error("fault plan still firing after every recovery attempt");
}

std::vector<Metric> layer_metrics(const LayerClock& c, const TimedLoop& traced,
                                  std::uint64_t jobs_per_run, const ServeFigures& serve) {
  const double n = static_cast<double>(std::max<std::uint64_t>(traced.attempted(), 1));
  const double jobs = n * static_cast<double>(jobs_per_run);
  const double traced_run_ms = traced.wall_ms() / n;
  const double strategies_self = (c.strategy_ms - c.oracle_ms) / n;
  const double transport_ms = c.transport_ms / n;
  const double transport_start = c.transport_start_ms / n;
  const double checkpoint = c.checkpoint_ms / n;
  const double restore = c.restore_ms / n;
  // Run/resume spans contain the strategy, transport and checkpoint spans;
  // restores happen between attempts, outside them.
  const double mpc_self =
      (c.mpc_ms - c.strategy_ms - c.transport_ms - c.transport_start_ms - c.checkpoint_ms) / n;

  if (traced_run_ms > 0) {
    auto share = [traced_run_ms](double ms) { return 100.0 * ms / traced_run_ms; };
    std::cout << "traced run " << traced_run_ms << " ms: strategies " << share(strategies_self)
              << "%, hash " << share(c.oracle_ms / n) << "%, mpc " << share(mpc_self)
              << "%, transport+fault "
              << share(transport_ms + transport_start + checkpoint + restore) << "%, serve "
              << share((c.scenario_ms + c.admission_ms) / n) << "%\n";
  }
  return {
      {"strategies.self_ms_per_run", strategies_self, "ms"},
      {"strategies.calls_per_run", static_cast<double>(c.strategy_calls) / n, "count"},
      {"hash.query_ms_per_run", c.oracle_ms / n, "ms"},
      {"hash.queries_per_run", static_cast<double>(c.oracle_queries) / n, "count"},
      {"mpc.self_ms_per_run", mpc_self, "ms"},
      {"mpc.rounds_per_run", static_cast<double>(c.rounds) / n, "count"},
      {"mpc.messages_per_run", static_cast<double>(c.messages) / n, "count"},
      {"mpc.comm_bits_per_run", static_cast<double>(c.comm_bits) / n, "bits"},
      {"transport.ms_per_run", transport_ms, "ms"},
      {"transport.start_ms_per_run", transport_start, "ms"},
      {"fault.checkpoint_ms_per_run", checkpoint, "ms"},
      {"fault.restore_ms_per_run", restore, "ms"},
      {"fault.checkpoint_bytes_per_run", static_cast<double>(c.checkpoint_bytes) / n, "bytes"},
      {"serve.scenario_ms_per_job", c.scenario_ms / jobs, "ms"},
      {"serve.admission_ms_per_job", c.admission_ms / jobs, "ms"},
      {"serve.pool_busy_frac", serve.pool_busy_frac, "frac"},
      {"serve.scaling_eff", serve.scaling_eff, "frac"},
      {"serve.memo_hit_frac", serve.memo_hit_frac, "frac"},
  };
}

void print_overhead(double untraced_runs_per_s, double traced_runs_per_s) {
  std::cout << "tracing overhead: " << traced_runs_per_s << " runs/s traced vs "
            << untraced_runs_per_s << " runs/s untraced";
  if (untraced_runs_per_s > 0) {
    std::cout << " (" << 100.0 * (1.0 - traced_runs_per_s / untraced_runs_per_s) << "% slower)";
  }
  std::cout << "\n";
}

}  // namespace mpch::bench
