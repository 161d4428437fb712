// layers.hpp — per-layer timing taken from outside the program.
//
// The traced passes time calls into each layer's public interface, never
// code inside it:
//   * strategies — an mpc::MpcAlgorithm decorator around run_machine;
//   * hash       — a hash::RandomOracle decorator around the
//                  LazyRandomOracle (its queries run inside run_machine, so
//                  strategy self time is run_machine minus oracle time);
//   * transport  — a transport::Transport decorator installed through
//                  MpcSimulation::set_transport_factory;
//   * mpc        — MpcSimulation::run / resume, minus every child layer;
//   * fault      — fault::capture + serialize at checkpoints, and
//                  fault::deserialize + make_resume_state at restores;
//   * serve      — serve::make_scenario and analysis::check_spec.
// Everything accumulates into one LayerClock. Traced passes are serial, so
// the clock needs no locking.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "hash/random_oracle.hpp"
#include "measure.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"
#include "transport/transport.hpp"

namespace mpch::bench {

struct LayerClock {
  double strategy_ms = 0;  ///< inside run_machine, oracle queries included
  double oracle_ms = 0;
  double transport_ms = 0;        ///< stage, collect_staged, send, flush, receive
  double transport_start_ms = 0;  ///< start() (router fork) and teardown (router reap)
  double mpc_ms = 0;              ///< inside run / resume, every child included
  double checkpoint_ms = 0;       ///< capture + serialize
  double restore_ms = 0;          ///< deserialize + make_resume_state
  double scenario_ms = 0;         ///< serve::make_scenario
  double admission_ms = 0;        ///< declared spec + analysis::check_spec

  std::uint64_t strategy_calls = 0;
  std::uint64_t oracle_queries = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t comm_bits = 0;
  std::uint64_t checkpoint_bytes = 0;

  /// Add the exact counts of a finished run's RoundTrace.
  void count(const mpc::MpcRunResult& run);
};

/// Adds the wall time of its scope to one LayerClock field, also when the
/// scope is left by an exception (a fault aborting a run still spent it).
/// A null field makes it a no-op, for untraced passes.
class Span {
 public:
  explicit Span(double* total_ms)
      : total_ms_(total_ms), start_ms_(total_ms != nullptr ? now_ms() : 0) {}
  ~Span() {
    if (total_ms_ != nullptr) *total_ms_ += now_ms() - start_ms_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* total_ms_;
  double start_ms_;
};

class TimedOracle final : public hash::RandomOracle {
 public:
  TimedOracle(std::shared_ptr<hash::RandomOracle> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  util::BitString query(const util::BitString& input) override {
    Span span(&clock_->oracle_ms);
    ++clock_->oracle_queries;
    return inner_->query(input);
  }
  std::size_t input_bits() const override { return inner_->input_bits(); }
  std::size_t output_bits() const override { return inner_->output_bits(); }
  std::uint64_t total_queries() const override { return inner_->total_queries(); }

 private:
  std::shared_ptr<hash::RandomOracle> inner_;
  LayerClock* clock_;
};

class TimedAlgorithm final : public mpc::MpcAlgorithm {
 public:
  TimedAlgorithm(mpc::MpcAlgorithm& inner, LayerClock* clock) : inner_(inner), clock_(clock) {}

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override {
    Span span(&clock_->strategy_ms);
    ++clock_->strategy_calls;
    inner_.run_machine(io, oracle, tape, trace);
  }
  std::string name() const override { return inner_.name(); }

 private:
  mpc::MpcAlgorithm& inner_;
  LayerClock* clock_;
};

class TimedTransport final : public transport::Transport {
 public:
  TimedTransport(std::unique_ptr<transport::Transport> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  ~TimedTransport() override {
    Span span(&clock_->transport_start_ms);
    inner_.reset();
  }
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  std::string name() const override { return inner_->name(); }
  void start(std::uint64_t machines) override {
    Span span(&clock_->transport_start_ms);
    inner_->start(machines);
  }
  bool stage(std::uint64_t round, std::uint64_t machine,
             const std::vector<mpc::Message>& outbox) override {
    Span span(&clock_->transport_ms);
    return inner_->stage(round, machine, outbox);
  }
  std::vector<mpc::Message> collect_staged(std::uint64_t round, std::uint64_t machine) override {
    Span span(&clock_->transport_ms);
    return inner_->collect_staged(round, machine);
  }
  void send(std::uint64_t round, std::uint64_t from, std::vector<mpc::Message> outbox) override {
    Span span(&clock_->transport_ms);
    inner_->send(round, from, std::move(outbox));
  }
  void flush(std::uint64_t round) override {
    Span span(&clock_->transport_ms);
    inner_->flush(round);
  }
  std::vector<mpc::Message> receive(std::uint64_t round, std::uint64_t to) override {
    Span span(&clock_->transport_ms);
    return inner_->receive(round, to);
  }
  bool idle() const override { return inner_->idle(); }

 private:
  std::unique_ptr<transport::Transport> inner_;
  LayerClock* clock_;
};

/// One execution, traced or not: `clock == nullptr` runs the program exactly
/// as a user would (no decorators); otherwise every layer is wrapped.
class Execution {
 public:
  Execution(const mpc::MpcConfig& config, std::shared_ptr<hash::LazyRandomOracle> oracle,
            LayerClock* clock);

  mpc::MpcRunResult run(mpc::MpcAlgorithm& algo, const std::vector<util::BitString>& initial,
                        mpc::RoundObserver* observer = nullptr);
  mpc::MpcRunResult resume(mpc::MpcAlgorithm& algo, mpc::MpcResumeState state,
                           mpc::RoundObserver* observer);

 private:
  LayerClock* clock_;
  mpc::MpcSimulation sim_;
};

/// What serve::artifact_mismatches compares: a run and the oracle it queried.
struct Artifacts {
  mpc::MpcRunResult run;
  std::shared_ptr<hash::LazyRandomOracle> oracle;
  std::uint64_t recoveries = 0;  ///< checkpoint restores a recovery loop made
};

/// True when `run` and `oracle` are bit-identical to `ref` on every surface
/// serve::artifact_mismatches compares.
bool identical(const Artifacts& ref, const mpc::MpcRunResult& run,
               const hash::LazyRandomOracle* oracle);

/// The run_restart recovery loop (checkpoint every `every` rounds, restore
/// the latest one after a fault, resume on a fresh oracle) written against
/// the public MpcSimulation / fault API, so each layer can be timed. Its
/// artifacts are bit-identical to fault::ChaosHarness::run_restart for
/// plans without checkpoint-tamper events.
Artifacts traced_restart(const serve::Scenario& sc, const fault::FaultPlan& plan,
                             std::uint64_t every, LayerClock* clock);

/// Extra per-layer figures only the campaign workload measures.
struct ServeFigures {
  double pool_busy_frac = 0;
  double scaling_eff = 0;
  double memo_hit_frac = 0;
};

/// Every per-layer metric, per run of the traced loop (the serve.*_per_job
/// ones per job, with `jobs_per_run` jobs in a run), plus a human-readable
/// share-of-run-time line on stdout. Layers a workload does not enter read 0.
std::vector<Metric> layer_metrics(const LayerClock& clock, const TimedLoop& traced,
                                  std::uint64_t jobs_per_run, const ServeFigures& serve);

/// Print the tracing overhead: verified runs per second of the traced pass
/// against the untraced pass over the same inputs.
void print_overhead(double untraced_runs_per_s, double traced_runs_per_s);

}  // namespace mpch::bench
