// chains — E17's throughput cell, run serially and in-process, repeated:
// one long simulation of k batched Line chains, the kind of run the
// paper's round bound is about. Nearly all of its time is strategy code
// (block parsing), so it is the workload a BitString or codec change moves.
#include <iostream>
#include <memory>

#include "core/line.hpp"
#include "layers.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mpch::bench {

namespace {

/// Distinct input sets, each with its own oracle seed; run i uses set i % 4.
constexpr std::uint64_t kInputSets = 4;

struct Cell {
  core::LineParams params;
  std::uint64_t chains = 0;    ///< k
  std::uint64_t machines = 0;  ///< m
};

Cell make_cell(bool tiny) {
  // E17's throughput cell: k=16 chains, m=8, n=64, u=16, v=8, w=1024.
  if (tiny) return {core::LineParams::make(64, 16, 8, 128), 4, 4};
  return {core::LineParams::make(64, 16, 8, 1024), 16, 8};
}

struct InputSet {
  std::uint64_t oracle_seed = 0;
  std::vector<core::LineInput> inputs;
  std::vector<util::BitString> expected;  ///< LineFunction::evaluate per chain
};

Artifacts run_once(const Cell& cell, const InputSet& set, LayerClock* clock) {
  Artifacts r;
  r.oracle = std::make_shared<hash::LazyRandomOracle>(cell.params.n, cell.params.n,
                                                      set.oracle_seed);
  strategies::BatchPointerChasingStrategy strat(
      cell.params, strategies::OwnershipPlan::round_robin(cell.params, cell.machines),
      cell.chains);
  mpc::MpcConfig config;
  config.machines = cell.machines;
  config.local_memory_bits = strat.required_local_memory();
  config.query_budget = 1 << 20;
  config.max_rounds = 100000;
  Execution exec(config, r.oracle, clock);
  r.run = exec.run(strat, strat.make_initial_memory(set.inputs));
  return r;
}

bool answers_ok(const Cell& cell, const InputSet& set, const std::optional<Artifacts>& r) {
  return r.has_value() && r->run.completed &&
         strategies::BatchPointerChasingStrategy::parse_outputs(cell.params, r->run.output,
                                                                cell.chains) == set.expected;
}

}  // namespace

Outcome run_chains(const Options& options) {
  const Cell cell = make_cell(options.tiny);
  std::vector<InputSet> sets;
  Outcome out;

  const double setup_s = repeated_setup_s(setup_repeats(options), [&] {
    util::Rng rng(options.seed);
    core::LineFunction f(cell.params);
    sets.assign(kInputSets, {});
    for (InputSet& set : sets) {
      set.oracle_seed = rng.next_u64();
      hash::LazyRandomOracle reference(cell.params.n, cell.params.n, set.oracle_seed);
      for (std::uint64_t i = 0; i < cell.chains; ++i) {
        set.inputs.push_back(core::LineInput::random(cell.params, rng));
        set.expected.push_back(f.evaluate(reference, set.inputs.back()));
      }
    }
    const std::optional<Artifacts> warm = run_once(cell, sets[0], nullptr);
    if (!answers_ok(cell, sets[0], warm)) out.correct = false;
  });

  // Untraced loop. In a traced run it takes half the time and keeps the
  // first result of each input set as the artifact reference.
  std::vector<std::optional<Artifacts>> first(kInputSets);
  TimedLoop plain(options.trace ? options.seconds / 2 : options.seconds, kMinRuns);
  for (std::uint64_t i = 0; plain.more(); ++i) {
    const InputSet& set = sets[i % kInputSets];
    double ms = 0;
    const std::optional<Artifacts> r =
        plain.attempt("chains", &ms, [&] { return run_once(cell, set, nullptr); });
    const bool ok = answers_ok(cell, set, r);
    plain.record(ms, ok);
    if (ok && options.trace && !first[i % kInputSets].has_value()) first[i % kInputSets] = r;
  }
  out.attempted = plain.attempted();
  out.failed = plain.failed();

  if (!options.trace) {
    out.metrics = end_to_end_metrics(plain, setup_s);
  } else {
    LayerClock clock;
    TimedLoop traced(options.seconds / 2, kInputSets);
    for (std::uint64_t i = 0; traced.more(); ++i) {
      const InputSet& set = sets[i % kInputSets];
      double ms = 0;
      const std::optional<Artifacts> r =
          traced.attempt("chains", &ms, [&] { return run_once(cell, set, &clock); });
      if (r.has_value()) clock.count(r->run);
      const std::optional<Artifacts>& ref = first[i % kInputSets];
      const bool ok = answers_ok(cell, set, r) && ref.has_value() &&
                      identical(*ref, r->run, r->oracle.get());
      traced.record(ms, ok);
    }
    out.attempted += traced.attempted();
    out.failed += traced.failed();
    print_overhead(plain.runs_per_s(), traced.runs_per_s());
    out.metrics = layer_metrics(clock, traced, 1, {});
  }
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace mpch::bench
