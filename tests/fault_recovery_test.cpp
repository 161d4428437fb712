// fault_recovery_test.cpp — the chaos differential suite.
//
// The determinism the simulator guarantees (the in-process cells of
// transport_conformance_test.cpp) makes recovery *verifiable*: a run that is
// killed mid-flight, restored from a checkpoint, and resumed must be
// bit-identical to one that never faulted. This suite pins that for every
// strategy in the registry (serve::make_scenario) at thread counts {1, 8},
// plus crash/drop/dup faults, the ReplicateRound policy, and the
// unrecoverable-fault path. Runs are compared with the shared comparator
// (differential.hpp): same output, same per-round RoundStats (peak
// witnesses included), same annotations, same canonical oracle transcript,
// same materialised oracle table and lifetime query count.
#include "fault/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "differential.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"

namespace mpch {
namespace {

using differential::Execution;
using differential::expect_identical;
using differential::oracle_factory;

constexpr std::uint64_t kSeed = 11;

/// Where a strategy's single fault lands: late enough for a checkpoint to
/// exist. dictionary and full-memory finish within a few rounds, so they
/// fault at round 1 and checkpoint every round.
struct FaultTiming {
  std::uint64_t round = 3;
  std::uint64_t checkpoint_every = 2;
};

FaultTiming fault_timing(const std::string& name) {
  if (name == "dictionary" || name == "full-memory") return {1, 1};
  return {};
}

/// The uninterrupted reference: the same registry scenario, no observer.
/// Scenarios are built fresh per run so strategy-internal counters (e.g. the
/// speculative strategy's lucky_escapes) never leak into the chaos run.
Execution run_clean(const std::string& name, std::uint64_t threads) {
  Execution clean = differential::run_scenario(serve::make_scenario(name, kSeed, threads));
  EXPECT_TRUE(clean.result.completed) << name;
  return clean;
}

TEST(ChaosRecovery, KillRestoreResumeIsBitIdenticalForEveryStrategy) {
  for (const std::string& name : serve::strategy_names()) {
    for (std::uint64_t threads : {std::uint64_t{1}, std::uint64_t{8}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      const Execution clean = run_clean(name, threads);

      serve::Scenario s = serve::make_scenario(name, kSeed, threads);
      fault::ChaosHarness harness(s.config, oracle_factory(s));
      const FaultTiming timing = fault_timing(name);
      fault::FaultPlan plan = fault::FaultPlan::parse("kill:round=" + std::to_string(timing.round));
      fault::ChaosResult chaos =
          harness.run_restart(*s.algo, s.initial, plan, timing.checkpoint_every);

      EXPECT_EQ(chaos.cost.faults_injected, 1u);
      EXPECT_EQ(chaos.cost.recoveries, 1u);
      expect_identical(clean, {chaos.run, chaos.oracle});
    }
  }
}

TEST(ChaosRecovery, CrashRestoreResumeIsBitIdentical) {
  for (const std::string name : {"pointer-chasing", "ram-emulation"}) {
    for (std::uint64_t threads : {std::uint64_t{1}, std::uint64_t{8}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      const Execution clean = run_clean(name, threads);

      serve::Scenario s = serve::make_scenario(name, kSeed, threads);
      fault::ChaosHarness harness(s.config, oracle_factory(s));
      const FaultTiming timing = fault_timing(name);
      fault::FaultPlan plan =
          fault::FaultPlan::parse("crash:machine=2,round=" + std::to_string(timing.round));
      fault::ChaosResult chaos =
          harness.run_restart(*s.algo, s.initial, plan, timing.checkpoint_every);

      EXPECT_EQ(chaos.cost.faults_injected, 1u);
      // The crashed round itself re-executes, so at least one round is redone.
      EXPECT_GE(chaos.cost.rounds_reexecuted, 1u);
      expect_identical(clean, {chaos.run, chaos.oracle});
    }
  }
}

TEST(ChaosRecovery, DropAndDuplicateRecoverUnderRestart) {
  for (const std::string spec : {"drop:round=2,to=0,index=0", "dup:round=2,to=0,index=0"}) {
    SCOPED_TRACE(spec);
    const Execution clean = run_clean("ram-emulation", 1);
    serve::Scenario s = serve::make_scenario("ram-emulation", kSeed, 1);
    fault::ChaosHarness harness(s.config, oracle_factory(s));
    fault::ChaosResult chaos =
        harness.run_restart(*s.algo, s.initial, fault::FaultPlan::parse(spec), 1);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    expect_identical(clean, {chaos.run, chaos.oracle});
  }
}

TEST(ChaosRecovery, ReplicateRoundVerifiesAndMatchesCleanRun) {
  for (const std::string name : {"pointer-chasing", "ram-emulation"}) {
    SCOPED_TRACE(name);
    const Execution clean = run_clean(name, 1);
    serve::Scenario s = serve::make_scenario(name, kSeed, 1);
    fault::ChaosHarness harness(s.config, oracle_factory(s));
    fault::FaultPlan plan = fault::FaultPlan::parse(
        "crash:machine=1,round=" + std::to_string(fault_timing(name).round));
    fault::ChaosResult chaos = harness.run_replicate(*s.algo, s.initial, plan);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    EXPECT_EQ(chaos.cost.replica_verifications, 1u);
    EXPECT_EQ(chaos.cost.rounds_reexecuted, 2u);  // two replicas of one round
    expect_identical(clean, {chaos.run, chaos.oracle});
  }
}

TEST(ChaosRecovery, ReplicateHandlesRoundZeroFaults) {
  // ReplicateRound seeds itself with the initial checkpoint, so even a
  // round-0 crash (before any periodic snapshot could exist) is recoverable.
  const Execution clean = run_clean("pointer-chasing", 1);
  serve::Scenario s = serve::make_scenario("pointer-chasing", kSeed, 1);
  fault::ChaosHarness harness(s.config, oracle_factory(s));
  fault::ChaosResult chaos =
      harness.run_replicate(*s.algo, s.initial, fault::FaultPlan::parse("crash:machine=0,round=0"));
  EXPECT_EQ(chaos.cost.faults_injected, 1u);
  expect_identical(clean, {chaos.run, chaos.oracle});
}

TEST(ChaosRecovery, MultiFaultPlanRecoversEveryEvent) {
  const Execution clean = run_clean("colluding", 8);
  serve::Scenario s = serve::make_scenario("colluding", kSeed, 8);
  fault::ChaosHarness harness(s.config, oracle_factory(s));
  fault::FaultPlan plan =
      fault::FaultPlan::parse("crash:machine=1,round=2;kill:round=5;dup:round=7,to=2,index=0");
  fault::ChaosResult chaos = harness.run_restart(*s.algo, s.initial, plan, 2);
  EXPECT_EQ(chaos.cost.faults_injected, 3u);
  EXPECT_EQ(chaos.cost.recoveries, 3u);
  expect_identical(clean, {chaos.run, chaos.oracle});
}

TEST(ChaosRecovery, FaultBeforeFirstCheckpointIsUnrecoverableWithProvenance) {
  serve::Scenario s = serve::make_scenario("pointer-chasing", kSeed, 1);
  fault::ChaosHarness harness(s.config, oracle_factory(s));
  try {
    harness.run_restart(*s.algo, s.initial, fault::FaultPlan::parse("kill:round=0"), 2);
    FAIL() << "expected UnrecoverableFault";
  } catch (const fault::UnrecoverableFault& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("kill the simulation before round 0"), std::string::npos) << what;
    EXPECT_NE(what.find("no checkpoint exists yet"), std::string::npos) << what;
  }
}

TEST(ChaosRecovery, CheckpointFileMirrorIsLoadable) {
  const std::string path = "chaos_recovery_mirror.ckpt";
  serve::Scenario s = serve::make_scenario("pointer-chasing", kSeed, 1);
  fault::ChaosHarness harness(s.config, oracle_factory(s));
  fault::ChaosResult chaos = harness.run_restart(
      *s.algo, s.initial, fault::FaultPlan::parse("kill:round=3"), 2, path);
  EXPECT_TRUE(chaos.run.completed);
  fault::Checkpoint cp = fault::load_checkpoint_file(path);
  EXPECT_EQ(cp.machines, s.config.machines);
  EXPECT_GT(cp.next_round, 0u);
  EXPECT_GT(chaos.cost.checkpoint_bytes_last, 0u);
  std::remove(path.c_str());
}

TEST(ChaosRecovery, SilentFaultsCorruptTheRun) {
  // The contrapositive: with detection off (no recovery), a dropped delivery
  // must actually change the execution — otherwise the suite above would be
  // vacuous.
  const Execution clean = run_clean("ram-emulation", 1);
  serve::Scenario s = serve::make_scenario("ram-emulation", kSeed, 1);
  // The dropped delivery stalls the emulation forever; cap the corrupted run
  // well above the clean round count so the divergence is cheap to observe.
  s.config.max_rounds = 200;
  fault::FaultInjector injector(fault::FaultPlan::parse("drop:round=2,to=0,index=0"),
                                /*fail_stop=*/false);
  auto oracle = s.make_oracle();
  mpc::MpcSimulation sim(s.config, oracle);
  mpc::MpcRunResult run = sim.run(*s.algo, s.initial, &injector);
  EXPECT_EQ(injector.faults_fired(), 1u);
  EXPECT_FALSE(run.completed == clean.result.completed && run.output == clean.result.output &&
               run.trace.rounds() == clean.result.trace.rounds())
      << "silently dropping a delivery did not perturb the execution";
}

}  // namespace
}  // namespace mpch
