// transport_conformance_test.cpp — the thread × transport conformance
// matrix.
//
// MpcConfig::threads and MpcConfig::transport both promise that how a round
// is scheduled and how its bytes move are invisible to the model: every
// cell must produce bit-identical results. This suite pins that promise for
// every strategy in the registry (serve::make_scenario) plus three rows the
// registry does not carry — speculative u = 4 exhaustive enumeration (with
// its lucky_escapes counter), mpclib::BroadcastAlgorithm at m = 16, and
// authenticated pointer chasing. Each row runs once per seed on the serial
// in-process reference, then on every cell: in-process at threads {1, 2, 8}
// (the thread-determinism guarantee), and socket × threads {1, 2, 8} with
// 2/3/4 router processes (even, odd, and power-of-two binomial
// dissemination). Every cell is compared with the shared comparator
// (differential.hpp), which covers every observable artifact. The chaos
// harness rides the same backends: checkpoint restart, and Byzantine
// quarantine with RO-MAC tags crossing a real wire, must still converge to
// the fault-free execution.
#include "transport/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "core/line.hpp"
#include "differential.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "mpclib/primitives.hpp"
#include "serve/scenario.hpp"
#include "strategies/speculative.hpp"
#include "transport/socket.hpp"
#include "util/rng.hpp"

namespace mpch {
namespace {

using differential::expect_identical;
using differential::Execution;
using differential::run_scenario;
using differential::skip_socket_backend;
using transport::TransportKind;
using util::BitString;

constexpr std::uint64_t kSeeds[] = {11, 22, 33};

/// One cell of the conformance matrix.
struct Backend {
  TransportKind kind = TransportKind::kInProcess;
  std::uint64_t threads = 0;
  std::uint64_t processes = 0;  ///< socket: router process count (0 = auto)

  std::string label() const {
    return transport::to_string(kind) + " threads=" + std::to_string(threads) +
           (processes != 0 ? " procs=" + std::to_string(processes) : "");
  }
};

/// The serial in-process reference every other cell is measured against.
constexpr Backend kReference{TransportKind::kInProcess, 0, 0};

const Backend kMatrix[] = {
    {TransportKind::kInProcess, 1, 0}, {TransportKind::kInProcess, 2, 0},
    {TransportKind::kInProcess, 8, 0}, {TransportKind::kSocket, 1, 2},
    {TransportKind::kSocket, 2, 3},    {TransportKind::kSocket, 8, 4},
};

/// A fresh scenario for (seed, threads), so strategy-internal counters never
/// leak between the reference and a cell.
using Build = std::function<serve::Scenario(std::uint64_t seed, std::uint64_t threads)>;
/// A strategy-specific counter read off the algorithm after its run.
using Counter = std::function<std::uint64_t(const mpc::MpcAlgorithm&)>;

void select_transport(serve::Scenario& s, const Backend& backend) {
  s.config.transport = backend.kind;
  s.config.transport_processes = backend.processes;
}

void run_conformance(const Build& build, const Counter& counter = {}) {
  for (std::uint64_t seed : kSeeds) {
    const serve::Scenario ref_scenario = build(seed, kReference.threads);
    const Execution reference = run_scenario(ref_scenario);
    EXPECT_TRUE(reference.result.completed) << "seed=" << seed;
    for (const Backend& backend : kMatrix) {
      if (backend.kind == TransportKind::kSocket && skip_socket_backend()) continue;
      SCOPED_TRACE("seed=" + std::to_string(seed) + " " + backend.label());
      serve::Scenario s = build(seed, backend.threads);
      select_transport(s, backend);
      expect_identical(reference, run_scenario(s));
      if (counter) {
        EXPECT_EQ(counter(*ref_scenario.algo), counter(*s.algo));
      }
    }
  }
}

mpc::MpcConfig cfg(std::uint64_t m, std::uint64_t s, std::uint64_t q, std::uint64_t threads,
                   std::uint64_t max_rounds) {
  mpc::MpcConfig c;
  c.machines = m;
  c.local_memory_bits = s;
  c.query_budget = q;
  c.max_rounds = max_rounds;
  c.tape_seed = 5;
  c.threads = threads;
  return c;
}

// ---- the registry rows: one per serve::strategy_names() entry ----

class RegistryConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryConformance, EveryCellMatchesSerialReference) {
  const std::string name = GetParam();
  run_conformance([&name](std::uint64_t seed, std::uint64_t threads) {
    return serve::make_scenario(name, seed, threads);
  });
}

INSTANTIATE_TEST_SUITE_P(TransportConformance, RegistryConformance,
                         ::testing::ValuesIn(serve::strategy_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string label = info.param;
                           std::replace(label.begin(), label.end(), '-', '_');
                           return label;
                         });

// ---- the test-local rows ----

TEST(TransportConformance, SpeculativeEnumeration) {
  // u = 4 with exhaustive enumeration: every stall escapes by guessing, so
  // the run exercises the tape-indexed guessing path and the lucky_escapes
  // counter under concurrency (the registry's u = 16 row almost never
  // escapes).
  run_conformance(
      [](std::uint64_t seed, std::uint64_t threads) {
        core::LineParams p = core::LineParams::make(3 * 4 + 16, 4, 8, 64);
        util::Rng rng(seed * 3 + 7);
        auto input = std::make_shared<core::LineInput>(core::LineInput::random(p, rng));
        auto strat = std::make_shared<strategies::SpeculativeStrategy>(
            p, strategies::OwnershipPlan::round_robin(p, 4),
            strategies::SpeculativeConfig{16, true}, *input);
        serve::Scenario s;
        s.config = cfg(4, strat->required_local_memory(), 1 << 20, threads, 20000);
        s.initial = strat->make_initial_memory(*input);
        s.algo = strat;
        s.family = {p.n, p.n, seed};
        s.truth = input;
        return s;
      },
      [](const mpc::MpcAlgorithm& algo) {
        return dynamic_cast<const strategies::SpeculativeStrategy&>(algo).lucky_escapes();
      });
}

TEST(TransportConformance, MpclibBroadcastCoalesces) {
  // BroadcastAlgorithm fans one identical payload out to many machines per
  // round — on the socket backend this is the broadcast-coalescing path: the
  // parent ships one kBroadcast frame and the routers replicate it along the
  // binomial tree. m = 16 over 3 and 4 router processes exercises both an
  // odd group count (dedup of dissemination duplicates) and a power of two;
  // in-process, every thread chunk carries several machines.
  run_conformance([](std::uint64_t seed, std::uint64_t threads) {
    const std::uint64_t m = 16;
    serve::Scenario s;
    s.config = cfg(m, 1 << 16, 1, threads, 200);
    s.config.tape_seed = seed;
    s.algo = std::make_shared<mpclib::BroadcastAlgorithm>(m, 2);
    s.initial = {BitString::from_uint(0xBEEF ^ seed, 16)};
    return s;
  });
}

TEST(TransportConformance, AuthenticatedMessagingOverEveryBackend) {
  // RO-MAC tags ride inside the payloads; on the socket backend they cross a
  // real process boundary and must still verify at every barrier.
  run_conformance([](std::uint64_t seed, std::uint64_t threads) {
    serve::Scenario s = serve::make_scenario("pointer-chasing", seed, threads);
    serve::enable_authentication(s);
    return s;
  });
}

// ---- chaos/recovery over the wire backends ----

serve::Scenario chaos_scenario(const Backend& backend, bool authenticate) {
  serve::Scenario s = serve::make_scenario("pointer-chasing", 11, backend.threads);
  select_transport(s, backend);
  if (authenticate) serve::enable_authentication(s);
  return s;
}

Execution run_chaos_clean(bool authenticate) {
  Execution clean = run_scenario(chaos_scenario(kReference, authenticate));
  EXPECT_TRUE(clean.result.completed);
  return clean;
}

TEST(TransportConformance, RestartFromCheckpointOverEveryBackend) {
  // Checkpoint/resume across the wire backends: a kill at round 3 restores
  // the round-2 snapshot and resumes — bit-identical to the fault-free
  // serial reference. Transports are quiescent at every barrier, so the
  // snapshot needs no wire state and the checkpoint format is unchanged.
  const Execution clean = run_chaos_clean(false);
  for (const Backend& backend : {Backend{TransportKind::kInProcess, 1, 0},
                                 Backend{TransportKind::kInProcess, 8, 0},
                                 Backend{TransportKind::kSocket, 1, 2}}) {
    if (backend.kind == TransportKind::kSocket && skip_socket_backend()) continue;
    SCOPED_TRACE(backend.label());
    const serve::Scenario s = chaos_scenario(backend, false);
    fault::ChaosHarness harness(s.config, differential::oracle_factory(s));
    fault::ChaosResult chaos = harness.run_restart(*s.algo, s.initial,
                                                   fault::FaultPlan::parse("kill:round=3"),
                                                   /*checkpoint_every=*/2);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    EXPECT_GE(chaos.cost.recoveries, 1u);
    expect_identical(clean, {chaos.run, chaos.oracle});
  }
}

TEST(TransportConformance, QuarantineRecoversOverSocketBackend) {
  // The acceptance-criteria case: an authenticated Byzantine flip while the
  // whole execution — including every quarantine replica and retry — runs
  // over forked router processes. Detection must be the typed TamperViolation
  // path and the recovered run must equal the fault-free serial reference.
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  const Execution clean = run_chaos_clean(true);
  const serve::Scenario s = chaos_scenario(Backend{TransportKind::kSocket, 1, 2}, true);
  fault::ChaosHarness harness(s.config, differential::oracle_factory(s));
  fault::ChaosResult chaos = harness.run_quarantine(
      *s.algo, s.initial, fault::FaultPlan::parse("flip:machine=1,round=3,bit=2"));
  EXPECT_EQ(chaos.cost.faults_injected, 1u);
  EXPECT_GE(chaos.cost.quarantine_strikes, 1u);
  expect_identical(clean, {chaos.run, chaos.oracle});
}

// ---- transport selection plumbing ----

TEST(TransportConformance, KindParsingRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(transport::parse_transport_kind("in-process"), TransportKind::kInProcess);
  EXPECT_EQ(transport::parse_transport_kind("inprocess"), TransportKind::kInProcess);
  EXPECT_EQ(transport::parse_transport_kind("socket"), TransportKind::kSocket);
  for (TransportKind kind : {TransportKind::kInProcess, TransportKind::kSocket}) {
    EXPECT_EQ(transport::parse_transport_kind(transport::to_string(kind)), kind);
  }
  EXPECT_THROW(transport::parse_transport_kind("carrier-pigeon"), std::invalid_argument);
  // The retired byte-ring backend's names are unknown, and the diagnostic
  // lists exactly the two remaining backends.
  for (const char* retired : {"shared-memory", "shm"}) {
    try {
      transport::parse_transport_kind(retired);
      ADD_FAILURE() << retired << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("unknown transport '") + retired + "' (expected in-process or socket)");
    }
  }
}

TEST(TransportConformance, SocketRouterCountClampsToMachines) {
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  {
    transport::TransportOptions options;
    options.processes = 64;
    transport::SocketTransport t(options);
    t.start(4);
    EXPECT_EQ(t.router_count(), 4u);
  }
  {
    transport::TransportOptions options;
    options.processes = 3;
    transport::SocketTransport t(options);
    t.start(8);
    EXPECT_EQ(t.router_count(), 3u);
  }
  {
    transport::SocketTransport t;  // auto: 2 router processes for m > 1
    t.start(6);
    EXPECT_EQ(t.router_count(), 2u);
  }
}

}  // namespace
}  // namespace mpch
