// differential.hpp — what the differential suites share.
//
// Every bit-identity claim in the tree (thread counts, transports,
// checkpoint recovery, Byzantine quarantine, serve pooling) is checked the
// same way: build runs from the one registry (serve::make_scenario), run
// them, and compare with the one comparator (serve::artifact_mismatches),
// which covers output, rounds_used, every RoundStats field including the
// per-round peaks, annotations, the oracle transcript records, the
// materialised oracle table and the exact query count. mpch-chaos and
// mpch-serve verify with that same comparator, so "identical" means one
// thing everywhere.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"

namespace mpch::differential {

/// One run's observable result together with the oracle it queried.
struct Execution {
  mpc::MpcRunResult result;
  std::shared_ptr<hash::LazyRandomOracle> oracle;  ///< null for plain-model runs
};

/// Execute a scenario once, uninterrupted, against a fresh oracle.
inline Execution run_scenario(const serve::Scenario& s) {
  Execution r;
  r.oracle = s.make_oracle();
  mpc::MpcSimulation sim(s.config, r.oracle);
  r.result = sim.run(*s.algo, s.initial);
  return r;
}

/// A fresh-oracle factory for fault::ChaosHarness; `s` must outlive it.
inline auto oracle_factory(const serve::Scenario& s) {
  return [&s] { return s.make_oracle(); };
}

/// One non-fatal failure per artifact on which `got` differs from `ref`.
inline void expect_identical(const Execution& ref, const Execution& got) {
  for (const std::string& mismatch : serve::artifact_mismatches(
           ref.result, ref.oracle.get(), got.result, got.oracle.get())) {
    ADD_FAILURE() << mismatch;
  }
}

/// The socket backend fork()s router processes, which the thread sanitizer
/// cannot follow. MPCH_SKIP_SOCKET_TRANSPORT=1 drops the socket cells and
/// skips the socket-only tests so everything else still runs under TSan.
inline bool skip_socket_backend() {
  const char* v = std::getenv("MPCH_SKIP_SOCKET_TRANSPORT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace mpch::differential
