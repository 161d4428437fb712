// scenario.hpp — the one strategy registry and artifact comparator of the
// tree.
//
// A Scenario is one runnable (config, algorithm, initial memory, oracle
// recipe) bundle for a named strategy at a given seed. mpch-chaos,
// mpch-serve, mpch-reduce, mpch-bench and the differential test suites
// (thread × transport, checkpoint recovery, Byzantine quarantine, serve
// pooling; see tests/differential.hpp) all build the exact same bundles and
// compare runs with the same artifact_mismatches. That is what makes the
// bit-identity claims testable at all: there is one construction and one
// notion of "identical", not copies drifting apart. A new strategy is one
// entry here and every matrix picks it up.
//
// Scenarios are built fresh per execution (strategy-internal counters must
// never leak between runs), and make_oracle hands every execution a fresh
// oracle of the scenario's family, so no memo contents or query counts
// carry over from one run to the next.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"

namespace mpch::serve {

/// The oracle-family key (input width, output width, secret seed). Two runs
/// whose families agree evaluate the *same* random function.
struct OracleFamily {
  std::uint64_t in_bits = 0;
  std::uint64_t out_bits = 0;
  std::uint64_t seed = 0;

  bool present() const { return in_bits != 0; }
};

struct Scenario {
  mpc::MpcConfig config;
  std::shared_ptr<mpc::MpcAlgorithm> algo;
  std::vector<util::BitString> initial;
  OracleFamily family;  ///< !present() for plain-model (Definition 2.1) runs
  std::shared_ptr<const core::LineInput> truth;  // outlives algo (speculative holds a pointer)

  /// A fresh oracle for one execution, or null for plain-model scenarios.
  std::shared_ptr<hash::LazyRandomOracle> make_oracle() const;
};

/// Names accepted by make_scenario, in canonical order.
const std::vector<std::string>& strategy_names();

/// Build the named strategy's scenario. `threads` is MpcConfig::threads for
/// the inner round loop (0 = serial). Throws std::invalid_argument for an
/// unknown name.
Scenario make_scenario(const std::string& name, std::uint64_t seed, std::uint64_t threads);

/// Turn on MAC-tagged messaging (MpcConfig::authenticate_messages) and widen
/// s by the tag headroom every authenticated run uses: tag bits count
/// against the memory budget, so tight strategies need room for their
/// per-message tags.
void enable_authentication(Scenario& s);

/// Compare one run against another across every observable surface (output,
/// round stats, annotations, oracle transcript, materialised oracle table,
/// query counts); returns human-readable mismatch descriptions, empty when
/// bit-identical. A run without a transcript (a failed serve job) compares
/// by presence. Shared by mpch-chaos recovery verification, serve's chaos
/// verb and the differential suites so "verified" means the same thing
/// everywhere.
std::vector<std::string> artifact_mismatches(const mpc::MpcRunResult& ref,
                                             const hash::LazyRandomOracle* ref_oracle,
                                             const mpc::MpcRunResult& got,
                                             const hash::LazyRandomOracle* got_oracle);

}  // namespace mpch::serve
