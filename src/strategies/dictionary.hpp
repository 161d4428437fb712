// dictionary.hpp — the input-entropy ablation strategy.
//
// The hardness of Line^RO is an *average-case* statement (Definition 2.5
// draws X uniformly), and this strategy shows why that matters: a machine
// need not store X verbatim — it may store any encoding. If X has only d
// distinct blocks, the dictionary encoding (d values of u bits + v pointers
// of ⌈log d⌉ bits) can fit the whole input into a single machine's s even
// when s << S = u·v, and the chain then collapses to one round. For uniform
// X, d = v w.h.p. and the dictionary is *larger* than X — the compression
// argument's "you cannot encode X below its entropy" in strategy form.
//
// Gather protocol: round 0 ships every machine's dictionary share to
// machine 0 (the inbox-capacity check enforces honesty about the encoded
// size); round 1 machine 0 decodes and walks the chain.
#pragma once

#include <cstdint>

#include "analysis/protocol_spec.hpp"
#include "core/line.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"

namespace mpch::strategies {

class DictionaryStrategy final : public mpc::MpcAlgorithm,
                                 public analysis::ProtocolSpecProvider {
 public:
  DictionaryStrategy(const core::LineParams& params, std::uint64_t machines);

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override;

  std::string name() const override { return "dictionary"; }

  /// Dictionary-encode the input and split the encoding across machines.
  /// Wire format per share: [tag:2][dict_count:16][(value:u)*]
  ///                        [map_count:16][(index:ell_bits, dict_id:16)*].
  std::vector<util::BitString> make_initial_memory(const core::LineInput& input) const;

  /// Bits the gather target needs for an input with `distinct` block values:
  /// the whole dictionary + the full index map (plus per-share headers).
  std::uint64_t gathered_bits(std::uint64_t distinct) const;

  /// Number of distinct block values in `input` (host-side analysis).
  static std::uint64_t distinct_blocks(const core::LineInput& input);

  /// Declared envelope: the two-round gather shape sized for the worst-case
  /// input (distinct = v — uniform X, where the dictionary encoding is
  /// *larger* than X). Queries are NOT budget-clamped; the round-1 walk
  /// unconditionally spends w.
  analysis::ProtocolSpec protocol_spec() const override;

 private:
  core::LineParams params_;
  core::LineCodec codec_;
  std::uint64_t machines_;
};

/// Build a low-entropy input: v blocks drawn from only `distinct` values
/// (cyclically assigned). distinct = v reproduces full-entropy structure.
core::LineInput make_low_entropy_input(const core::LineParams& params, std::uint64_t distinct,
                                       util::Rng& rng);

}  // namespace mpch::strategies
