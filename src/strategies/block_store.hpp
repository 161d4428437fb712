// block_store.hpp — how MPC machines carry input blocks in messages, and
// the one walk the Line/SimLine strategies share.
//
// The model forces every bit of cross-round state through messages, so the
// strategies need a canonical wire format for "a set of tagged input blocks"
// and for the walk frontier. All strategy payloads are built from the two
// record types here:
//
//   BlockSet:  [count : 32][ (index : ell_bits)(x : u) ]*count
//   Frontier:  [i : index_bits][ell : ell_bits][r : u]
//
// Bit accounting is intentional: a machine holding σ blocks pays
// σ·(ell_bits + u) bits of its s-bit memory, which is the "a machine can
// only store a constant fraction of x_i's" mechanism of the lower bound.
//
// The Line/SimLine walkers (pointer-chasing, pipelined-simline, speculative,
// colluding) are one walk (Section 3; Theorem A.1 for SimLine): the frontier
// (i, ℓ_i, r_i) advances while its carrier holds x_ℓ, and they differ only
// at a miss — a hand-off, a broadcast, a guess, or a step along the public
// `i mod v` schedule. They send exactly two message kinds, each one record
// behind a tag, and share what follows: BlockInboxParser, the round-0 share
// builder, the advance loop (walk_owned; Line codec only), the frontier
// writer, and the declared memory and envelope (walk_spec).
//
//   [tag:2 = kBlocks][BlockSet]     (to self: the machine's own blocks)
//   [tag:2 = kFrontier][Frontier]   (the walk hand-off)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/protocol_spec.hpp"
#include "core/codec.hpp"
#include "core/input.hpp"
#include "core/params.hpp"
#include "hash/oracle_transcript.hpp"
#include "mpc/message.hpp"
#include "util/bitstring.hpp"

namespace mpch::strategies {

/// An owned collection of (index, value) input blocks with wire (de)coding.
class BlockSet {
 public:
  explicit BlockSet(const core::LineParams& params) : params_(params) {}

  void add(std::uint64_t index, util::BitString value);
  bool contains(std::uint64_t index) const { return blocks_.count(index) != 0; }
  const util::BitString* find(std::uint64_t index) const;
  std::size_t size() const { return blocks_.size(); }

  /// Indices in ascending order.
  std::vector<std::uint64_t> indices() const;

  /// Serialise to the wire format above.
  util::BitString encode() const;

  /// Parse from the wire format. Throws on malformed input.
  static BlockSet decode(const core::LineParams& params, const util::BitString& bits,
                         std::size_t* consumed_bits = nullptr);

  /// Wire size of a set holding `count` blocks.
  static std::uint64_t encoded_bits(const core::LineParams& params, std::uint64_t count);

 private:
  core::LineParams params_;
  std::unordered_map<std::uint64_t, util::BitString> blocks_;
};

/// The walk frontier: "we have evaluated the chain through node i-1 and the
/// next query is (i, x_ell, r)".
struct Frontier {
  std::uint64_t next_index = 1;  ///< i, in [1, w+1]; w+1 means finished
  std::uint64_t ell = 1;         ///< ℓ_i
  util::BitString r;             ///< r_i (u bits)

  util::BitString encode(const core::LineParams& params) const;
  static Frontier decode(const core::LineParams& params, const util::BitString& bits,
                         std::size_t* consumed_bits = nullptr);
  static std::uint64_t encoded_bits(const core::LineParams& params);
};

/// Payload tags shared by the Line/SimLine strategies.
enum class PayloadTag : std::uint64_t { kBlocks = 0, kFrontier = 1 };
constexpr std::uint64_t kTagBits = 2;

/// One machine's parsed blocks/frontier inbox.
struct BlockInbox {
  std::shared_ptr<const BlockSet> blocks;  ///< null when no blocks message arrived
  util::BitString blocks_payload;          ///< the tagged blocks message, re-sent verbatim to self
  std::optional<Frontier> frontier;        ///< the furthest copy received
};

/// The inbox parser of the blocks/frontier strategies. A machine's block
/// payload is re-sent unchanged every round, so decoded sets are cached,
/// keyed by the payload bits (a pure function of them — not cross-round
/// state). A strategy owns one parser; the machines of a parallel round
/// share it, so the cache is mutex-guarded.
class BlockInboxParser {
 public:
  explicit BlockInboxParser(const core::LineParams& params) : params_(params) {}

  /// Parse every message of `inbox`. Of several frontier copies the one
  /// with the largest next_index wins (copies of one chain differ only in
  /// how far they advanced). Throws std::invalid_argument on an unknown tag.
  BlockInbox parse(const std::vector<mpc::Message>& inbox);

 private:
  std::shared_ptr<const BlockSet> decode_blocks(const util::BitString& payload);

  core::LineParams params_;
  std::mutex mu_;
  std::unordered_map<util::BitString, std::shared_ptr<const BlockSet>, util::BitStringHash> cache_;
};

/// Deterministic block-ownership plans shared by the strategies.
class OwnershipPlan {
 public:
  /// Partition: block i goes to machine (i-1) mod m (no replication).
  static OwnershipPlan round_robin(const core::LineParams& params, std::uint64_t machines);

  /// Contiguous windows of `window` blocks per machine, wrapping; used by the
  /// pipelined SimLine strategy. Machine j owns blocks in windows
  /// {j, j+m, j+2m, ...}.
  static OwnershipPlan windows(const core::LineParams& params, std::uint64_t machines,
                               std::uint64_t window);

  /// Replicated: every machine stores the first `per_machine` blocks it can
  /// fit, chosen by a rotation so coverage is spread: machine j owns blocks
  /// {(j·stride + t) mod v + 1 : t < per_machine}.
  static OwnershipPlan replicated(const core::LineParams& params, std::uint64_t machines,
                                  std::uint64_t per_machine);

  std::uint64_t machines() const { return owners_.size(); }

  /// Blocks owned by machine j (ascending indices in [1, v]).
  const std::vector<std::uint64_t>& owned_by(std::uint64_t machine) const {
    return owners_.at(machine);
  }

  /// Some machine owning block `index`; nullopt if nobody does.
  std::optional<std::uint64_t> owner_of(std::uint64_t index) const;

  /// Max blocks owned by any machine (for memory sizing).
  std::uint64_t max_owned() const;

  /// A machine attaining max_owned() — the witness machine ProtocolSpec
  /// memory envelopes name (lowest index wins ties).
  std::uint64_t heaviest_machine() const;

 private:
  std::vector<std::vector<std::uint64_t>> owners_;           // machine -> blocks
  std::unordered_map<std::uint64_t, std::uint64_t> lookup_;  // block -> some owner
};

/// Round-0 share of every machine under `plan`: machine j gets
/// [kBlocks][BlockSet of plan.owned_by(j)].
std::vector<util::BitString> block_shares(const core::LineParams& params, const OwnershipPlan& plan,
                                          const core::LineInput& input);

/// The frontier hand-off message [kFrontier][Frontier].
util::BitString frontier_message(const core::LineParams& params, const Frontier& frontier);

/// What one walk_owned call did.
struct WalkRun {
  std::uint64_t advanced = 0;   ///< nodes evaluated (one oracle query each)
  util::BitString last_answer;  ///< answer of the last query; empty if advanced == 0
};

/// Advance `frontier` along the Line chain while the needed block x_ℓ is in
/// `blocks`, the chain is unfinished (i <= w) and the round's query budget
/// remains. On return the frontier names the first node not evaluated.
WalkRun walk_owned(const core::LineCodec& codec, const BlockSet& blocks, Frontier& frontier,
                   hash::CountingOracle& oracle);

/// Local memory (bits) of one tagged block set of plan.max_owned() blocks
/// plus `frontier_copies` tagged frontiers.
std::uint64_t walk_memory_bits(const core::LineParams& params, const OwnershipPlan& plan,
                               std::uint64_t frontier_copies);

/// Declared envelope of a blocks/frontier walker: walk_memory_bits of
/// memory, sent and received; fan-in/out 1 + frontier_copies (blocks-to-self
/// plus the frontier copies); up to `oracle_queries` budget-clamped queries
/// per round; at most w rounds; witnessed by the heaviest machine.
analysis::ProtocolSpec walk_spec(const std::string& name, const core::LineParams& params,
                                 const OwnershipPlan& plan, std::uint64_t frontier_copies,
                                 std::uint64_t oracle_queries);

}  // namespace mpch::strategies
