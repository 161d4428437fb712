#include "strategies/block_store.hpp"

#include <gtest/gtest.h>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpch::strategies {
namespace {

using util::BitString;

core::LineParams params() { return core::LineParams::make(64, 16, 8, 100); }

TEST(BlockSet, AddFindContains) {
  core::LineParams p = params();
  BlockSet set(p);
  BitString x = BitString::from_uint(0xABCD, 16);
  set.add(3, x);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  ASSERT_NE(set.find(3), nullptr);
  EXPECT_EQ(*set.find(3), x);
  EXPECT_EQ(set.find(4), nullptr);
  EXPECT_EQ(set.size(), 1u);
}

TEST(BlockSet, RejectsBadIndexOrWidth) {
  core::LineParams p = params();
  BlockSet set(p);
  EXPECT_THROW(set.add(0, BitString(16)), std::out_of_range);
  EXPECT_THROW(set.add(9, BitString(16)), std::out_of_range);
  EXPECT_THROW(set.add(1, BitString(15)), std::invalid_argument);
}

TEST(BlockSet, EncodeDecodeRoundTrip) {
  core::LineParams p = params();
  util::Rng rng(1);
  BlockSet set(p);
  for (std::uint64_t b : {7, 2, 5}) {
    set.add(b, BitString::random(p.u, [&] { return rng.next_u64(); }));
  }
  BitString wire = set.encode();
  EXPECT_EQ(wire.size(), BlockSet::encoded_bits(p, 3));
  BlockSet decoded = BlockSet::decode(p, wire);
  EXPECT_EQ(decoded.size(), 3u);
  for (std::uint64_t b : {7, 2, 5}) {
    ASSERT_TRUE(decoded.contains(b));
    EXPECT_EQ(*decoded.find(b), *set.find(b));
  }
}

TEST(BlockSet, EmptyEncode) {
  core::LineParams p = params();
  BlockSet set(p);
  BlockSet decoded = BlockSet::decode(p, set.encode());
  EXPECT_EQ(decoded.size(), 0u);
}

TEST(BlockSet, IndicesSorted) {
  core::LineParams p = params();
  BlockSet set(p);
  for (std::uint64_t b : {6, 1, 4}) set.add(b, util::BitString(p.u));
  EXPECT_EQ(set.indices(), (std::vector<std::uint64_t>{1, 4, 6}));
}

TEST(Frontier, EncodeDecodeRoundTrip) {
  core::LineParams p = params();
  util::Rng rng(2);
  Frontier f;
  f.next_index = 57;
  f.ell = 6;
  f.r = BitString::random(p.u, [&] { return rng.next_u64(); });
  BitString wire = f.encode(p);
  EXPECT_EQ(wire.size(), Frontier::encoded_bits(p));
  Frontier decoded = Frontier::decode(p, wire);
  EXPECT_EQ(decoded.next_index, 57u);
  EXPECT_EQ(decoded.ell, 6u);
  EXPECT_EQ(decoded.r, f.r);
}

/// A tagged message of the blocks/frontier format.
mpc::Message tagged(PayloadTag tag, const BitString& body) {
  util::BitWriter w;
  w.write_uint(static_cast<std::uint64_t>(tag), kTagBits);
  w.write_bits(body);
  return {0, 0, w.take()};
}

BitString random_blocks(const core::LineParams& p, std::uint64_t seed) {
  util::Rng rng(seed);
  BlockSet set(p);
  for (std::uint64_t b = 1; b <= p.v; b += 2) {
    set.add(b, BitString::random(p.u, [&] { return rng.next_u64(); }));
  }
  return set.encode();
}

Frontier frontier_at(const core::LineParams& p, std::uint64_t next_index) {
  return Frontier{next_index, 3, BitString::from_uint(next_index, p.u)};
}

TEST(BlockInboxParser, FurthestFrontierWins) {
  core::LineParams p = params();
  BlockInboxParser parser(p);
  for (bool furthest_first : {true, false}) {
    std::vector<mpc::Message> inbox = {
        {0, 0, frontier_message(p, frontier_at(p, furthest_first ? 9 : 4))},
        {0, 0, frontier_message(p, frontier_at(p, furthest_first ? 4 : 9))}};
    BlockInbox parsed = parser.parse(inbox);
    ASSERT_TRUE(parsed.frontier.has_value());
    EXPECT_EQ(parsed.frontier->next_index, 9u);
    EXPECT_EQ(parsed.frontier->r, BitString::from_uint(9, p.u));
    EXPECT_EQ(parsed.blocks, nullptr);
  }
  EXPECT_FALSE(parser.parse({}).frontier.has_value());
}

TEST(BlockInboxParser, BlocksPayloadComesBackVerbatim) {
  core::LineParams p = params();
  BlockInboxParser parser(p);
  BitString body = random_blocks(p, 3);
  mpc::Message blocks = tagged(PayloadTag::kBlocks, body);
  BlockInbox parsed = parser.parse({{0, 0, frontier_message(p, frontier_at(p, 2))}, blocks});
  EXPECT_EQ(parsed.blocks_payload, blocks.payload);
  ASSERT_NE(parsed.blocks, nullptr);
  EXPECT_EQ(parsed.blocks->encode(), body);
  ASSERT_TRUE(parsed.frontier.has_value());
  EXPECT_EQ(parsed.frontier->next_index, 2u);
}

TEST(BlockInboxParser, RepeatedPayloadHitsTheCache) {
  core::LineParams p = params();
  BlockInboxParser parser(p);
  mpc::Message a = tagged(PayloadTag::kBlocks, random_blocks(p, 5));
  mpc::Message b = tagged(PayloadTag::kBlocks, random_blocks(p, 6));
  auto first = parser.parse({a}).blocks;
  EXPECT_EQ(parser.parse({a}).blocks, first);  // the same cached BlockSet
  auto other = parser.parse({b}).blocks;
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other, first);
  EXPECT_NE(other->encode(), first->encode());
  EXPECT_EQ(parser.parse({a}).blocks, first);
}

TEST(BlockInboxParser, UnknownTagThrows) {
  core::LineParams p = params();
  BlockInboxParser parser(p);
  EXPECT_THROW(parser.parse({{0, 0, BitString::from_uint(2, kTagBits)}}), std::invalid_argument);
  EXPECT_THROW(parser.parse({{0, 0, BitString::from_uint(3, kTagBits)}}), std::invalid_argument);
}

TEST(OwnershipPlan, RoundRobinCoversAllBlocks) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::round_robin(p, 3);
  EXPECT_EQ(plan.machines(), 3u);
  std::uint64_t total = 0;
  for (std::uint64_t j = 0; j < 3; ++j) total += plan.owned_by(j).size();
  EXPECT_EQ(total, p.v);
  for (std::uint64_t b = 1; b <= p.v; ++b) {
    auto owner = plan.owner_of(b);
    ASSERT_TRUE(owner.has_value()) << b;
    // The declared owner really owns the block.
    const auto& owned = plan.owned_by(*owner);
    EXPECT_NE(std::find(owned.begin(), owned.end(), b), owned.end());
  }
}

TEST(OwnershipPlan, WindowsAreContiguous) {
  core::LineParams p = params();  // v = 8
  OwnershipPlan plan = OwnershipPlan::windows(p, 2, 3);
  // Windows: [1..3]->m0, [4..6]->m1, [7..8]->m0.
  EXPECT_EQ(plan.owned_by(0), (std::vector<std::uint64_t>{1, 2, 3, 7, 8}));
  EXPECT_EQ(plan.owned_by(1), (std::vector<std::uint64_t>{4, 5, 6}));
}

TEST(OwnershipPlan, ReplicatedIncreasesPerMachineFraction) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::replicated(p, 4, 6);
  for (std::uint64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(plan.owned_by(j).size(), 6u) << j;
  }
  // Coverage: every block has some owner (6 per machine, stride v/m = 2).
  for (std::uint64_t b = 1; b <= p.v; ++b) {
    EXPECT_TRUE(plan.owner_of(b).has_value()) << b;
  }
}

TEST(OwnershipPlan, ReplicatedClampsToV) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::replicated(p, 2, 100);
  EXPECT_EQ(plan.owned_by(0).size(), p.v);
  EXPECT_EQ(plan.max_owned(), p.v);
}

TEST(OwnershipPlan, ReplicatedRejectsUncoverablePlans) {
  core::LineParams p = core::LineParams::make(64, 16, 64, 100);  // v = 64
  // 8 machines x 4 blocks = 32 < 64: coverage impossible.
  EXPECT_THROW(OwnershipPlan::replicated(p, 8, 4), std::invalid_argument);
  // 16 machines x 4 = 64 with stride 4: exactly covers.
  EXPECT_NO_THROW(OwnershipPlan::replicated(p, 16, 4));
}

TEST(OwnershipPlan, AllFactoriesRejectZeroMachines) {
  core::LineParams p = params();
  EXPECT_THROW(OwnershipPlan::round_robin(p, 0), std::invalid_argument);
  EXPECT_THROW(OwnershipPlan::windows(p, 0, 2), std::invalid_argument);
  EXPECT_THROW(OwnershipPlan::replicated(p, 0, 2), std::invalid_argument);
}

TEST(OwnershipPlan, MaxOwned) {
  core::LineParams p = params();
  OwnershipPlan plan = OwnershipPlan::round_robin(p, 3);
  EXPECT_EQ(plan.max_owned(), 3u);  // ceil(8/3)
}

// --- the shared walk core ---

TEST(BlockShares, RoundTripToEachMachinesOwnedBlocks) {
  core::LineParams p = params();
  util::Rng rng(3);
  core::LineInput input = core::LineInput::random(p, rng);
  for (const OwnershipPlan& plan : {OwnershipPlan::round_robin(p, 3),
                                    OwnershipPlan::windows(p, 3, 2),
                                    OwnershipPlan::replicated(p, 4, 3)}) {
    std::vector<BitString> shares = block_shares(p, plan, input);
    ASSERT_EQ(shares.size(), plan.machines());
    for (std::uint64_t j = 0; j < plan.machines(); ++j) {
      auto blocks = BlockInboxParser(p).parse({{j, j, shares[j]}}).blocks;
      ASSERT_NE(blocks, nullptr);
      EXPECT_EQ(blocks->indices(), plan.owned_by(j));
      for (std::uint64_t b : plan.owned_by(j)) EXPECT_EQ(*blocks->find(b), input.block(b));
    }
  }
}

/// walk_owned from node 1 of a params() chain, with every block local but
/// `missing` (0: none) and a budget of `q` queries.
struct Walk {
  explicit Walk(std::uint64_t q, std::uint64_t missing = 0)
      : oracle(std::make_shared<hash::LazyRandomOracle>(64, 64, 5), 0, q, nullptr) {
    for (std::uint64_t b = 1; b <= p.v; ++b) {
      if (b != missing) blocks.add(b, input.block(b));
    }
  }
  WalkRun step() { return walk_owned(core::LineCodec(p), blocks, f, oracle); }

  core::LineParams p = params();
  util::Rng rng{4};
  core::LineInput input = core::LineInput::random(p, rng);
  BlockSet blocks{p};
  hash::CountingOracle oracle;
  Frontier f{1, 1, BitString(p.u)};
};

TEST(WalkOwned, WalksTheWholeChainWhenEveryBlockIsLocal) {
  Walk walk(100);
  WalkRun run = walk.step();
  EXPECT_EQ(run.advanced, walk.p.w);
  EXPECT_EQ(walk.f.next_index, walk.p.w + 1);
  hash::LazyRandomOracle reference(64, 64, 5);
  EXPECT_EQ(run.last_answer, core::LineFunction(walk.p).evaluate(reference, walk.input));
}

TEST(WalkOwned, StopsOnAMissingBlock) {
  Walk probe(4);  // four nodes in, the frontier names ℓ_5
  probe.step();
  Walk walk(100, probe.f.ell);
  WalkRun run = walk.step();
  EXPECT_EQ(walk.f.ell, probe.f.ell);
  EXPECT_GT(run.advanced, 0u);
  EXPECT_LE(run.advanced, 4u);
  EXPECT_EQ(walk.f.next_index, run.advanced + 1);
  EXPECT_EQ(walk.oracle.queries_this_round(), run.advanced);
}

TEST(WalkOwned, StopsAtAZeroBudgetAndPastTheEnd) {
  Walk walk(2);
  EXPECT_EQ(walk.step().advanced, 2u);
  // At a budget of 0 no query is issued (it would throw) and the frontier
  // stays where it is.
  EXPECT_EQ(walk.step().advanced, 0u);
  EXPECT_EQ(walk.f.next_index, 3u);

  Walk done(100);
  done.f.next_index = done.p.w + 1;
  EXPECT_EQ(done.step().advanced, 0u);
  EXPECT_EQ(done.oracle.queries_this_round(), 0u);
}

}  // namespace
}  // namespace mpch::strategies
