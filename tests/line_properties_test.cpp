// line_properties_test.cpp — parameterised property sweeps tying the Line /
// SimLine functions and their strategies together across a parameter grid.
#include <gtest/gtest.h>

#include "core/line.hpp"
#include "core/simline.hpp"
#include "hash/blake2s.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "strategies/pipelined_simline.hpp"
#include "strategies/pointer_chasing.hpp"
#include "util/rng.hpp"

namespace mpch {
namespace {

struct GridPoint {
  std::uint64_t u;
  std::uint64_t v;
  std::uint64_t w;
  std::uint64_t machines;
};

class LineGridTest : public ::testing::TestWithParam<GridPoint> {
 protected:
  core::LineParams make_params() const {
    const GridPoint& g = GetParam();
    return core::LineParams::make(3 * g.u + 16, g.u, g.v, g.w);
  }
};

TEST_P(LineGridTest, ChainIsInternallyConsistent) {
  core::LineParams p = make_params();
  hash::LazyRandomOracle oracle(p.n, p.n, p.u * 1000 + p.v * 10 + p.w);
  util::Rng rng(p.w);
  core::LineInput input = core::LineInput::random(p, rng);
  core::LineChain chain = core::LineFunction(p).evaluate_chain(oracle, input);
  core::LineCodec codec(p);

  ASSERT_EQ(chain.nodes.size(), p.w);
  for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
    const auto& node = chain.nodes[i];
    ASSERT_GE(node.ell, 1u);
    ASSERT_LE(node.ell, p.v);
    core::LineQuery q = codec.decode_query(node.query);
    ASSERT_EQ(q.index, i + 1);
    ASSERT_EQ(q.x, input.block(node.ell));
    // Answers are the oracle's; re-querying is stable.
    ASSERT_EQ(oracle.query(node.query), node.answer);
  }
}

TEST_P(LineGridTest, MpcMatchesRamEverywhereOnTheGrid) {
  const GridPoint& g = GetParam();
  core::LineParams p = make_params();
  auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 31 * p.v + p.w);
  util::Rng rng(17 * p.u + p.w);
  core::LineInput input = core::LineInput::random(p, rng);
  util::BitString expected = core::LineFunction(p).evaluate(*oracle, input);

  strategies::PointerChasingStrategy strat(
      p, strategies::OwnershipPlan::round_robin(p, g.machines));
  mpc::MpcConfig c;
  c.machines = g.machines;
  c.local_memory_bits = strat.required_local_memory();
  c.query_budget = 1 << 20;
  c.max_rounds = 1 << 20;
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.output, expected);
  // Honest strategy: exactly w queries, rounds in [w/max_advance, w].
  EXPECT_EQ(result.trace.total_oracle_queries(), p.w);
  EXPECT_LE(result.rounds_used, p.w);
}

TEST_P(LineGridTest, SimLinePipelineMatchesClosedFormEverywhere) {
  const GridPoint& g = GetParam();
  core::LineParams p = make_params();
  auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 77 * p.v + p.w);
  util::Rng rng(19 * p.u + p.w);
  core::LineInput input = core::LineInput::random(p, rng);
  util::BitString expected = core::SimLineFunction(p).evaluate(*oracle, input);

  std::uint64_t window = std::max<std::uint64_t>(1, p.v / g.machines);
  strategies::PipelinedSimLineStrategy strat(
      p, strategies::OwnershipPlan::windows(p, g.machines, window));
  mpc::MpcConfig c;
  c.machines = g.machines;
  c.local_memory_bits = strat.required_local_memory();
  c.query_budget = 1 << 20;
  c.max_rounds = 1 << 20;
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.output, expected);
  EXPECT_EQ(result.rounds_used, strat.predicted_rounds());
}

constexpr GridPoint kGrid[] = {{8, 4, 16, 2},    {8, 8, 64, 4},   {16, 8, 32, 3},
                               {16, 16, 128, 4}, {16, 32, 64, 8}, {24, 8, 96, 5},
                               {12, 16, 48, 16}};

INSTANTIATE_TEST_SUITE_P(Grid, LineGridTest, ::testing::ValuesIn(kGrid),
                         [](const ::testing::TestParamInfo<GridPoint>& param_info) {
                           const GridPoint& g = param_info.param;
                           return std::string("u").append(std::to_string(g.u)).append("v")
                               .append(std::to_string(g.v)).append("w").append(std::to_string(g.w))
                               .append("m").append(std::to_string(g.machines));
                         });

// Oracle-instantiation grid: the function is well-defined under every
// oracle implementation.
class OracleKindTest : public ::testing::TestWithParam<int> {};

TEST_P(OracleKindTest, EvaluationStableAndWidthCorrect) {
  core::LineParams p = core::LineParams::make(64, 16, 8, 32);
  std::shared_ptr<hash::RandomOracle> oracle;
  util::Rng table_rng(5);
  switch (GetParam()) {
    case 0:
      oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 1);
      break;
    case 1:
      oracle = std::make_shared<hash::Sha256Oracle>(p.n, p.n);
      break;
    case 2:
      oracle = std::make_shared<hash::Blake2sOracle>(p.n, p.n);
      break;
    default:
      GTEST_FAIL();
  }
  util::Rng rng(6);
  core::LineInput input = core::LineInput::random(p, rng);
  core::LineFunction f(p);
  util::BitString out1 = f.evaluate(*oracle, input);
  util::BitString out2 = f.evaluate(*oracle, input);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out1.size(), p.n);
}

std::string oracle_kind_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"LazyRO", "Sha256", "Blake2s"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Oracles, OracleKindTest, ::testing::Values(0, 1, 2),
                         oracle_kind_name);

}  // namespace
}  // namespace mpch
