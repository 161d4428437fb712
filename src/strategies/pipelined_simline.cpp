#include "strategies/pipelined_simline.hpp"

#include <algorithm>
#include <stdexcept>

namespace mpch::strategies {

namespace {

/// The owned runs of the public schedule over nodes 1..w: how many there
/// are (one per round) and the longest (the per-round advance bound).
struct OwnedRuns {
  std::uint64_t count = 0;
  std::uint64_t longest = 0;
};

OwnedRuns owned_runs(const core::LineParams& params, const OwnershipPlan& plan) {
  // Simulate the hand-off schedule without touching the oracle: starting at
  // node 1, each round covers the maximal run of scheduled blocks owned by
  // one machine. O(w), like the schedule itself.
  OwnedRuns runs;
  std::uint64_t i = 1;
  while (i <= params.w) {
    const std::uint64_t block = (i - 1) % params.v + 1;
    auto owner = plan.owner_of(block);
    if (!owner.has_value()) {
      throw std::logic_error("PipelinedSimLineStrategy: uncovered block " + std::to_string(block));
    }
    std::uint64_t run = 0;
    while (i <= params.w && plan.owner_of((i - 1) % params.v + 1) == owner) {
      ++i;
      ++run;
    }
    ++runs.count;
    runs.longest = std::max(runs.longest, run);
  }
  return runs;
}

}  // namespace

PipelinedSimLineStrategy::PipelinedSimLineStrategy(const core::LineParams& params,
                                                   OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)), parser_(params) {}

std::vector<util::BitString> PipelinedSimLineStrategy::make_initial_memory(
    const core::LineInput& input) const {
  return block_shares(params_, plan_, input);
}

std::uint64_t PipelinedSimLineStrategy::required_local_memory() const {
  return walk_memory_bits(params_, plan_, 1);
}

std::uint64_t PipelinedSimLineStrategy::predicted_rounds() const {
  return owned_runs(params_, plan_).count;
}

std::uint64_t PipelinedSimLineStrategy::worst_round_advance() const {
  return owned_runs(params_, plan_).longest;
}

analysis::ProtocolSpec PipelinedSimLineStrategy::protocol_spec() const {
  return walk_spec(name(), params_, plan_, 1, worst_round_advance());
}

void PipelinedSimLineStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                           const mpc::SharedTape& /*tape*/,
                                           mpc::RoundTrace& trace) {
  if (oracle == nullptr) {
    throw std::invalid_argument("PipelinedSimLineStrategy requires an oracle");
  }
  BlockInbox inbox = parser_.parse(*io.inbox);

  // Bootstrap: node 1 consumes block 1 (its scheduled block); its owner
  // starts with r_1 = 0^u.
  if (io.round == 0 && !inbox.frontier && inbox.blocks && plan_.owner_of(1) == io.machine) {
    inbox.frontier = Frontier{1, 1, util::BitString(params_.u)};
  }

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    // The SimLine walk: node i reads the scheduled block (i-1) mod v + 1.
    Frontier& f = *inbox.frontier;
    util::BitString last_answer;
    while (f.next_index <= params_.w && oracle->remaining_budget() > 0) {
      const util::BitString* x = inbox.blocks->find((f.next_index - 1) % params_.v + 1);
      if (x == nullptr) break;
      last_answer = oracle->query(codec_.encode_query(*x, f.r));
      f.r = codec_.decode_answer(last_answer).r;
      f.next_index += 1;
      ++advanced;
    }

    if (f.next_index > params_.w && advanced > 0) {
      io.output = std::move(last_answer);
    } else {
      std::uint64_t block = (f.next_index - 1) % params_.v + 1;
      f.ell = block;
      auto owner = plan_.owner_of(block);
      if (!owner.has_value()) {
        throw std::logic_error("PipelinedSimLineStrategy: uncovered block " +
                               std::to_string(block));
      }
      io.send(*owner, frontier_message(params_, f));
    }
  }
  trace.annotate("advance", advanced);

  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
