#include "strategies/pointer_chasing.hpp"

#include <stdexcept>

namespace mpch::strategies {

PointerChasingStrategy::PointerChasingStrategy(const core::LineParams& params, OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)), parser_(params) {}

std::vector<util::BitString> PointerChasingStrategy::make_initial_memory(
    const core::LineInput& input) const {
  return block_shares(params_, plan_, input);
}

std::uint64_t PointerChasingStrategy::required_local_memory() const {
  return walk_memory_bits(params_, plan_, 1);
}

analysis::ProtocolSpec PointerChasingStrategy::protocol_spec() const {
  // Up to the whole remaining chain per round, if it is locally owned.
  return walk_spec(name(), params_, plan_, 1, params_.w);
}

void PointerChasingStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                         const mpc::SharedTape& /*tape*/,
                                         mpc::RoundTrace& trace) {
  if (oracle == nullptr) {
    throw std::invalid_argument("PointerChasingStrategy requires an oracle");
  }
  BlockInbox inbox = parser_.parse(*io.inbox);

  // Round 0: the owner of block ℓ_1 = 1 bootstraps the frontier
  // (ℓ_1 = 1, r_1 = 0^u — public constants, no communication needed).
  if (io.round == 0 && !inbox.frontier && inbox.blocks && inbox.blocks->contains(1) &&
      plan_.owner_of(1) == io.machine) {
    inbox.frontier = Frontier{1, 1, util::BitString(params_.u)};
  }

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    Frontier& f = *inbox.frontier;
    WalkRun run = walk_owned(codec_, *inbox.blocks, f, *oracle);
    advanced = run.advanced;

    if (f.next_index > params_.w && advanced > 0) {
      // Finished: the output is the answer to the last correct query.
      io.output = std::move(run.last_answer);
    } else if (f.next_index > params_.w) {
      // Frontier arrived already complete (w advanced in an earlier round) —
      // cannot happen because the finisher outputs immediately, but guard.
      throw std::logic_error("PointerChasingStrategy: finished frontier without answer");
    } else {
      // Miss: hand the frontier to an owner of the needed block.
      auto owner = plan_.owner_of(f.ell);
      if (!owner.has_value()) {
        throw std::logic_error("PointerChasingStrategy: block " + std::to_string(f.ell) +
                               " has no owner; the plan must cover [1, v]");
      }
      io.send(*owner, frontier_message(params_, f));
    }
  }
  trace.annotate("advance", advanced);

  // Persist the block set (memory survives only through messages).
  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
