#include "strategies/speculative.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace mpch::strategies {

SpeculativeStrategy::SpeculativeStrategy(const core::LineParams& params, OwnershipPlan plan,
                                         SpeculativeConfig config, const core::LineInput& truth)
    : params_(params),
      codec_(params),
      plan_(std::move(plan)),
      config_(config),
      truth_(&truth),
      parser_(params) {}

std::vector<util::BitString> SpeculativeStrategy::make_initial_memory(
    const core::LineInput& input) const {
  return block_shares(params_, plan_, input);
}

std::uint64_t SpeculativeStrategy::required_local_memory() const {
  return walk_memory_bits(params_, plan_, 1);
}

analysis::ProtocolSpec SpeculativeStrategy::protocol_spec() const {
  // Every node may cost a full burst of guesses.
  return walk_spec(name(), params_, plan_, 1,
                   params_.w * std::max<std::uint64_t>(1, config_.guesses_per_stall));
}

void SpeculativeStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                      const mpc::SharedTape& tape, mpc::RoundTrace& trace) {
  if (oracle == nullptr) throw std::invalid_argument("SpeculativeStrategy requires an oracle");
  BlockInbox inbox = parser_.parse(*io.inbox);

  if (io.round == 0 && !inbox.frontier && inbox.blocks && plan_.owner_of(1) == io.machine) {
    inbox.frontier = Frontier{1, 1, util::BitString(params_.u)};
  }

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    Frontier& f = *inbox.frontier;
    WalkRun run = walk_owned(codec_, *inbox.blocks, f, *oracle);

    // Stall: the walk stopped on a block this machine does not own. Spend
    // budget guessing x_ℓ; per the charitable-verification model the walk
    // continues from the guess that matches truth_->block(f.ell), if any
    // guess does, and then walks its owned blocks again.
    while (f.next_index <= params_.w && oracle->remaining_budget() > 0 &&
           !inbox.blocks->contains(f.ell)) {
      const util::BitString& target = truth_->block(f.ell);
      std::optional<util::BitString> hit;
      std::uint64_t budget =
          std::min<std::uint64_t>(config_.guesses_per_stall, oracle->remaining_budget());
      for (std::uint64_t g = 0; g < budget; ++g) {
        util::BitString guess(params_.u);
        if (config_.enumerate) {
          if (params_.u <= 63 && g >= (1ULL << params_.u)) break;  // domain exhausted
          guess.set_uint(0, std::min<std::uint64_t>(params_.u, 64), g);
        } else {
          // Shared-tape randomness: position keyed by (round, machine,
          // node, attempt) — deterministic, stateless.
          std::uint64_t word_pos =
              (io.round * 0x9E3779B9ULL + io.machine) * 0x85EBCA6BULL + f.next_index * 631 + g;
          for (std::uint64_t bpos = 0; bpos < params_.u; bpos += 64) {
            std::uint64_t len = std::min<std::uint64_t>(64, params_.u - bpos);
            guess.set_uint(bpos, len, tape.word(word_pos + bpos / 64) >> (64 - len));
          }
        }
        // The guess costs a real oracle query whether or not it hits.
        util::BitString answer = oracle->query(codec_.encode_query(f.next_index, guess, f.r));
        if (guess == target) {
          hit = std::move(answer);
          lucky_escapes_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      if (!hit) break;

      core::LineAnswer a = codec_.decode_answer(*hit);
      f.next_index += 1;
      f.ell = a.ell;
      f.r = std::move(a.r);
      WalkRun owned = walk_owned(codec_, *inbox.blocks, f, *oracle);
      run.advanced += 1 + owned.advanced;
      run.last_answer = owned.advanced > 0 ? std::move(owned.last_answer) : std::move(*hit);
    }
    advanced = run.advanced;

    if (f.next_index > params_.w && advanced > 0) {
      io.output = std::move(run.last_answer);
    } else {
      auto owner = plan_.owner_of(f.ell);
      if (!owner.has_value()) {
        throw std::logic_error("SpeculativeStrategy: uncovered block " + std::to_string(f.ell));
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
