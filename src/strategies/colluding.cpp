#include "strategies/colluding.hpp"

#include <stdexcept>

namespace mpch::strategies {

ColludingStrategy::ColludingStrategy(const core::LineParams& params, OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)), parser_(params) {}

std::vector<util::BitString> ColludingStrategy::make_initial_memory(
    const core::LineInput& input) const {
  return block_shares(params_, plan_, input);
}

std::uint64_t ColludingStrategy::required_local_memory() const {
  return walk_memory_bits(params_, plan_, plan_.machines());
}

analysis::ProtocolSpec ColludingStrategy::protocol_spec() const {
  // One frontier copy to and from every machine.
  return walk_spec(name(), params_, plan_, plan_.machines(), params_.w);
}

void ColludingStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                    const mpc::SharedTape& /*tape*/, mpc::RoundTrace& trace) {
  if (oracle == nullptr) throw std::invalid_argument("ColludingStrategy requires an oracle");
  BlockInbox inbox = parser_.parse(*io.inbox);

  if (io.round == 0 && !inbox.frontier) {
    // Public bootstrap: everyone knows ℓ_1 = 1, r_1 = 0^u.
    inbox.frontier = Frontier{1, 1, util::BitString(params_.u)};
  }

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    Frontier& f = *inbox.frontier;
    WalkRun run = walk_owned(codec_, *inbox.blocks, f, *oracle);
    advanced = run.advanced;

    if (f.next_index > params_.w && advanced > 0) {
      io.output = std::move(run.last_answer);
    } else if (advanced > 0 || io.round == 0) {
      // Broadcast the (possibly unchanged) frontier to everyone; machines
      // that could not advance stay silent to avoid flooding stale copies.
      util::BitString payload = frontier_message(params_, f);
      for (std::uint64_t j = 0; j < plan_.machines(); ++j) io.send(j, payload);
    }
  }
  trace.annotate("advance", advanced);

  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
