#include "strategies/block_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.hpp"

namespace mpch::strategies {

void BlockSet::add(std::uint64_t index, util::BitString value) {
  if (index == 0 || index > params_.v) {
    throw std::out_of_range("BlockSet::add: block index out of [1, v]");
  }
  if (value.size() != params_.u) {
    throw std::invalid_argument("BlockSet::add: block must be u bits");
  }
  blocks_[index] = std::move(value);
}

const util::BitString* BlockSet::find(std::uint64_t index) const {
  auto it = blocks_.find(index);
  return it == blocks_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> BlockSet::indices() const {
  std::vector<std::uint64_t> out;
  out.reserve(blocks_.size());
  for (const auto& [idx, _] : blocks_) out.push_back(idx);
  std::sort(out.begin(), out.end());
  return out;
}

util::BitString BlockSet::encode() const {
  util::BitWriter w;
  w.write_uint(blocks_.size(), 32);
  for (std::uint64_t idx : indices()) {
    w.write_uint(idx, params_.ell_bits);
    w.write_bits(blocks_.at(idx));
  }
  return w.take();
}

BlockSet BlockSet::decode(const core::LineParams& params, const util::BitString& bits,
                          std::size_t* consumed_bits) {
  util::BitReader r(bits);
  std::uint64_t count = r.read_uint(32);
  BlockSet out(params);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t idx = r.read_uint(params.ell_bits);
    out.add(idx, r.read_bits(params.u));
  }
  if (consumed_bits != nullptr) *consumed_bits = r.position();
  return out;
}

std::uint64_t BlockSet::encoded_bits(const core::LineParams& params, std::uint64_t count) {
  return 32 + count * (params.ell_bits + params.u);
}

util::BitString Frontier::encode(const core::LineParams& params) const {
  util::BitWriter w;
  w.write_uint(next_index, params.index_bits);
  w.write_uint(ell, params.ell_bits);
  if (r.size() != params.u) throw std::invalid_argument("Frontier::encode: r must be u bits");
  w.write_bits(r);
  return w.take();
}

Frontier Frontier::decode(const core::LineParams& params, const util::BitString& bits,
                          std::size_t* consumed_bits) {
  util::BitReader reader(bits);
  Frontier f;
  f.next_index = reader.read_uint(params.index_bits);
  f.ell = reader.read_uint(params.ell_bits);
  f.r = reader.read_bits(params.u);
  if (consumed_bits != nullptr) *consumed_bits = reader.position();
  return f;
}

std::uint64_t Frontier::encoded_bits(const core::LineParams& params) {
  return params.index_bits + params.ell_bits + params.u;
}

BlockInbox BlockInboxParser::parse(const std::vector<mpc::Message>& inbox) {
  BlockInbox out;
  for (const auto& msg : inbox) {
    util::BitReader r(msg.payload);
    auto tag = static_cast<PayloadTag>(r.read_uint(kTagBits));
    if (tag == PayloadTag::kBlocks) {
      out.blocks = decode_blocks(msg.payload);
      out.blocks_payload = msg.payload;
    } else if (tag == PayloadTag::kFrontier) {
      util::BitString body = msg.payload.slice(kTagBits, msg.payload.size() - kTagBits);
      Frontier f = Frontier::decode(params_, body);
      if (!out.frontier || f.next_index > out.frontier->next_index) out.frontier = std::move(f);
    } else {
      throw std::invalid_argument("BlockInboxParser: unknown payload tag");
    }
  }
  return out;
}

std::shared_ptr<const BlockSet> BlockInboxParser::decode_blocks(const util::BitString& payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(payload);
    if (it != cache_.end()) return it->second;
  }
  // Decode outside the lock; if two machines race on the same payload the
  // first emplace wins and both use the winner's parse.
  util::BitString body = payload.slice(kTagBits, payload.size() - kTagBits);
  auto parsed = std::make_shared<const BlockSet>(BlockSet::decode(params_, body));
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.emplace(payload, std::move(parsed)).first->second;
}

OwnershipPlan OwnershipPlan::round_robin(const core::LineParams& params, std::uint64_t machines) {
  if (machines == 0) throw std::invalid_argument("OwnershipPlan::round_robin: zero machines");
  OwnershipPlan plan;
  plan.owners_.resize(machines);
  for (std::uint64_t b = 1; b <= params.v; ++b) {
    std::uint64_t owner = (b - 1) % machines;
    plan.owners_[owner].push_back(b);
    plan.lookup_.emplace(b, owner);
  }
  return plan;
}

OwnershipPlan OwnershipPlan::windows(const core::LineParams& params, std::uint64_t machines,
                                     std::uint64_t window) {
  if (machines == 0) throw std::invalid_argument("OwnershipPlan::windows: zero machines");
  if (window == 0) throw std::invalid_argument("OwnershipPlan::windows: zero window");
  OwnershipPlan plan;
  plan.owners_.resize(machines);
  std::uint64_t num_windows = util::ceil_div(params.v, window);
  for (std::uint64_t wi = 0; wi < num_windows; ++wi) {
    std::uint64_t owner = wi % machines;
    for (std::uint64_t b = wi * window + 1; b <= std::min(params.v, (wi + 1) * window); ++b) {
      plan.owners_[owner].push_back(b);
      plan.lookup_.emplace(b, owner);
    }
  }
  for (auto& blocks : plan.owners_) std::sort(blocks.begin(), blocks.end());
  return plan;
}

OwnershipPlan OwnershipPlan::replicated(const core::LineParams& params, std::uint64_t machines,
                                        std::uint64_t per_machine) {
  if (machines == 0) throw std::invalid_argument("OwnershipPlan::replicated: zero machines");
  per_machine = std::min(per_machine, params.v);
  OwnershipPlan plan;
  plan.owners_.resize(machines);
  // Rotate starting offsets so the union covers as much of [v] as possible.
  std::uint64_t stride = std::max<std::uint64_t>(1, params.v / machines);
  for (std::uint64_t j = 0; j < machines; ++j) {
    for (std::uint64_t t = 0; t < per_machine; ++t) {
      std::uint64_t b = (j * stride + t) % params.v + 1;
      plan.owners_[j].push_back(b);
      plan.lookup_.emplace(b, j);  // keeps the first owner; any owner works
    }
    std::sort(plan.owners_[j].begin(), plan.owners_[j].end());
    plan.owners_[j].erase(std::unique(plan.owners_[j].begin(), plan.owners_[j].end()),
                          plan.owners_[j].end());
  }
  // A replication plan must still cover every block or pointer-chasing can
  // strand the frontier; fail loudly rather than at hand-off time.
  for (std::uint64_t b = 1; b <= params.v; ++b) {
    if (!plan.lookup_.count(b)) {
      throw std::invalid_argument(
          "OwnershipPlan::replicated: block " + std::to_string(b) +
          " uncovered (need machines*per_machine >= v with overlapping strides)");
    }
  }
  return plan;
}

std::optional<std::uint64_t> OwnershipPlan::owner_of(std::uint64_t index) const {
  auto it = lookup_.find(index);
  if (it == lookup_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t OwnershipPlan::max_owned() const {
  std::uint64_t best = 0;
  for (const auto& blocks : owners_) best = std::max<std::uint64_t>(best, blocks.size());
  return best;
}

std::uint64_t OwnershipPlan::heaviest_machine() const {
  std::uint64_t best = 0;
  for (std::uint64_t j = 1; j < owners_.size(); ++j) {
    if (owners_[j].size() > owners_[best].size()) best = j;
  }
  return best;
}

std::vector<util::BitString> block_shares(const core::LineParams& params, const OwnershipPlan& plan,
                                          const core::LineInput& input) {
  std::vector<util::BitString> shares;
  shares.reserve(plan.machines());
  for (std::uint64_t j = 0; j < plan.machines(); ++j) {
    BlockSet set(params);
    for (std::uint64_t b : plan.owned_by(j)) set.add(b, input.block(b));
    util::BitWriter w;
    w.write_uint(static_cast<std::uint64_t>(PayloadTag::kBlocks), kTagBits);
    w.write_bits(set.encode());
    shares.push_back(w.take());
  }
  return shares;
}

util::BitString frontier_message(const core::LineParams& params, const Frontier& frontier) {
  util::BitWriter w;
  w.write_uint(static_cast<std::uint64_t>(PayloadTag::kFrontier), kTagBits);
  w.write_bits(frontier.encode(params));
  return w.take();
}

WalkRun walk_owned(const core::LineCodec& codec, const BlockSet& blocks, Frontier& frontier,
                   hash::CountingOracle& oracle) {
  const std::uint64_t w = codec.params().w;
  WalkRun run;
  const util::BitString* x = nullptr;
  while (frontier.next_index <= w && (x = blocks.find(frontier.ell)) != nullptr &&
         oracle.remaining_budget() > 0) {
    run.last_answer = oracle.query(codec.encode_query(frontier.next_index, *x, frontier.r));
    core::LineAnswer a = codec.decode_answer(run.last_answer);
    frontier.next_index += 1;
    frontier.ell = a.ell;
    frontier.r = std::move(a.r);
    ++run.advanced;
  }
  return run;
}

std::uint64_t walk_memory_bits(const core::LineParams& params, const OwnershipPlan& plan,
                               std::uint64_t frontier_copies) {
  return kTagBits + BlockSet::encoded_bits(params, plan.max_owned()) +
         frontier_copies * (kTagBits + Frontier::encoded_bits(params));
}

analysis::ProtocolSpec walk_spec(const std::string& name, const core::LineParams& params,
                                 const OwnershipPlan& plan, std::uint64_t frontier_copies,
                                 std::uint64_t oracle_queries) {
  const std::uint64_t memory_bits = walk_memory_bits(params, plan, frontier_copies);
  const std::uint64_t blocks_bits = kTagBits + BlockSet::encoded_bits(params, plan.max_owned());
  const std::uint64_t frontier_bits = kTagBits + Frontier::encoded_bits(params);
  // Once bootstrapped, every round advances the frontier by >= 1 node (a
  // hand-off goes to an owner of the missing block): at most w rounds.
  return {.protocol = name,
          .machines = plan.machines(),
          .max_rounds = params.w,
          .needs_oracle = true,
          .clamps_queries_to_budget = true,
          .prologue = {},
          .steady = {.memory_bits = memory_bits,
                     .oracle_queries = oracle_queries,
                     .fan_out = 1 + frontier_copies,  // blocks-to-self + the frontier copies
                     .fan_in = 1 + frontier_copies,
                     .sent_bits = memory_bits,
                     .recv_bits = memory_bits,
                     .max_message_bits = std::max(blocks_bits, frontier_bits),
                     .witness_machine = plan.heaviest_machine()}};
}

}  // namespace mpch::strategies
