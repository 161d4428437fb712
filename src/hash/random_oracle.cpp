#include "hash/random_oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "hash/sha256.hpp"

namespace mpch::hash {

void RandomOracle::check_input(const util::BitString& input) const {
  if (input.size() != input_bits()) {
    throw std::invalid_argument("RandomOracle: input has " + std::to_string(input.size()) +
                                " bits, oracle domain is " + std::to_string(input_bits()));
  }
}

util::BitString sha256_expand(const std::vector<std::uint8_t>& prefix, std::size_t out_bits) {
  util::BitString out;
  std::uint32_t counter = 0;
  while (out.size() < out_bits) {
    Sha256 h;
    h.update(prefix);
    std::uint8_t ctr_bytes[4] = {static_cast<std::uint8_t>(counter >> 24),
                                 static_cast<std::uint8_t>(counter >> 16),
                                 static_cast<std::uint8_t>(counter >> 8),
                                 static_cast<std::uint8_t>(counter)};
    h.update(ctr_bytes, 4);
    Sha256::Digest d = h.digest();
    out += util::BitString::from_bytes(std::vector<std::uint8_t>(d.begin(), d.end()));
    ++counter;
  }
  out.truncate(out_bits);
  return out;
}

// ---------------------------------------------------------------- Lazy RO

LazyRandomOracle::LazyRandomOracle(std::size_t in_bits, std::size_t out_bits, std::uint64_t seed)
    : in_bits_(in_bits), out_bits_(out_bits), seed_(seed) {
  if (in_bits == 0 || out_bits == 0) {
    throw std::invalid_argument("LazyRandomOracle: zero-width domain or range");
  }
}

util::BitString LazyRandomOracle::derive(const util::BitString& input) const {
  // PRF(seed, input): prefix = "LRO" || seed || input-bytes || input-bitlen.
  std::vector<std::uint8_t> prefix;
  prefix.reserve(3 + 8 + input.bytes().size() + 8);
  prefix.push_back('L');
  prefix.push_back('R');
  prefix.push_back('O');
  for (int i = 0; i < 8; ++i) prefix.push_back(static_cast<std::uint8_t>(seed_ >> (i * 8)));
  const auto& bytes = input.bytes();
  prefix.insert(prefix.end(), bytes.begin(), bytes.end());
  std::uint64_t len = input.size();
  for (int i = 0; i < 8; ++i) prefix.push_back(static_cast<std::uint8_t>(len >> (i * 8)));
  return sha256_expand(prefix, out_bits_);
}

util::BitString LazyRandomOracle::query(const util::BitString& input) {
  check_input(input);
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shard_for(input);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.table.find(input);
    if (it != shard.table.end()) return it->second;
  }
  // Miss: derive outside the lock (SHA work). Two racing threads derive
  // the same pure value, so whichever emplace wins the table is unchanged
  // either way.
  util::BitString answer = derive(input);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.table.emplace(input, std::move(answer));
  return it->second;
}

std::size_t LazyRandomOracle::touched_entries() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.table.size();
  }
  return total;
}

std::vector<std::pair<util::BitString, util::BitString>> LazyRandomOracle::touched_table() const {
  std::vector<std::pair<util::BitString, util::BitString>> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.insert(out.end(), s.table.begin(), s.table.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void LazyRandomOracle::restore_table(
    const std::vector<std::pair<util::BitString, util::BitString>>& entries,
    std::uint64_t total_queries) {
  for (const auto& [input, output] : entries) {
    check_input(input);
    if (derive(input) != output) {
      throw std::invalid_argument(
          "LazyRandomOracle::restore_table: stored answer for input " + input.to_hex_string() +
          " does not match this oracle's seed (snapshot from a different oracle, or corrupted)");
    }
    Shard& s = shard_for(input);
    std::lock_guard<std::mutex> lock(s.mu);
    s.table.emplace(input, output);
  }
  total_queries_.store(total_queries, std::memory_order_relaxed);
}

bool LazyRandomOracle::corrupt_memo_entry(std::size_t entry_index, std::size_t bit_index) {
  // Resolve the sorted-order index to its input first; the flip itself then
  // happens under the owning shard's lock.
  auto entries = touched_table();
  if (entry_index >= entries.size()) return false;
  const util::BitString& input = entries[entry_index].first;
  Shard& s = shard_for(input);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.table.find(input);
  if (it == s.table.end()) return false;
  std::size_t bit = bit_index % out_bits_;
  it->second.set(bit, !it->second.get(bit));
  return true;
}

std::vector<util::BitString> LazyRandomOracle::verify_memo() const {
  std::vector<util::BitString> bad;
  for (const auto& [input, output] : touched_table()) {
    if (derive(input) != output) bad.push_back(input);
  }
  return bad;
}

// ---------------------------------------------------------- Exhaustive RO

ExhaustiveRandomOracle::ExhaustiveRandomOracle(std::size_t in_bits, std::size_t out_bits,
                                               util::Rng& rng)
    : in_bits_(in_bits), out_bits_(out_bits) {
  if (in_bits > 22) {
    throw std::invalid_argument("ExhaustiveRandomOracle: in_bits > 22 would materialise > 4M "
                                "entries; use LazyRandomOracle");
  }
  std::uint64_t entries = 1ULL << in_bits;
  table_.reserve(entries);
  for (std::uint64_t i = 0; i < entries; ++i) {
    table_.push_back(util::BitString::random(out_bits, [&rng] { return rng.next_u64(); }));
  }
}

util::BitString ExhaustiveRandomOracle::query(const util::BitString& input) {
  check_input(input);
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  return table_[input.get_uint(0, in_bits_)];
}

void ExhaustiveRandomOracle::set_entry(std::uint64_t index, util::BitString value) {
  if (index >= table_.size()) throw std::out_of_range("ExhaustiveRandomOracle::set_entry");
  if (value.size() != out_bits_) {
    throw std::invalid_argument("ExhaustiveRandomOracle::set_entry: wrong value width");
  }
  table_[index] = std::move(value);
}

std::uint64_t ExhaustiveRandomOracle::table_bits() const {
  return static_cast<std::uint64_t>(out_bits_) << in_bits_;
}

// -------------------------------------------------------------- SHA-256 h

Sha256Oracle::Sha256Oracle(std::size_t in_bits, std::size_t out_bits)
    : in_bits_(in_bits), out_bits_(out_bits) {
  if (in_bits == 0 || out_bits == 0) {
    throw std::invalid_argument("Sha256Oracle: zero-width domain or range");
  }
}

util::BitString Sha256Oracle::query(const util::BitString& input) {
  check_input(input);
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t> prefix;
  prefix.reserve(3 + input.bytes().size() + 8);
  prefix.push_back('S');
  prefix.push_back('H');
  prefix.push_back('A');
  const auto& bytes = input.bytes();
  prefix.insert(prefix.end(), bytes.begin(), bytes.end());
  std::uint64_t len = input.size();
  for (int i = 0; i < 8; ++i) prefix.push_back(static_cast<std::uint8_t>(len >> (i * 8)));
  return sha256_expand(prefix, out_bits_);
}

}  // namespace mpch::hash
