// bitstring.hpp — arbitrary-length bit vectors with slicing and packing.
//
// The paper manipulates objects measured in *bits*: inputs x_i of u bits,
// oracle domain/range of n bits, memory states of s bits. BitString is the
// common currency for all of them. Bits are indexed MSB-first within the
// logical string (bit 0 is the leftmost / most significant), which matches
// the paper's "parse the input as v strings of u bits" convention.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace mpch::util {

/// A dynamically sized string of bits.
///
/// Storage is byte-packed. Positional operations (get/set, get_uint/set_uint,
/// slice, splice, truncate) are range-checked in every build type and throw
/// std::out_of_range on a bad index or range; width and length mismatches
/// (a uint field over 64 bits, XOR of unequal lengths) throw
/// std::invalid_argument. Equality, hashing, and lexicographic comparison
/// treat the value as the exact bit sequence (two BitStrings of different
/// length are never equal even if one is a zero-padded version of the other).
class BitString {
 public:
  BitString() = default;

  /// An all-zero string of `nbits` bits.
  explicit BitString(std::size_t nbits);

  /// The low `nbits` bits of `value`, MSB-first. Requires nbits <= 64.
  static BitString from_uint(std::uint64_t value, std::size_t nbits);

  /// Parse a string of '0'/'1' characters.
  static BitString from_binary_string(const std::string& bits);

  /// Wrap a full byte buffer (length = 8 * bytes.size() bits).
  static BitString from_bytes(const std::vector<std::uint8_t>& bytes);

  /// A uniformly random string of `nbits` bits drawn from `next_u64`,
  /// a callable returning fresh 64-bit words.
  template <typename NextU64>
  static BitString random(std::size_t nbits, NextU64&& next_u64) {
    BitString out(nbits);
    std::size_t full_words = nbits / 64;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < full_words; ++i, pos += 64) {
      out.set_uint(pos, 64, next_u64());
    }
    if (std::size_t rem = nbits % 64; rem != 0) {
      out.set_uint(pos, rem, next_u64() & ((rem == 64) ? ~0ULL : ((1ULL << rem) - 1)));
    }
    return out;
  }

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool v);

  /// Read `len` bits starting at `pos` as an unsigned integer (len <= 64).
  std::uint64_t get_uint(std::size_t pos, std::size_t len) const;

  /// Write the low `len` bits of `value` at `pos` (len <= 64).
  void set_uint(std::size_t pos, std::size_t len, std::uint64_t value);

  /// Copy of bits [pos, pos+len).
  BitString slice(std::size_t pos, std::size_t len) const;

  /// Overwrite bits [pos, pos+other.size()) with `other`.
  void splice(std::size_t pos, const BitString& other);

  /// Concatenation.
  BitString operator+(const BitString& rhs) const;
  BitString& operator+=(const BitString& rhs);

  /// Append `len` zero bits (the paper's `0*` padding).
  void pad_zeros(std::size_t len);

  /// Truncate to the first `len` bits. Requires len <= size().
  void truncate(std::size_t len);

  /// Bitwise XOR; both operands must have equal length.
  BitString operator^(const BitString& rhs) const;

  bool operator==(const BitString& rhs) const;
  bool operator!=(const BitString& rhs) const { return !(*this == rhs); }
  /// Lexicographic by (length, bits) so BitString can key ordered maps.
  bool operator<(const BitString& rhs) const;

  /// Number of set bits.
  std::size_t popcount() const;

  /// '0'/'1' rendering, MSB first.
  std::string to_binary_string() const;
  /// Hex rendering (bit length padded up to a nibble boundary for display).
  std::string to_hex_string() const;

  /// Stable 64-bit hash of (length, contents) — used for hash maps keyed by
  /// oracle inputs and for cheap fingerprinting in tests.
  std::uint64_t hash() const;

  /// Underlying packed bytes; the final byte's unused low bits are zero.
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  void assert_range(std::size_t pos, std::size_t len) const;
  // Invariant: bits beyond nbits_ in the final byte are zero; this makes
  // operator== and hash() well-defined on the byte buffer.
  void clear_tail_slack();

  std::vector<std::uint8_t> bytes_;
  std::size_t nbits_ = 0;
};

/// std::hash adapter so BitString can key unordered containers.
struct BitStringHash {
  std::size_t operator()(const BitString& b) const { return static_cast<std::size_t>(b.hash()); }
};

}  // namespace mpch::util
