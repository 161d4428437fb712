// interval.hpp — closed u64 intervals, the abstract domain of the verifier.
//
// An Interval [lo, hi] over-approximates the set of values a register (or a
// memory word) can hold. Transfer functions are sound for the word-RAM's
// wrapping 64-bit semantics: whenever a result could wrap, the function
// returns top ([0, 2^64-1]) rather than a wrong tight bound. There is no
// bottom element — unreachable states are represented by absent entries in
// the interpreter's per-pc state table instead.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace mpch::verify {

struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  static constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

  static Interval all() { return {0, kMax}; }
  static Interval constant(std::uint64_t v) { return {v, v}; }

  bool is_constant() const { return lo == hi; }
  bool is_top() const { return lo == 0 && hi == kMax; }
  bool contains(std::uint64_t v) const { return lo <= v && v <= hi; }
  bool operator==(const Interval&) const = default;

  Interval join(const Interval& rhs) const {
    return {std::min(lo, rhs.lo), std::max(hi, rhs.hi)};
  }

  /// Widening: any bound that moved since `prev` jumps straight to the
  /// extreme, guaranteeing the fixpoint iteration terminates.
  Interval widen_from(const Interval& prev) const {
    return {lo < prev.lo ? 0 : lo, hi > prev.hi ? kMax : hi};
  }

  std::string to_string() const {
    if (is_constant()) return std::string("{").append(std::to_string(lo)).append("}");
    return std::string("[").append(std::to_string(lo)).append(", ")
        .append(hi == kMax ? "max" : std::to_string(hi)).append("]");
  }
};

/// Intersection; empty when the interpreter proves an edge infeasible.
inline std::optional<Interval> interval_meet(const Interval& a, const Interval& b) {
  const std::uint64_t lo = std::max(a.lo, b.lo);
  const std::uint64_t hi = std::min(a.hi, b.hi);
  if (lo > hi) return std::nullopt;
  return Interval{lo, hi};
}

inline bool add_overflows(std::uint64_t a, std::uint64_t b) { return Interval::kMax - a < b; }

inline Interval interval_add(const Interval& a, const Interval& b) {
  if (add_overflows(a.hi, b.hi)) return Interval::all();
  return {a.lo + b.lo, a.hi + b.hi};
}

inline Interval interval_sub(const Interval& a, const Interval& b) {
  if (a.lo < b.hi) return Interval::all();  // some pair may wrap below zero
  return {a.lo - b.hi, a.hi - b.lo};
}

inline Interval interval_mul(const Interval& a, const Interval& b) {
  if (a.hi != 0 && b.hi > Interval::kMax / a.hi) return Interval::all();
  return {a.lo * b.lo, a.hi * b.hi};
}

inline Interval interval_and(const Interval& a, const Interval& b) {
  return {0, std::min(a.hi, b.hi)};
}

/// Smallest all-ones mask covering v (0 -> 0, 5 -> 7, 8 -> 15).
inline std::uint64_t bit_mask_for(std::uint64_t v) {
  return v == 0 ? 0 : (Interval::kMax >> std::countl_zero(v));
}

inline Interval interval_or(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), bit_mask_for(a.hi) | bit_mask_for(b.hi)};
}

inline Interval interval_xor(const Interval& a, const Interval& b) {
  return {0, bit_mask_for(a.hi) | bit_mask_for(b.hi)};
}

/// The machine masks shift counts with & 63 before shifting.
inline Interval effective_shift(const Interval& s) {
  if (s.is_constant()) return Interval::constant(s.lo & 63);
  if (s.hi <= 63) return s;  // masking is the identity on [0, 63]
  return {0, 63};
}

inline Interval interval_shl(const Interval& a, const Interval& shift) {
  const Interval s = effective_shift(shift);
  if (a.hi > (Interval::kMax >> s.hi)) return Interval::all();  // may shift bits out
  return {a.lo << s.lo, a.hi << s.hi};
}

inline Interval interval_shr(const Interval& a, const Interval& shift) {
  const Interval s = effective_shift(shift);
  return {a.lo >> s.hi, a.hi >> s.lo};
}

inline Interval interval_lt(const Interval& a, const Interval& b) {
  if (a.hi < b.lo) return Interval::constant(1);   // always a < b
  if (a.lo >= b.hi) return Interval::constant(0);  // never a < b
  return {0, 1};
}

}  // namespace mpch::verify
