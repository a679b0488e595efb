// Ternary cubes in positional (two-bit-per-variable) notation.
//
// A cube over n <= 20 inputs stores two bit masks: `mask0` (the cube admits
// x_j = 0) and `mask1` (the cube admits x_j = 1). Per variable:
//   mask0=1, mask1=0  -> literal  !x_j
//   mask0=0, mask1=1  -> literal   x_j
//   mask0=1, mask1=1  -> variable absent (don't care)
//   mask0=0, mask1=0  -> empty cube (contradiction)
// This is the representation used by ESPRESSO and makes intersection and
// containment pure bit arithmetic; for_each_cube_word maps a cube onto the
// words of a 2^n-minterm bitset.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/bits.hpp"

namespace rdc {

struct Cube {
  std::uint32_t mask0 = 0;
  std::uint32_t mask1 = 0;

  /// The universal cube (no literals) over n variables.
  static Cube full(unsigned n) {
    const std::uint32_t all = (n == 32) ? ~0u : ((1u << n) - 1);
    return Cube{all, all};
  }

  /// The cube containing exactly one minterm.
  static Cube minterm(std::uint32_t m, unsigned n) {
    const std::uint32_t all = (1u << n) - 1;
    return Cube{static_cast<std::uint32_t>(~m) & all, m};
  }

  /// Parses an espresso-style input part, e.g. "1-0". Throws on bad chars.
  static Cube parse(const std::string& text);

  bool operator==(const Cube&) const = default;

  /// True iff some variable admits neither value.
  bool empty(unsigned n) const {
    const std::uint32_t all = (1u << n) - 1;
    return ((mask0 | mask1) & all) != all;
  }

  /// Number of literals (variables fixed to a single value).
  unsigned literal_count(unsigned n) const {
    const std::uint32_t all = (1u << n) - 1;
    return static_cast<unsigned>(std::popcount((mask0 ^ mask1) & all));
  }

  /// Number of minterms contained: 2^(n - literals).
  std::uint32_t minterm_count(unsigned n) const {
    return empty(n) ? 0 : (1u << (n - literal_count(n)));
  }

  bool contains_minterm(std::uint32_t m, unsigned n) const {
    const std::uint32_t all = (1u << n) - 1;
    // Every variable set to 1 in m must be admitted by mask1, every variable
    // set to 0 by mask0.
    return (m & all & ~mask1) == 0 && (~m & all & ~mask0) == 0;
  }

  /// True iff this cube contains `other` (other implies this).
  bool contains(const Cube& other) const {
    return (other.mask0 & ~mask0) == 0 && (other.mask1 & ~mask1) == 0;
  }

  /// Intersection (may be empty).
  Cube intersect(const Cube& other) const {
    return Cube{mask0 & other.mask0, mask1 & other.mask1};
  }

  /// True iff the intersection is non-empty.
  bool intersects(const Cube& other, unsigned n) const {
    return !intersect(other).empty(n);
  }

  /// Distance: number of variables where the two cubes conflict (empty part).
  unsigned conflict_count(const Cube& other, unsigned n) const {
    const Cube x = intersect(other);
    const std::uint32_t all = (1u << n) - 1;
    return static_cast<unsigned>(
        std::popcount(static_cast<std::uint32_t>(~(x.mask0 | x.mask1)) & all));
  }

  /// Raise variable j to don't-care.
  Cube expanded(unsigned j) const {
    return Cube{mask0 | (1u << j), mask1 | (1u << j)};
  }

  /// Restrict variable j to value v (0/1).
  Cube restricted(unsigned j, bool v) const {
    Cube c = *this;
    if (v)
      c.mask0 &= ~(1u << j);
    else
      c.mask1 &= ~(1u << j);
    return c;
  }

  /// Espresso-style text, e.g. "1-0" (variable 0 first).
  std::string to_string(unsigned n) const;
};

/// Calls `fn(w, lanes)` for every word `w` of a 2^n-minterm bitset that
/// cube `c` meets, in increasing order; bit b of `lanes` marks minterm
/// 64w + b of the cube. Inputs below 6 pick lanes within a word (the
/// exhaustive input patterns), inputs from 6 up pick words (bit i - 6 of
/// the word index), so only the words the cube meets are visited. If `fn`
/// returns bool, the walk stops at the first true and returns true.
template <typename Fn>
bool for_each_cube_word(const Cube& c, unsigned n, Fn&& fn) {
  if (c.empty(n)) return false;
  std::uint64_t lanes = n < 6 ? (1ull << (1u << n)) - 1 : ~0ull;
  for (unsigned j = 0; j < std::min(n, 6u); ++j) {
    const std::uint64_t pattern = exhaustive_input_word(j, 0);
    if (!test_bit(c.mask1, j)) lanes &= ~pattern;
    if (!test_bit(c.mask0, j)) lanes &= pattern;
  }
  const std::uint32_t word_bits = n > 6 ? (1u << (n - 6)) - 1 : 0;
  const std::uint32_t free_words = ((c.mask0 & c.mask1) >> 6) & word_bits;
  const std::uint32_t one_words = ((c.mask1 & ~c.mask0) >> 6) & word_bits;
  std::uint32_t sub = 0;  // walks every subset of free_words
  do {
    const std::size_t w = one_words | sub;
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, std::size_t,
                                                      std::uint64_t>,
                                 bool>) {
      if (fn(w, lanes)) return true;
    } else {
      fn(w, lanes);
    }
    sub = (sub - free_words) & free_words;
  } while (sub != 0);
  return false;
}

}  // namespace rdc
