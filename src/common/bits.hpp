// Bit-manipulation helpers shared across rdcsyn.
//
// Minterms of an n-input Boolean function are identified with unsigned
// integers in [0, 2^n); bit j of the index is the value of input x_j.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace rdc {

/// Number of minterms of an n-input function. Valid for n <= 30.
constexpr std::uint32_t num_minterms(unsigned n) {
  assert(n <= 30);
  return 1u << n;
}

/// Word `word` of input `input`'s exhaustive truth table (bit b of word w
/// is the input's value on minterm 64w + b): the classic bit-parallel
/// patterns 0101..., 0011..., ... for inputs < 6; above that the pattern is
/// constant per word, selected by bit (input - 6) of the word index.
constexpr std::uint64_t exhaustive_input_word(unsigned input,
                                              std::uint64_t word) {
  constexpr std::uint64_t kPatterns[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  if (input < 6) return kPatterns[input];
  return (word >> (input - 6)) & 1u ? ~0ull : 0ull;
}

/// Hamming distance between two minterm indices.
constexpr unsigned hamming_distance(std::uint32_t a, std::uint32_t b) {
  return static_cast<unsigned>(std::popcount(a ^ b));
}

/// The 1-Hamming-distance neighbor of `m` obtained by flipping input `bit`.
constexpr std::uint32_t flip_bit(std::uint32_t m, unsigned bit) {
  return m ^ (1u << bit);
}

/// True iff `m` has input `bit` set to 1.
constexpr bool test_bit(std::uint32_t m, unsigned bit) {
  return (m >> bit) & 1u;
}

}  // namespace rdc
