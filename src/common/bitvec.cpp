#include "common/bitvec.hpp"

namespace rdc {
namespace {

/// Word `w` of the neighbor permutation along `j` of the bitset `words`.
inline std::uint64_t neighbor_word(const std::uint64_t* words, std::size_t w,
                                   unsigned j) {
  return j < 6 ? word_neighbor_shift(words[w], j)
               : words[w ^ (std::size_t{1} << (j - 6))];
}

}  // namespace

void BitVec::fill() {
  if (words_.empty()) return;
  words_.assign(words_.size(), ~0ull);
  words_.back() = tail_mask();
}

BitVec& BitVec::operator&=(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
  return *this;
}

BitVec& BitVec::operator^=(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= o.words_[w];
  return *this;
}

BitVec& BitVec::and_not(const BitVec& o) {
  assert(num_bits_ == o.num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~o.words_[w];
  return *this;
}

BitVec BitVec::complement() const {
  BitVec result(num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    result.words_[w] = ~words_[w];
  if (!result.words_.empty()) result.words_.back() &= tail_mask();
  return result;
}

BitVec BitVec::neighbor_shift(unsigned j) const {
  assert((2ull << j) <= num_bits_);
  BitVec result(num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    result.words_[w] = neighbor_word(words_.data(), w, j);
  return result;
}

BitVec BitVec::shift_xor_neighbors(unsigned j) const {
  assert((2ull << j) <= num_bits_);
  BitVec result(num_bits_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    result.words_[w] = neighbor_word(words_.data(), w, j) ^ words_[w];
  return result;
}

BitVec BitVec::xor_permute(std::uint32_t mask) const {
  // In-word part in one pass: the masked-shift permutations for different
  // j < 6 commute, so their composition is applied word by word.
  const unsigned low = mask & 63u;
  BitVec result(num_bits_);
  const std::uint32_t high = mask >> 6;
  if (high == 0) {
    result.words_ = words_;
  } else {
    // Word part: word w of the result is word w ^ high of the source.
    for (std::size_t w = 0; w < words_.size(); ++w)
      result.words_[w] = words_[w ^ high];
  }
  if (low != 0) {
    for (std::uint64_t& word : result.words_) {
      std::uint64_t v = word;
      for (unsigned j = 0; j < 6; ++j)
        if (low & (1u << j)) v = word_neighbor_shift(v, j);
      word = v;
    }
  }
  return result;
}

BitVec bv_and(const BitVec& a, const BitVec& b) {
  BitVec r = a;
  r &= b;
  return r;
}

BitVec bv_or(const BitVec& a, const BitVec& b) {
  BitVec r = a;
  r |= b;
  return r;
}

BitVec bv_xor(const BitVec& a, const BitVec& b) {
  BitVec r = a;
  r ^= b;
  return r;
}

BitVec bv_andnot(const BitVec& a, const BitVec& b) {
  BitVec r = a;
  r.and_not(b);
  return r;
}

std::uint64_t popcount_and(const BitVec& a, const BitVec& b) {
  assert(a.size() == b.size());
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < a.num_words(); ++w)
    total += std::popcount(a.word(w) & b.word(w));
  return total;
}

std::uint64_t popcount_xor_and(const BitVec& a, const BitVec& b,
                               const BitVec& c) {
  assert(a.size() == b.size() && a.size() == c.size());
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < a.num_words(); ++w)
    total += std::popcount((a.word(w) ^ b.word(w)) & c.word(w));
  return total;
}

std::uint64_t popcount_shiftxor_and(const BitVec& a, const BitVec& care,
                                    unsigned j) {
  assert(a.size() == care.size() && (2ull << j) <= a.size());
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < a.num_words(); ++w)
    total += std::popcount((neighbor_word(a.data(), w, j) ^ a.word(w)) &
                           care.word(w));
  return total;
}

}  // namespace rdc
