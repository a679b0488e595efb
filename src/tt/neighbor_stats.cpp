#include "tt/neighbor_stats.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#include "common/bitvec.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "obs/counters.hpp"

namespace rdc {
namespace {

/// Bit-sliced vertical counter for one 64-minterm word: plane p holds bit p
/// of a per-position count. 5 planes count to 31, enough for
/// n <= kMaxInputs. Kept entirely in registers — the whole neighbor-count
/// accumulation for a word runs without touching memory.
constexpr unsigned kPlanes = 5;

constexpr std::uint64_t kLowBytes = 0x0101010101010101ull;
constexpr std::uint64_t kByteDiag = 0x8040201008040201ull;
constexpr std::uint64_t kHigh7 = 0x7F7F7F7F7F7F7F7Full;

/// Spreads the low byte of `bits` into 8 bytes of value 0/1 (byte i = bit i).
constexpr std::uint64_t spread_byte(std::uint64_t bits) {
  const std::uint64_t diag = ((bits & 0xFF) * kLowBytes) & kByteDiag;
  return ((diag + kHigh7) >> 7) & kLowBytes;
}

/// kSpreadLut[p][b] = the 8 bits of byte b spread to 8 bytes, pre-shifted
/// to plane weight 2^p. 10 KiB, L1-resident; one lookup replaces the
/// multiply-spread plus weight shift in the transpose inner loop.
constexpr auto kSpreadLut = [] {
  std::array<std::array<std::uint64_t, 256>, kPlanes> t{};
  for (unsigned p = 0; p < kPlanes; ++p)
    for (unsigned b = 0; b < 256; ++b) t[p][b] = spread_byte(b) << p;
  return t;
}();

/// Carry-save full adder over 64 positions: a + b + c = 2h + l, bitwise.
inline void csa(std::uint64_t& h, std::uint64_t& l, std::uint64_t a,
                std::uint64_t b, std::uint64_t c) {
  const std::uint64_t u = a ^ b;
  h = (a & b) | (u & c);
  l = u ^ c;
}

struct WordCounter {
  std::uint64_t plane[kPlanes] = {0, 0, 0, 0, 0};

  /// Ripple-carry add of one weight-1 bitset word.
  void add(std::uint64_t bits) {
    std::uint64_t carry = bits;
    for (unsigned p = 0; p < kPlanes && carry != 0; ++p) {
      const std::uint64_t t = plane[p] & carry;
      plane[p] ^= carry;
      carry = t;
    }
    assert(carry == 0 && "vertical counter overflow");
  }

  /// Harley-Seal block: adds 8 weight-1 words with a branchless carry-save
  /// adder tree (7 CSAs + one weight-8 fold) instead of 8 ripple passes.
  void add8(const std::uint64_t* x) {
    std::uint64_t t1, t2, f1, f2, e1;
    csa(t1, plane[0], plane[0], x[0], x[1]);
    csa(t2, plane[0], plane[0], x[2], x[3]);
    csa(f1, plane[1], plane[1], t1, t2);
    csa(t1, plane[0], plane[0], x[4], x[5]);
    csa(t2, plane[0], plane[0], x[6], x[7]);
    csa(f2, plane[1], plane[1], t1, t2);
    csa(e1, plane[2], plane[2], f1, f2);
    plane[4] ^= plane[3] & e1;
    plane[3] ^= e1;
  }
};

/// Transposes 5 vertical-counter planes of one word into count bytes:
/// out[g] byte k = count at position 8g+k. Plane-major with 8 independent
/// accumulators, so the LUT loads pipeline instead of serializing on one
/// chain. Counts <= 31 never carry between bytes, so the weighted byte sums
/// stay exact.
inline void transpose_planes(const std::uint64_t plane[kPlanes],
                             std::uint64_t out[8]) {
  std::uint64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (unsigned p = 0; p < kPlanes; ++p) {
    const std::uint64_t w = plane[p];
    const auto& lut = kSpreadLut[p];
    for (unsigned g = 0; g < 8; ++g) acc[g] += lut[(w >> (8 * g)) & 0xFF];
  }
  for (unsigned g = 0; g < 8; ++g) out[g] = acc[g];
}

/// Stores the low `count` bytes of `bytes` at `dst` (one store on
/// little-endian targets when a full group of 8 is written).
inline void store_count_bytes(std::uint8_t* dst, std::uint64_t bytes,
                              unsigned count) {
  if constexpr (std::endian::native == std::endian::little) {
    if (count == 8) {
      std::memcpy(dst, &bytes, 8);
      return;
    }
  }
  for (unsigned k = 0; k < count; ++k) {
    dst[k] = static_cast<std::uint8_t>(bytes & 0xFF);
    bytes >>= 8;
  }
}

}  // namespace

NeighborTable::NeighborTable(const TernaryTruthTable& f)
    : num_inputs_(f.num_inputs()),
      on_(new std::uint8_t[f.size()]),
      off_(new std::uint8_t[f.size()]),
      dc_(new std::uint8_t[f.size()]) {
  obs::count(obs::Counter::kNeighborTableBuilds);
  exec::fault_point("neighbor");
  const unsigned n = num_inputs_;
  const std::uint64_t* on = f.on_bits().data();
  const std::uint64_t* dc = f.dc_bits().data();
  const std::size_t words = f.on_bits().num_words();
  const std::uint32_t size = f.size();
  const unsigned in_word = n < 6 ? n : 6;

  // Transposes one word's planes into the count arrays, 8 minterms per
  // step; the off-counts follow by byte-parallel subtraction (counts <= 31
  // never borrow across bytes).
  const auto store_word = [&](std::size_t w, const std::uint64_t* on_planes,
                              const std::uint64_t* dc_planes) {
    const std::uint32_t base = static_cast<std::uint32_t>(w << 6);
    const unsigned limit = size - base < 64 ? size - base : 64u;
    const std::uint64_t n_bytes = n * kLowBytes;
    std::uint64_t on_bytes[8];
    std::uint64_t dc_bytes[8];
    transpose_planes(on_planes, on_bytes);
    transpose_planes(dc_planes, dc_bytes);
    for (unsigned g = 0; 8 * g < limit; ++g) {
      const std::uint64_t off_bytes = n_bytes - on_bytes[g] - dc_bytes[g];
      const unsigned stop = limit - 8 * g < 8 ? limit - 8 * g : 8u;
      store_count_bytes(on_.get() + base + 8 * g, on_bytes[g], stop);
      store_count_bytes(dc_.get() + base + 8 * g, dc_bytes[g], stop);
      store_count_bytes(off_.get() + base + 8 * g, off_bytes, stop);
    }
  };

  // Per word: sum the n neighbor permutations of each membership bitset —
  // bit m of the permuted word says whether minterm m's neighbor along pin
  // j is in the set. For j < 6 the permutation stays inside the word; for
  // j >= 6 the neighbor word is the word at index w ^ 2^(j-6). The n
  // permuted words are gathered once, then reduced in branchless
  // Harley-Seal blocks of 8 (ripple remainder).
  const auto accumulate = [&](WordCounter& counter, const std::uint64_t* src,
                              std::size_t w) {
    std::uint64_t xs[TernaryTruthTable::kMaxInputs];
    const std::uint64_t word = src[w];
    for (unsigned j = 0; j < in_word; ++j)
      xs[j] = word_neighbor_shift(word, j);
    for (unsigned j = 6; j < n; ++j)
      xs[j] = src[w ^ (std::size_t{1} << (j - 6))];
    unsigned j = 0;
    for (; j + 8 <= n; j += 8) counter.add8(xs + j);
    for (; j < n; ++j) counter.add(xs[j]);
  };

  for (std::size_t w = 0; w < words; ++w) {
    exec::checkpoint();  // per-64-minterm-word budget poll (DESIGN.md §10)
    WordCounter on_counter;
    WordCounter dc_counter;
    accumulate(on_counter, on, w);
    accumulate(dc_counter, dc, w);
    store_word(w, on_counter.plane, dc_counter.plane);
  }
}

NeighborTable::NeighborTable(const TernaryTruthTable& f, ScalarTag)
    : num_inputs_(f.num_inputs()),
      on_(new std::uint8_t[f.size()]()),
      off_(new std::uint8_t[f.size()]()),
      dc_(new std::uint8_t[f.size()]()) {
  // One pass over all ordered neighbor pairs: for each minterm, classify it
  // once and credit each of its n neighbors.
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    const Phase p = f.phase(m);
    for (unsigned j = 0; j < num_inputs_; ++j) {
      const std::uint32_t nb = flip_bit(m, j);
      switch (p) {
        case Phase::kOne:
          ++on_[nb];
          break;
        case Phase::kZero:
          ++off_[nb];
          break;
        case Phase::kDc:
          ++dc_[nb];
          break;
      }
    }
  }
}

NeighborTable NeighborTable::build_scalar(const TernaryTruthTable& f) {
  return NeighborTable(f, ScalarTag{});
}

unsigned NeighborTable::same_phase_neighbors(const TernaryTruthTable& f,
                                             std::uint32_t minterm) const {
  switch (f.phase(minterm)) {
    case Phase::kOne:
      return on_[minterm];
    case Phase::kZero:
      return off_[minterm];
    case Phase::kDc:
      return dc_[minterm];
  }
  return 0;
}

}  // namespace rdc
