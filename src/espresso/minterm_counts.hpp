// Per-minterm cube counts over the 2^n minterm lattice: how many cubes of
// a cover contain each minterm. IRREDUNDANT and REDUCE ask "does another
// live cube cover this minterm?" as a count of at least 2, instead of
// cofactoring the rest of the cover against the cube.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pla/cover.hpp"

namespace rdc {

class MintermCounts {
 public:
  /// Counts every cube of `cover` (4 bytes per minterm).
  explicit MintermCounts(const Cover& cover)
      : n_(cover.num_inputs()), count_(num_minterms(n_), 0) {
    for (const Cube& c : cover.cubes()) add(c);
  }

  std::uint32_t operator[](std::size_t m) const { return count_[m]; }

  void add(const Cube& c) { step(c, 1); }
  void remove(const Cube& c) { step(c, ~0u); }  // adds -1 mod 2^32

 private:
  void step(const Cube& c, std::uint32_t delta) {
    for_each_cube_word(c, n_, [&](std::size_t w, std::uint64_t lanes) {
      for (; lanes != 0; lanes &= lanes - 1)
        count_[(w << 6) | std::countr_zero(lanes)] += delta;
    });
  }

  unsigned n_;
  std::vector<std::uint32_t> count_;
};

}  // namespace rdc
