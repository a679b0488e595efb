#include "espresso/complement.hpp"

#include <bit>

#include "espresso/unate.hpp"

namespace rdc {
namespace {

/// Recursion variable: the most binate one; if the cover is unate, the
/// most active one, which still splits the problem and guarantees progress.
unsigned split_variable(const Cover& cover) {
  if (const auto binate = most_binate_variable(cover); binate) return *binate;
  unsigned split = 0;
  unsigned best_activity = 0;
  for (unsigned j = 0; j < cover.num_inputs(); ++j) {
    const VariableActivity a = variable_activity(cover, j);
    const unsigned activity = a.negative + a.positive;
    if (activity > best_activity) {
      best_activity = activity;
      split = j;
    }
  }
  return split;
}

bool has_full_cube(const Cover& cover) {
  const Cube full_cube = Cube::full(cover.num_inputs());
  for (const Cube& c : cover.cubes())
    if (c == full_cube) return true;
  return false;
}

}  // namespace

Cover complement_cube(const Cube& c, unsigned num_inputs) {
  // !(l_1 & l_2 & ... ) = !l_1 + l_1 !l_2 + l_1 l_2 !l_3 + ...
  // The disjoint form keeps the result irredundant by construction.
  Cover result(num_inputs);
  Cube prefix = Cube::full(num_inputs);
  for (unsigned j = 0; j < num_inputs; ++j) {
    const bool allow0 = test_bit(c.mask0, j);
    const bool allow1 = test_bit(c.mask1, j);
    if (allow0 && allow1) continue;  // variable absent from the cube
    const bool literal_value = allow1;
    result.add(prefix.restricted(j, !literal_value));
    prefix = prefix.restricted(j, literal_value);
  }
  return result;
}

Cover complement(const Cover& cover) {
  const unsigned n = cover.num_inputs();
  if (cover.empty_cover()) {
    Cover full(n);
    full.add(Cube::full(n));
    return full;
  }
  if (has_full_cube(cover)) return Cover(n);
  if (cover.size() == 1) return complement_cube(cover.cube(0), n);

  const unsigned split = split_variable(cover);
  const Cube lo = Cube::full(n).restricted(split, false);
  const Cube hi = Cube::full(n).restricted(split, true);
  const Cover comp_lo = complement(cover.cofactor(lo));
  const Cover comp_hi = complement(cover.cofactor(hi));

  // No single-cube containment to remove: each half is containment-free
  // (a recursive result or the disjoint complement_cube), and a cube of
  // one half never contains one of the other, as they differ in `split`.
  Cover result(n);
  for (const Cube& c : comp_lo.cubes()) result.add(c.intersect(lo));
  for (const Cube& c : comp_hi.cubes()) result.add(c.intersect(hi));
  return result;
}

std::optional<Cube> supercube_of_complement(const Cover& cover) {
  const unsigned n = cover.num_inputs();
  const Cube full_cube = Cube::full(n);
  if (cover.empty_cover()) return full_cube;
  if (has_full_cube(cover)) return std::nullopt;
  if (cover.size() == 1) {
    // The complement of one cube is the union of its negated literals: a
    // single half-space for one literal; with two or more, every variable
    // takes both values somewhere.
    const Cube& c = cover.cube(0);
    const std::uint32_t literals = (c.mask0 ^ c.mask1) & full_cube.mask0;
    if (!std::has_single_bit(literals)) return full_cube;
    const unsigned j = static_cast<unsigned>(std::countr_zero(literals));
    return full_cube.restricted(j, !test_bit(c.mask1, j));
  }

  // The supercube of a union is the supercube of the parts' supercubes.
  const unsigned split = split_variable(cover);
  const Cube lo = full_cube.restricted(split, false);
  const Cube hi = full_cube.restricted(split, true);
  const std::optional<Cube> super_lo =
      supercube_of_complement(cover.cofactor(lo));
  const std::optional<Cube> super_hi =
      supercube_of_complement(cover.cofactor(hi));
  if (!super_lo) {
    if (!super_hi) return std::nullopt;
    return super_hi->intersect(hi);
  }
  if (!super_hi) return super_lo->intersect(lo);
  const Cube a = super_lo->intersect(lo);
  const Cube b = super_hi->intersect(hi);
  return Cube{a.mask0 | b.mask0, a.mask1 | b.mask1};
}

}  // namespace rdc
