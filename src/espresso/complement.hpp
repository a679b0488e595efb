// Cover complementation by the unate recursive paradigm.
#pragma once

#include <optional>

#include "pla/cover.hpp"

namespace rdc {

/// Returns a cover of the complement of `cover` (over the same variables).
/// The result is free of single-cube containment but not minimized.
Cover complement(const Cover& cover);

/// Complement of a single cube by De Morgan expansion.
Cover complement_cube(const Cube& c, unsigned num_inputs);

/// Smallest cube containing the complement of `cover` (ESPRESSO's sccc),
/// without building the complement; nullopt iff the complement is empty,
/// i.e. `cover` is a tautology. Equals supercube(complement(cover)) for
/// covers of nonempty cubes.
std::optional<Cube> supercube_of_complement(const Cover& cover);

}  // namespace rdc
