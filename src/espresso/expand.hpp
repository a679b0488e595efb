// EXPAND step of the ESPRESSO loop: enlarge each cube to a prime implicant
// against the off-set, discarding cubes that become covered along the way.
#pragma once

#include "pla/cover.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Expands every cube of `on` against the OFF set of `f`. Returns a prime
/// cover of the same function, usually with fewer cubes.
Cover expand(const Cover& on, const TernaryTruthTable& f);

/// Expands a single cube to a prime implicant against the OFF set of `f`,
/// greedily raising one variable at a time (preferring raises that cover
/// the most not-yet-covered cubes of `peers`). A cube that already holds
/// an OFF minterm is returned unchanged.
Cube expand_cube(const Cube& c, const TernaryTruthTable& f,
                 const Cover& peers);

}  // namespace rdc
