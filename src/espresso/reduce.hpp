// REDUCE step: shrink each cube to the smallest cube that still covers the
// part of the on-set no other cube covers, opening room for the next EXPAND
// to escape local minima.
#pragma once

#include "pla/cover.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Returns the reduced cover (same function relative to the DC set of
/// `f`). Cubes that become entirely redundant are dropped.
Cover reduce(const Cover& on, const TernaryTruthTable& f);

}  // namespace rdc
