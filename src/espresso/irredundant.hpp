// IRREDUNDANT step: remove cubes that are covered by the rest of the cover
// plus the don't-care set.
#pragma once

#include "pla/cover.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Returns an irredundant subset of `on` that still covers `on` relative to
/// the DC set of `f`: no remaining cube can be dropped without uncovering a
/// minterm outside the DC set.
Cover irredundant(const Cover& on, const TernaryTruthTable& f);

}  // namespace rdc
