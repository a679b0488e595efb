// Helpers shared by the reliability analyzers (error_rate.cpp,
// sampling.cpp, fault_model.cpp); not part of the library's interface.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "reliability/sampling.hpp"
#include "tt/ternary_function.hpp"

namespace rdc::detail {

/// Throws std::invalid_argument ("<where>: ...") unless `implementation`
/// is completely specified and has the spec's input count.
void check_error_rate_pair(const TernaryTruthTable& implementation,
                           const TernaryTruthTable& spec, const char* where);

/// Throws std::invalid_argument ("<where>: ...") unless `pin_weights` holds
/// n finite, non-negative weights with a positive sum; returns that sum.
double check_pin_weights(std::span<const double> pin_weights, unsigned n,
                         const char* where);

/// Packs a point estimate and its estimator variance into a SampledRate
/// with the clamped normal-approximation 95% interval.
SampledRate with_ci(double rate, double variance, std::uint64_t samples);

/// Budget-poll stride inside sampling loops. One draw is a handful of rng
/// calls and bit probes, so polling every draw would dominate; every 64th
/// draw keeps the overhead invisible while a deadline or iteration cap
/// still interrupts a large `samples` request mid-loop.
inline constexpr std::uint64_t kSampleCheckpointStride = 64;

/// All n-bit masks with exactly k bits set, in increasing order (empty for
/// k = 0 or k > n).
std::vector<std::uint32_t> k_subsets(unsigned n, unsigned k);

}  // namespace rdc::detail
