// Sampled and multi-bit-error generalizations of the error model.
//
// The paper argues (Sec. 2) that with uncorrelated, infrequent pin errors
// the single-bit case dominates; these utilities quantify that argument:
// exact k-bit error rates (all k-subsets of pins flipped) and a Monte-Carlo
// estimator that scales past exhaustive enumeration.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Exact k-bit input error rate: the fraction of (care source minterm,
/// k-subset of pins) events on which the implementation differs between
/// the source and the flipped vector. k = 1 reproduces exact_error_rate.
double exact_error_rate_kbit(const TernaryTruthTable& implementation,
                             const TernaryTruthTable& spec, unsigned k);

/// Scalar reference for the k-bit rate (differential testing).
double exact_error_rate_kbit_scalar(const TernaryTruthTable& implementation,
                                    const TernaryTruthTable& spec, unsigned k);

/// Mean per-output k-bit rate for a multi-output pair.
double exact_error_rate_kbit(const IncompleteSpec& implementation,
                             const IncompleteSpec& spec, unsigned k);

/// Monte-Carlo estimate of the k-bit error rate: draws `samples` events
/// uniformly (source care minterm, uniform k-subset). Standard error is
/// roughly sqrt(p(1-p)/samples).
double sampled_error_rate(const TernaryTruthTable& implementation,
                          const TernaryTruthTable& spec, unsigned k,
                          std::uint64_t samples, Rng& rng);

double sampled_error_rate(const IncompleteSpec& implementation,
                          const IncompleteSpec& spec, unsigned k,
                          std::uint64_t samples, Rng& rng);

/// A sampled rate with its normal-approximation 95% confidence interval.
struct SampledRate {
  double rate = 0.0;      ///< point estimate
  double variance = 0.0;  ///< estimator variance (for combining estimates)
  double ci_low = 0.0;    ///< 95% CI lower bound, clamped to [0, 1]
  double ci_high = 0.0;   ///< 95% CI upper bound, clamped to [0, 1]
  std::uint64_t samples = 0;  ///< draws actually spent

  double half_width() const { return (ci_high - ci_low) / 2.0; }
};

/// Monte-Carlo estimate with a 95% CI. For k = 1 the draws are stratified
/// by pin: each pin j receives an equal share of `samples` (at least one),
/// estimating the per-pin propagating fraction p_j; the rate is the mean of
/// the p_j and the variance is (1/n^2) * sum p_j(1-p_j)/m_j — never worse
/// than the unstratified estimator, and much tighter when pin sensitivities
/// differ. For k > 1 the events (source, uniform k-subset) are drawn
/// unstratified, matching sampled_error_rate's model. DC sources count as
/// non-propagating (they never occur in practice, per the error model).
SampledRate sampled_error_rate_ci(const TernaryTruthTable& implementation,
                                  const TernaryTruthTable& spec, unsigned k,
                                  std::uint64_t samples, Rng& rng);

/// Multi-output estimates: FaultModel::sampled_rate (fault_model.hpp) runs
/// the per-output estimator of its model and combines the variances as
/// (1/m^2) * sum var_o (independent draws).

}  // namespace rdc
