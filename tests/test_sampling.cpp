// Tests for the sampled (with confidence intervals) and multi-bit error-rate
// estimators.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "exec/budget.hpp"
#include "exec/status.hpp"
#include "reliability/error_rate.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/sampling.hpp"
#include "tt/incomplete_spec.hpp"

namespace rdc {
namespace {

TernaryTruthTable random_complete(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  return f;
}

TernaryTruthTable random_ternary(unsigned n, double dc_density, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc_density))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

TEST(KbitErrorRate, OneBitMatchesExact) {
  Rng rng(401);
  for (int trial = 0; trial < 10; ++trial) {
    const TernaryTruthTable impl = random_complete(6, rng);
    TernaryTruthTable spec = impl;
    // Carve some DCs out of the spec.
    for (std::uint32_t m = 0; m < spec.size(); ++m)
      if (rng.flip(0.3)) spec.set_phase(m, Phase::kDc);
    EXPECT_DOUBLE_EQ(exact_error_rate_kbit(impl, spec, 1),
                     exact_error_rate(impl, spec));
  }
}

TEST(KbitErrorRate, ParityAlwaysPropagatesOddK) {
  TernaryTruthTable parity(5);
  for (std::uint32_t m = 0; m < 32; ++m)
    if (std::popcount(m) % 2) parity.set_phase(m, Phase::kOne);
  EXPECT_DOUBLE_EQ(exact_error_rate_kbit(parity, parity, 1), 1.0);
  EXPECT_DOUBLE_EQ(exact_error_rate_kbit(parity, parity, 3), 1.0);
  // Even flip counts never change a parity output.
  EXPECT_DOUBLE_EQ(exact_error_rate_kbit(parity, parity, 2), 0.0);
  EXPECT_DOUBLE_EQ(exact_error_rate_kbit(parity, parity, 4), 0.0);
}

TEST(KbitErrorRate, FullFlipOfConjunction) {
  // f = x0 & x1 on 2 inputs; k = 2 flips 00<->11 and 01<->10.
  TernaryTruthTable f(2);
  f.set_phase(0b11, Phase::kOne);
  // Sources 00 and 11 flip into each other: output changes (2 events).
  // Sources 01 and 10 swap: both map to 0 (0 events). 2/4 rate.
  EXPECT_DOUBLE_EQ(exact_error_rate_kbit(f, f, 2), 0.5);
}

TEST(KbitErrorRate, RejectsBadK) {
  TernaryTruthTable f(3);
  EXPECT_THROW(exact_error_rate_kbit(f, f, 0), std::invalid_argument);
  EXPECT_THROW(exact_error_rate_kbit(f, f, 4), std::invalid_argument);
}

TEST(KbitErrorRate, DcSourcesExcluded) {
  TernaryTruthTable impl(3);
  impl.set_phase(0, Phase::kOne);
  TernaryTruthTable spec = impl;
  for (std::uint32_t m = 0; m < 8; ++m) spec.set_phase(m, Phase::kDc);
  // No care sources at all: rate is exactly 0 for every k.
  for (unsigned k = 1; k <= 3; ++k)
    EXPECT_DOUBLE_EQ(exact_error_rate_kbit(impl, spec, k), 0.0);
}

TEST(SampledErrorRate, ConvergesToExact) {
  Rng rng(409);
  const TernaryTruthTable impl = random_complete(8, rng);
  TernaryTruthTable spec = impl;
  for (std::uint32_t m = 0; m < spec.size(); ++m)
    if (rng.flip(0.4)) spec.set_phase(m, Phase::kDc);
  for (unsigned k : {1u, 2u}) {
    const double exact = exact_error_rate_kbit(impl, spec, k);
    const double sampled = sampled_error_rate(impl, spec, k, 60000, rng);
    // 60k samples: standard error < 0.25%; allow 4 sigma.
    EXPECT_NEAR(sampled, exact, 4.0 * std::sqrt(0.25 / 60000.0)) << "k=" << k;
  }
}

TEST(SampledErrorRate, ZeroSamples) {
  TernaryTruthTable f(3);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(sampled_error_rate(f, f, 1, 0, rng), 0.0);
}

TEST(SampledErrorRate, DeterministicGivenRngState) {
  Rng a(5);
  Rng b(5);
  TernaryTruthTable impl(6);
  Rng init(6);
  impl = random_complete(6, init);
  EXPECT_DOUBLE_EQ(sampled_error_rate(impl, impl, 1, 5000, a),
                   sampled_error_rate(impl, impl, 1, 5000, b));
}

TEST(SampledErrorRate, MultiOutputMean) {
  IncompleteSpec impl("s", 4, 2);
  IncompleteSpec spec("s", 4, 2);
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) {
      impl.output(0).set_phase(m, Phase::kOne);
      spec.output(0).set_phase(m, Phase::kOne);
    }
  // Output 0 = parity (rate 1), output 1 = constant (rate 0).
  Rng rng(7);
  EXPECT_DOUBLE_EQ(sampled_error_rate(impl, spec, 1, 2000, rng), 0.5);
  EXPECT_DOUBLE_EQ(exact_error_rate_kbit(impl, spec, 1), 0.5);
}

TEST(SampledErrorRate, BudgetCheckpointTripsInsideTheDrawLoop) {
  // The estimators poll exec::checkpoint() every 64th draw, so a budget
  // installed around a sampled evaluation can stop it mid-loop with the
  // typed kResourceExhausted trip instead of running all draws.
  exec::BudgetLimits limits;
  limits.max_checkpoints = 10;
  exec::ExecBudget budget(limits);
  exec::BudgetScope scope(&budget);
  Rng init(11);
  const TernaryTruthTable impl = random_complete(6, init);
  Rng rng(13);
  try {
    (void)sampled_error_rate_ci(impl, impl, 1, 20000, rng);
    FAIL() << "sampled_error_rate_ci ignored the tripped budget";
  } catch (const exec::StatusError& e) {
    EXPECT_EQ(e.status().code(), exec::StatusCode::kResourceExhausted);
  }
  // Trips are sticky: the plain estimator fails the same way afterwards.
  try {
    (void)sampled_error_rate(impl, impl, 1, 20000, rng);
    FAIL() << "sampled_error_rate ignored the tripped budget";
  } catch (const exec::StatusError& e) {
    EXPECT_EQ(e.status().code(), exec::StatusCode::kResourceExhausted);
  }
}

// --- sampled estimator with confidence intervals ---------------------------

TEST(SampledCi, DeterministicForAFixedSeed) {
  Rng make(7201);
  const TernaryTruthTable spec = random_ternary(8, 0.4, make);
  const TernaryTruthTable impl = random_ternary(8, 0.0, make);
  Rng rng_a(42), rng_b(42);
  const SampledRate a = sampled_error_rate_ci(impl, spec, 1, 5000, rng_a);
  const SampledRate b = sampled_error_rate_ci(impl, spec, 1, 5000, rng_b);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.ci_low, b.ci_low);
  EXPECT_EQ(a.ci_high, b.ci_high);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(SampledCi, IntervalIsOrderedAndClamped) {
  Rng make(7202);
  const TernaryTruthTable spec = random_ternary(6, 0.3, make);
  const TernaryTruthTable impl = random_ternary(6, 0.0, make);
  Rng rng(1);
  const SampledRate r = sampled_error_rate_ci(impl, spec, 1, 2000, rng);
  EXPECT_LE(0.0, r.ci_low);
  EXPECT_LE(r.ci_low, r.rate);
  EXPECT_LE(r.rate, r.ci_high);
  EXPECT_LE(r.ci_high, 1.0);
  EXPECT_GE(r.samples, 2000u);  // stratification never drops draws
  EXPECT_GE(r.half_width(), 0.0);
}

TEST(SampledCi, ParityIsAPointEstimate) {
  // Every event propagates through parity, so every stratum sees p = 1 and
  // the interval collapses to [1, 1].
  TernaryTruthTable parity(5);
  for (std::uint32_t m = 0; m < 32; ++m) {
    unsigned bits = 0;
    for (unsigned j = 0; j < 5; ++j) bits += (m >> j) & 1u;
    parity.set_phase(m, bits % 2 ? Phase::kOne : Phase::kZero);
  }
  Rng rng(3);
  const SampledRate r = sampled_error_rate_ci(parity, parity, 1, 1000, rng);
  EXPECT_EQ(r.rate, 1.0);
  EXPECT_EQ(r.ci_low, 1.0);
  EXPECT_EQ(r.ci_high, 1.0);
}

TEST(SampledCi, CoversTheExactRateAtSmallN) {
  // Nominal coverage is 95%; over 100 independent seeds the exact rate
  // should land inside the interval in the vast majority of them. The
  // bound (85) leaves ~5 sigma of slack for binomial noise, so the test is
  // deterministic in practice while still catching a broken interval.
  Rng make(7203);
  for (const unsigned n : {8u, 12u}) {
    const TernaryTruthTable spec = random_ternary(n, 0.4, make);
    const TernaryTruthTable impl = random_ternary(n, 0.0, make);
    const double exact = exact_error_rate(impl, spec);
    int covered = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      Rng rng(seed);
      const SampledRate r = sampled_error_rate_ci(impl, spec, 1, 4000, rng);
      if (exact >= r.ci_low && exact <= r.ci_high) ++covered;
    }
    EXPECT_GE(covered, 85) << "n=" << n;
  }
}

TEST(SampledCi, MultiOutputCombinesEstimates) {
  Rng make(7204);
  IncompleteSpec spec("s", 7, 3);
  for (auto& f : spec.outputs()) f = random_ternary(7, 0.4, make);
  IncompleteSpec impl("i", 7, 3);
  for (auto& f : impl.outputs()) f = random_ternary(7, 0.0, make);
  const double exact = exact_error_rate(impl, spec);

  Rng rng(11);
  const SampledRate r =
      reliability::default_fault_model().sampled_rate(impl, spec, 6000, rng);
  // Draws are spent per output.
  EXPECT_GE(r.samples, 3u * 6000u);
  // The combined interval should be in the right neighborhood of the mean
  // rate (wide tolerance: this is a smoke bound, coverage is tested above).
  EXPECT_NEAR(r.rate, exact, 0.1);
  EXPECT_LE(r.ci_low, r.rate);
  EXPECT_GE(r.ci_high, r.rate);
}

TEST(SampledCi, TightensWithMoreSamples) {
  Rng make(7205);
  const TernaryTruthTable spec = random_ternary(10, 0.5, make);
  const TernaryTruthTable impl = random_ternary(10, 0.0, make);
  Rng rng_small(5), rng_big(5);
  const SampledRate small =
      sampled_error_rate_ci(impl, spec, 1, 500, rng_small);
  const SampledRate big =
      sampled_error_rate_ci(impl, spec, 1, 50000, rng_big);
  EXPECT_LT(big.half_width(), small.half_width());
}

}  // namespace
}  // namespace rdc
