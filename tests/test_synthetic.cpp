// Tests for the synthetic benchmark generator and the Table-1 suite
// reconstruction, plus byte pins (GeneratorPins): FNV-1a digests of every
// phase the annealer produces — the whole Table-1 suite, random1..3
// included, and generate_function over a grid of sizes, start sides and a
// target it cannot reach — together with the next RNG draw, so a rewrite
// must also consume the generator's stream in the same order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string_view>

#include "benchdata/suite.hpp"
#include "common/rng.hpp"
#include "reliability/complexity.hpp"
#include "synthetic/generator.hpp"

namespace rdc {
namespace {

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const TernaryTruthTable& f) {
    for (std::size_t w = 0; w < f.on_bits().num_words(); ++w) {
      add(f.on_bits().word(w));
      add(f.dc_bits().word(w));
    }
  }
};

TEST(Generator, ExactPhaseCounts) {
  SyntheticOptions options;
  options.num_inputs = 8;
  options.f0 = 0.25;
  options.f1 = 0.25;
  options.target_complexity = 0.5;
  Rng rng(229);
  const TernaryTruthTable f = generate_function(options, rng);
  EXPECT_EQ(f.off_count(), 64u);
  EXPECT_EQ(f.on_count(), 64u);
  EXPECT_EQ(f.dc_count(), 128u);
}

TEST(Generator, StopsOnOddTargetAtZeroTolerance) {
  // The same-phase pair count S counts ordered pairs, so it is even, and an
  // odd target count at tolerance 0 is met at distance 1. The run must stop
  // there instead of spending every iteration; each iteration draws at
  // least twice, so count the draws it took by replaying the stream.
  SyntheticOptions options;
  options.num_inputs = 6;
  options.f0 = 0.5;
  options.f1 = 0.5;
  options.target_complexity = 223.0 / 384.0;  // S = 223 of n * 2^n = 384
  options.tolerance = 0.0;
  options.max_iterations = 100000;
  Rng rng(239);
  const TernaryTruthTable f = generate_function(options, rng);
  EXPECT_NEAR(complexity_factor(f) * 384.0, 223.0, 1.0 + 1e-9);
  const std::uint64_t next = rng();
  Rng replay(239);
  std::uint64_t draws = 0;
  while (replay() != next && draws < 2 * options.max_iterations) ++draws;
  EXPECT_LT(draws, options.max_iterations);
}

TEST(Generator, HitsModerateTargets) {
  Rng rng(233);
  for (const double target : {0.35, 0.5, 0.65, 0.8}) {
    SyntheticOptions options = options_for_target(9, 0.6, target);
    options.tolerance = 0.01;
    const TernaryTruthTable f = generate_function(options, rng);
    EXPECT_NEAR(complexity_factor(f), target, 0.02) << "target " << target;
  }
}

TEST(Generator, FullySpecifiedSweep) {
  // The Fig. 2 regime: no DCs, targets across the range. Note a balanced
  // (f0 = f1) n-input function cannot exceed C^f = 1 - 1/n (Harper's
  // isoperimetric bound), so options_for_target skews the probabilities.
  Rng rng(239);
  for (const double target : {0.2, 0.5, 0.9}) {
    SyntheticOptions options = options_for_target(8, 0.0, target);
    options.tolerance = 0.01;
    const TernaryTruthTable f = generate_function(options, rng);
    EXPECT_EQ(f.dc_count(), 0u);
    EXPECT_NEAR(complexity_factor(f), target, 0.03) << "target " << target;
  }
}

TEST(Generator, StopsOnTheTrueSamePhaseCount) {
  // The annealer tracks S, the same-phase neighbour pair count, by
  // per-move deltas. On targets it reaches, the stop test must hold for S
  // recounted from scratch, so a delta that drifts from the real count
  // fails here even when C^f lands close to the target.
  Rng rng(251);
  for (const unsigned n : {6u, 8u, 11u}) {
    for (const double fdc : {0.0, 0.6}) {
      for (const double target : {0.4, 0.55, 0.7}) {
        SyntheticOptions options = options_for_target(n, fdc, target);
        options.tolerance = 0.004;
        const TernaryTruthTable f = generate_function(options, rng);
        const double denom = static_cast<double>(n) * f.size();
        const auto s = static_cast<std::int64_t>(same_phase_pairs(f));
        EXPECT_LE(std::llabs(s - std::llround(target * denom)),
                  std::llround(options.tolerance * denom))
            << "n " << n << " fdc " << fdc << " target " << target;
      }
    }
  }
}

TEST(Generator, OptionsForTargetFeasible) {
  for (const double fdc : {0.0, 0.4, 0.7}) {
    for (const double target : {0.3, 0.5, 0.7, 0.9}) {
      const SyntheticOptions options = options_for_target(10, fdc, target);
      EXPECT_GE(options.f0, options.f1);
      EXPECT_NEAR(options.f0 + options.f1, 1.0 - fdc, 1e-9);
    }
  }
}

TEST(Generator, DeterministicGivenSeed) {
  SyntheticOptions options;
  options.num_inputs = 7;
  options.f0 = 0.3;
  options.f1 = 0.2;
  Rng a(31337);
  Rng b(31337);
  EXPECT_EQ(generate_function(options, a), generate_function(options, b));
}

TEST(Generator, MultiOutputSpec) {
  SyntheticOptions options;
  options.num_inputs = 6;
  options.num_outputs = 4;
  options.f0 = 0.25;
  options.f1 = 0.25;
  Rng rng(241);
  const IncompleteSpec spec = generate_spec("multi", options, rng);
  EXPECT_EQ(spec.num_outputs(), 4u);
  EXPECT_NEAR(spec.dc_fraction(), 0.5, 0.01);
  // Outputs must differ (independent draws).
  EXPECT_NE(spec.output(0), spec.output(1));
}

TEST(Generator, RejectsBadProbabilities) {
  SyntheticOptions options;
  options.f0 = 0.7;
  options.f1 = 0.7;
  Rng rng(1);
  EXPECT_THROW(generate_function(options, rng), std::invalid_argument);
}

TEST(Suite, SignalSplitSolver) {
  // t4: %DC=43.9, E[C^f]=.477 -> strongly skewed split.
  const SignalSplit split = solve_signal_split(43.9, 0.477);
  EXPECT_NEAR(split.fdc, 0.439, 1e-12);
  EXPECT_NEAR(split.f0 + split.f1, 0.561, 1e-12);
  EXPECT_NEAR(split.f0 * split.f0 + split.f1 * split.f1 + split.fdc * split.fdc,
              0.477, 1e-9);
  EXPECT_GT(split.f0, split.f1);
}

TEST(Suite, SignalSplitFallback) {
  // Infeasible E[C^f] falls back to an even care split.
  const SignalSplit split = solve_signal_split(50.0, 0.2);
  EXPECT_NEAR(split.f0, split.f1, 1e-12);
  EXPECT_NEAR(split.f0 + split.f1 + split.fdc, 1.0, 1e-12);
}

TEST(Suite, Table1HasTwelveRows) {
  EXPECT_EQ(table1_info().size(), 12u);
  EXPECT_EQ(benchmark_info("ex1010").inputs, 10u);
  EXPECT_THROW(benchmark_info("nonexistent"), std::out_of_range);
}

TEST(Suite, BenchmarkMatchesSignature) {
  // Spot-check one small and one skewed benchmark; the full-suite check
  // lives in the Table-1 harness.
  for (const char* name : {"bench", "fout"}) {
    const BenchmarkInfo& info = benchmark_info(name);
    const IncompleteSpec spec = make_benchmark(info);
    EXPECT_EQ(spec.num_inputs(), info.inputs);
    EXPECT_EQ(spec.num_outputs(), info.outputs);
    EXPECT_NEAR(spec.dc_fraction() * 100.0, info.dc_percent, 1.5)
        << name;
    EXPECT_NEAR(complexity_factor(spec), info.target_cf, 0.02) << name;
    EXPECT_NEAR(expected_complexity_factor(spec), info.expected_cf, 0.02)
        << name;
  }
}

TEST(Suite, BenchmarksAreDeterministic) {
  const IncompleteSpec a = make_benchmark("bench");
  const IncompleteSpec b = make_benchmark("bench");
  EXPECT_EQ(a, b);
}

TEST(GeneratorPins, Table1Suite) {
  struct Pin {
    std::string_view name;
    std::uint64_t digest;
  };
  const Pin pins[] = {{"bench", 4701471967714420886ull},
                      {"fout", 4282039463790291378ull},
                      {"p3", 4939405928193720158ull},
                      {"p1", 7656649224078528198ull},
                      {"exp", 14200557475717037510ull},
                      {"test4", 7598815854642004324ull},
                      {"ex1010", 12857589820587022419ull},
                      {"exam", 6408571569766602728ull},
                      {"t4", 11291543282407961729ull},
                      {"random1", 7833798478787335943ull},
                      {"random2", 13119890424907291954ull},
                      {"random3", 16913913477275183354ull}};
  const std::vector<IncompleteSpec> suite = table1_suite();
  ASSERT_EQ(suite.size(), std::size(pins));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name(), pins[i].name);
    Digest d;
    for (const TernaryTruthTable& f : suite[i].outputs()) d.add(f);
    EXPECT_EQ(d.h, pins[i].digest) << pins[i].name;
  }
}

TEST(GeneratorPins, GenerateFunctionGrid) {
  // Per n: two signal splits, each annealed from a random start (target
  // below E[C^f]), from an ordered start (target above it) and toward
  // C^f = 1, which no function with two phases reaches, so that run
  // spends every iteration. Tolerance 0 makes the stop test exact, up to
  // distance 1 for an odd target count (S is even).
  struct Pin {
    unsigned n;
    std::uint64_t digest;
  };
  const Pin pins[] = {{1, 1242792342211772594ull},
                      {2, 3709515156825994671ull},
                      {6, 14541940019728323081ull},
                      {7, 4976835159151086027ull},
                      {12, 6523272918596389729ull}};
  struct Split {
    double f0, f1;
  };
  for (const Pin& pin : pins) {
    Rng rng(4000 + pin.n);
    Digest d;
    for (const Split split : {Split{0.3, 0.2}, Split{0.6, 0.4}}) {
      const double fdc = 1.0 - split.f0 - split.f1;
      const double expected =
          split.f0 * split.f0 + split.f1 * split.f1 + fdc * fdc;
      for (const double target : {expected - 0.1, expected + 0.2, 1.0}) {
        SyntheticOptions options;
        options.num_inputs = pin.n;
        options.f0 = split.f0;
        options.f1 = split.f1;
        options.target_complexity = target;
        options.tolerance = 0.0;
        options.max_iterations = 20000;
        d.add(generate_function(options, rng));
        d.add(rng());
      }
    }
    EXPECT_EQ(d.h, pin.digest) << "n = " << pin.n;
  }
}

}  // namespace
}  // namespace rdc
