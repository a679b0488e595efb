// Unit and property tests for the ESPRESSO engine: expand/irredundant/
// reduce and the full minimization loop; differential tests of the three
// lattice kernels (expand_cube, irredundant, reduce) against their
// per-minterm definitions; and byte pins (EspressoPins):
// FNV-1a digests of every cover ESPRESSO produces (cube masks in order)
// and of the DC assignment conventional_assign derives from it, on the
// Table-1 stand-ins (random1 and random2 left out to keep the suite fast)
// under conventional and LCF 0.55 assignment, on random ternary functions
// at both effort rungs, and on the public pass kernels applied directly.
// The kernels may be rewritten for speed; the digests must not move.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "espresso/expand.hpp"
#include "espresso/irredundant.hpp"
#include "espresso/reduce.hpp"
#include "reliability/assignment.hpp"

namespace rdc {
namespace {

TernaryTruthTable random_ternary(unsigned n, double dc_prob, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (rng.flip(dc_prob))
      f.set_phase(m, Phase::kDc);
    else
      f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
  }
  return f;
}

/// Random cube over n variables: each variable is a 0/1 literal with
/// probability `literal_share`, absent otherwise.
Cube random_cube(unsigned n, double literal_share, Rng& rng) {
  Cube c = Cube::full(n);
  for (unsigned v = 0; v < n; ++v)
    if (rng.flip(literal_share)) c = c.restricted(v, rng.flip(0.5));
  return c;
}

/// The function whose ON set is `on`, DC set `dc` minus `on`, and OFF set
/// the rest, built minterm by minterm.
TernaryTruthTable function_of(const Cover& on, const Cover& dc) {
  TernaryTruthTable f(on.num_inputs());
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    if (on.covers_minterm(m))
      f.set_phase(m, Phase::kOne);
    else if (dc.covers_minterm(m))
      f.set_phase(m, Phase::kDc);
  }
  return f;
}

/// Cube indices in the kernels' visiting order: stable by literal count,
/// most literals (smallest cube) first if `smallest_first`.
std::vector<std::size_t> order_by_size(const std::vector<Cube>& cubes,
                                       unsigned n, bool smallest_first) {
  std::vector<std::size_t> order(cubes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const unsigned la = cubes[a].literal_count(n);
                     const unsigned lb = cubes[b].literal_count(n);
                     return smallest_first ? la > lb : la < lb;
                   });
  return order;
}

/// True iff some live cube other than `self` contains minterm m.
bool covered_elsewhere(const std::vector<Cube>& cubes,
                       const std::vector<bool>& live, std::size_t self,
                       std::uint32_t m, unsigned n) {
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (i != self && live[i] && cubes[i].contains_minterm(m, n)) return true;
  return false;
}

/// Direct formulation of expand_cube: at every step, re-test each literal
/// by raising it and scanning every minterm of the raised cube for OFF,
/// and the whole peer list for the gain.
Cube expand_cube_reference(const Cube& c, const TernaryTruthTable& f,
                           const Cover& peers) {
  const unsigned n = f.num_inputs();
  const auto meets_off = [&](const Cube& cube) {
    for (std::uint32_t m = 0; m < f.size(); ++m)
      if (cube.contains_minterm(m, n) && f.is_off(m)) return true;
    return false;
  };
  Cube current = c;
  while (true) {
    int best_var = -1;
    std::size_t best_gain = 0;
    for (unsigned j = 0; j < n; ++j) {
      if (test_bit(current.mask0, j) == test_bit(current.mask1, j)) continue;
      const Cube raised = current.expanded(j);
      if (meets_off(raised)) continue;
      std::size_t gain = 0;
      for (const Cube& p : peers.cubes())
        if (raised.contains(p) && !current.contains(p)) ++gain;
      if (best_var < 0 || gain > best_gain) {
        best_var = static_cast<int>(j);
        best_gain = gain;
      }
    }
    if (best_var < 0) return current;
    current = current.expanded(static_cast<unsigned>(best_var));
  }
}

/// IRREDUNDANT by definition: in the kernel's order, a cube is dropped iff
/// each of its minterms is DC or lies in another live cube.
Cover irredundant_reference(const Cover& on, const TernaryTruthTable& f) {
  const unsigned n = on.num_inputs();
  std::vector<bool> live(on.size(), true);
  for (std::size_t idx : order_by_size(on.cubes(), n, true)) {
    bool droppable = true;
    for (std::uint32_t m = 0; m < f.size() && droppable; ++m)
      if (on.cube(idx).contains_minterm(m, n) && !f.is_dc(m))
        droppable = covered_elsewhere(on.cubes(), live, idx, m, n);
    if (droppable) live[idx] = false;
  }
  Cover result(n);
  for (std::size_t i = 0; i < on.size(); ++i)
    if (live[i]) result.add(on.cube(i));
  return result;
}

/// REDUCE by definition: in the kernel's order, a cube becomes the
/// supercube of its minterms that are not DC and lie in no other live
/// (already reduced) cube, or is dropped if there are none.
Cover reduce_reference(const Cover& on, const TernaryTruthTable& f) {
  const unsigned n = on.num_inputs();
  std::vector<Cube> cubes = on.cubes();
  std::vector<bool> live(cubes.size(), true);
  for (std::size_t idx : order_by_size(cubes, n, false)) {
    std::optional<Cube> super;
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      if (!cubes[idx].contains_minterm(m, n) || f.is_dc(m) ||
          covered_elsewhere(cubes, live, idx, m, n))
        continue;
      const Cube single = Cube::minterm(m, n);
      super = super ? Cube{super->mask0 | single.mask0,
                           super->mask1 | single.mask1}
                    : single;
    }
    if (super)
      cubes[idx] = *super;
    else
      live[idx] = false;
  }
  Cover result(n);
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (live[i]) result.add(cubes[i]);
  return result;
}

TEST(Expand, RaisesToPrime) {
  // f = x0 x1 + x0 !x1 should expand to x0.
  Cover on(2);
  on.add(Cube::parse("11"));
  on.add(Cube::parse("10"));
  const Cover expanded = expand(on, function_of(on, Cover(2)));
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_EQ(expanded.cube(0).to_string(2), "1-");
}

TEST(Expand, RespectsOffSet) {
  // ON {11}, OFF {00}, DC elsewhere.
  Cover on(2);
  on.add(Cube::parse("11"));
  Cover dc(2);
  dc.add(Cube::parse("10"));
  dc.add(Cube::parse("01"));
  const TernaryTruthTable f = function_of(on, dc);
  const Cover expanded = expand(on, f);
  // Can expand to 1- or -1 but must not hit 00.
  EXPECT_FALSE(expanded.covers_minterm(0b00));
  EXPECT_TRUE(expanded.covers_minterm(0b11));
}

/// Random function whose OFF set is exactly the minterms of `off`; the
/// rest is ON or (with probability `dc_share`) DC.
TernaryTruthTable function_with_off(const Cover& off, double dc_share,
                                    Rng& rng) {
  TernaryTruthTable f(off.num_inputs());
  for (std::uint32_t m = 0; m < f.size(); ++m)
    if (!off.covers_minterm(m))
      f.set_phase(m, rng.flip(dc_share) ? Phase::kDc : Phase::kOne);
  return f;
}

TEST(Expand, CubeMatchesReference) {
  // The OFF set is a union of cubes mostly pushed off c (one of c's
  // literals flipped), with some left meeting c; peers are c with one or
  // two literals flipped (equal-gain ties between raises) or random cubes.
  // n = 5, 6, 7 cross the lane/word boundary of the subcube walk.
  Rng rng(61);
  for (const unsigned n : {1u, 5u, 6u, 7u, 12u}) {
    for (int trial = 0; trial < 150; ++trial) {
      const Cube c = random_cube(n, 0.7, rng);
      const std::uint32_t literals = c.mask0 ^ c.mask1;
      const auto flip_literal = [&](Cube q) {
        if (literals == 0) return q;
        unsigned j = 0;
        do j = static_cast<unsigned>(rng.below(n));
        while (!test_bit(literals, j));
        return q.expanded(j).restricted(j, !test_bit(c.mask1, j));
      };
      Cover off(n);
      const std::size_t off_cubes = rng.below(12);
      for (std::size_t i = 0; i < off_cubes; ++i) {
        Cube q = random_cube(n, 0.5, rng);
        // One in twenty may be left meeting c.
        if (rng.below(20) != 0 && q.intersects(c, n)) q = flip_literal(q);
        off.add(q);
      }
      const TernaryTruthTable f = function_with_off(off, 0.3, rng);
      Cover peers(n);
      peers.add(c);
      const std::size_t peer_cubes = rng.below(16);
      for (std::size_t i = 0; i < peer_cubes; ++i) {
        if (rng.flip(0.6)) {
          Cube p = flip_literal(c);
          if (rng.flip(0.3)) p = flip_literal(p);
          peers.add(p);
        } else {
          peers.add(random_cube(n, 0.6, rng));
        }
      }
      EXPECT_EQ(expand_cube(c, f, peers), expand_cube_reference(c, f, peers))
          << "n=" << n << " trial " << trial << " cube " << c.to_string(n);
    }
  }
}

/// Random overlapping cover: random cubes, duplicates and subcubes of
/// earlier cubes (so many minterms lie in two or more cubes).
Cover overlapping_cover(unsigned n, std::size_t cubes, Rng& rng) {
  Cover cover(n);
  const double literal_share = n <= 5 ? 0.4 : 0.6;
  for (std::size_t i = 0; i < cubes; ++i) {
    if (cover.empty_cover() || rng.flip(0.6)) {
      cover.add(random_cube(n, literal_share, rng));
      continue;
    }
    Cube c = cover.cube(rng.below(cover.size()));
    const unsigned j = static_cast<unsigned>(rng.below(n));
    if (rng.flip(0.7) && test_bit(c.mask0 & c.mask1, j))
      c = c.restricted(j, rng.flip(0.5));
    cover.add(c);
  }
  return cover;
}

/// Inputs for the irredundant/reduce differentials: even trials use the
/// prime cover expand makes of a random function's ON minterms, odd
/// trials a random overlapping cover (which may hold OFF minterms).
Cover kernel_input(const TernaryTruthTable& f, int trial, Rng& rng) {
  if (trial % 2 == 0) return expand(Cover::from_phase(f, Phase::kOne), f);
  return overlapping_cover(f.num_inputs(), 1 + rng.below(24), rng);
}

TEST(Irredundant, MatchesReference) {
  // n = 5, 6, 7 cross the lane/word boundary of the subcube walk.
  Rng rng(73);
  for (const unsigned n : {1u, 5u, 6u, 7u, 12u}) {
    for (int trial = 0; trial < (n == 12 ? 8 : 60); ++trial) {
      const TernaryTruthTable f = random_ternary(n, 0.1 * (trial % 7), rng);
      const Cover on = kernel_input(f, trial, rng);
      EXPECT_EQ(irredundant(on, f).cubes(),
                irredundant_reference(on, f).cubes())
          << "n=" << n << " trial " << trial;
    }
  }
}

TEST(Reduce, MatchesReference) {
  Rng rng(79);
  for (const unsigned n : {1u, 5u, 6u, 7u, 12u}) {
    for (int trial = 0; trial < (n == 12 ? 8 : 60); ++trial) {
      const TernaryTruthTable f = random_ternary(n, 0.1 * (trial % 7), rng);
      Cover on = kernel_input(f, trial, rng);
      if (trial % 4 == 0) on = irredundant(on, f);
      EXPECT_EQ(reduce(on, f).cubes(), reduce_reference(on, f).cubes())
          << "n=" << n << " trial " << trial;
    }
  }
}

TEST(Irredundant, DropsRedundantCube) {
  Cover on(2);
  on.add(Cube::parse("1-"));
  on.add(Cube::parse("-1"));
  on.add(Cube::parse("11"));  // covered by either of the others
  const Cover result = irredundant(on, function_of(on, Cover(2)));
  EXPECT_EQ(result.size(), 2u);
}

TEST(Irredundant, UsesDcSet) {
  Cover on(2);
  on.add(Cube::parse("11"));
  TernaryTruthTable f(2);
  f.set_phase(0b11, Phase::kDc);
  // The only on cube is inside the DC set: droppable.
  const Cover result = irredundant(on, f);
  EXPECT_TRUE(result.empty_cover());
}

TEST(Reduce, ShrinksOverlap) {
  // f = 1- + -1; reducing one cube against the other must keep the cover.
  Cover on(2);
  on.add(Cube::parse("1-"));
  on.add(Cube::parse("-1"));
  const Cover reduced = reduce(on, function_of(on, Cover(2)));
  for (std::uint32_t m = 1; m < 4; ++m)
    EXPECT_TRUE(reduced.covers_minterm(m)) << m;
  EXPECT_FALSE(reduced.covers_minterm(0));
}

TEST(Espresso, MinimizeSimpleFunction) {
  // f = x0 x1 + x0 !x1 (+ DC nothing) = x0.
  TernaryTruthTable f(2);
  f.set_phase(0b01, Phase::kOne);
  f.set_phase(0b11, Phase::kOne);
  const Cover cover = minimize(f);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.cube(0).to_string(2), "1-");
  EXPECT_TRUE(cover_is_valid_for(cover, f));
}

TEST(Espresso, UsesDcToMerge) {
  // on = {00}, dc = {01, 10, 11}: a single full cube suffices.
  TernaryTruthTable f(2);
  f.set_phase(0b00, Phase::kOne);
  f.set_phase(0b01, Phase::kDc);
  f.set_phase(0b10, Phase::kDc);
  f.set_phase(0b11, Phase::kDc);
  const Cover cover = minimize(f);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover.cube(0).literal_count(2), 0u);
}

TEST(Espresso, ConstantFunctions) {
  TernaryTruthTable zero(3);
  EXPECT_TRUE(minimize(zero).empty_cover());
  const TernaryTruthTable one = zero.with_all_dc_assigned(Phase::kZero);
  EXPECT_TRUE(minimize(one).empty_cover());
}

TEST(Espresso, ParityIsWorstCase) {
  // 4-input XOR needs 8 implicants; no DC help available.
  TernaryTruthTable f(4);
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::popcount(m) % 2) f.set_phase(m, Phase::kOne);
  const Cover cover = minimize(f);
  EXPECT_EQ(cover.size(), 8u);
  EXPECT_TRUE(cover_is_valid_for(cover, f));
}

TEST(Espresso, RandomFunctionsAreValidAndIrredundant) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const TernaryTruthTable f = random_ternary(n, 0.4, rng);
    const Cover cover = minimize(f);
    EXPECT_TRUE(cover_is_valid_for(cover, f)) << "trial " << trial;
    // Never worse than one cube per on-minterm.
    EXPECT_LE(cover.size(), f.on_count());
  }
}

TEST(Espresso, ConventionalAssignMatchesCover) {
  Rng rng(53);
  TernaryTruthTable f = random_ternary(6, 0.5, rng);
  const TernaryTruthTable original = f;
  const Cover cover = conventional_assign(f);
  EXPECT_TRUE(f.fully_specified());
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    // Care minterms unchanged; DCs follow the cover.
    if (original.is_care(m))
      EXPECT_EQ(f.phase(m), original.phase(m));
    else
      EXPECT_EQ(f.is_on(m), cover.covers_minterm(m));
  }
}

TEST(Espresso, MinimalSopSizeOfSpec) {
  IncompleteSpec spec("two", 2, 2);
  spec.output(0).set_phase(0b01, Phase::kOne);
  spec.output(0).set_phase(0b11, Phase::kOne);
  spec.output(1).set_phase(0b00, Phase::kOne);
  EXPECT_EQ(minimal_sop_size(spec), 2u);
}

/// FNV-1a over 64-bit values, byte by byte.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const Cover& cover) {
    add(cover.size());
    for (const Cube& c : cover.cubes()) {
      add(c.mask0);
      add(c.mask1);
    }
  }
  void add(const TernaryTruthTable& f) {
    for (std::size_t w = 0; w < f.on_bits().num_words(); ++w) {
      add(f.on_bits().word(w));
      add(f.dc_bits().word(w));
    }
  }
};

/// The Table-1 stand-ins minus the two 12x12 random circuits.
std::vector<IncompleteSpec> pinned_suite() {
  std::vector<IncompleteSpec> suite;
  for (const BenchmarkInfo& info : table1_info())
    if (info.name != "random1" && info.name != "random2")
      suite.push_back(make_benchmark(info));
  return suite;
}

std::uint64_t conventional_digest(IncompleteSpec spec) {
  Digest d;
  for (TernaryTruthTable& f : spec.outputs()) {
    d.add(conventional_assign(f));
    d.add(f);
  }
  return d.h;
}

TEST(EspressoPins, Table1SuiteConventional) {
  Digest d;
  for (const IncompleteSpec& spec : pinned_suite())
    d.add(conventional_digest(spec));
  EXPECT_EQ(d.h, 132381899011815576ull);
}

TEST(EspressoPins, Table1SuiteLcf) {
  Digest d;
  for (IncompleteSpec spec : pinned_suite()) {
    lcf_assign(spec, 0.55);
    d.add(conventional_digest(std::move(spec)));
  }
  EXPECT_EQ(d.h, 15949123912680269006ull);
}

TEST(EspressoPins, RandomTernaryFunctionsBothRungs) {
  struct Pin {
    unsigned n;
    std::uint64_t digest;
  };
  const Pin pins[] = {{1, 12073696877492948293ull},
                      {2, 5447734234075039173ull},
                      {5, 4388274672346119173ull},
                      {6, 5199185873551215141ull},
                      {7, 16100872004031901955ull},
                      {10, 13792233980639524740ull},
                      {12, 5647331347499283969ull}};
  for (const Pin& pin : pins) {
    Rng rng(1000 + pin.n);
    Digest d;
    for (const double dc_share : {0.0, 0.3, 0.7, 0.95}) {
      const TernaryTruthTable f = random_ternary(pin.n, dc_share, rng);
      for (const unsigned iterations : {12u, 0u}) {
        TernaryTruthTable g = f;
        d.add(conventional_assign(g, EspressoOptions{iterations}));
        d.add(g);
      }
    }
    EXPECT_EQ(d.h, pin.digest) << "n=" << pin.n;
  }
}

TEST(EspressoPins, PassKernelsOnRandomCovers) {
  // One ESPRESSO iteration spelled out through the public kernels, on
  // random functions whose ON cover starts as one cube per minterm.
  Rng rng(2024);
  Digest d;
  for (int trial = 0; trial < 120; ++trial) {
    const unsigned n = 3 + static_cast<unsigned>(rng.below(8));
    const TernaryTruthTable f = random_ternary(n, 0.4, rng);
    const Cover on = Cover::from_phase(f, Phase::kOne);
    const Cover expanded = expand(on, f);
    const Cover irr = irredundant(expanded, f);
    const Cover reduced = reduce(irr, f);
    const Cover re_expanded = expand(reduced, f);
    for (const Cover* c : {&expanded, &irr, &reduced, &re_expanded})
      d.add(*c);
    // Overlapping, redundant input: irredundant and reduce on the raw
    // expansion (before irredundant pruned it).
    d.add(reduce(expanded, f));
    d.add(irredundant(on, f));
  }
  EXPECT_EQ(d.h, 12674703326938596145ull);
}

}  // namespace
}  // namespace rdc
