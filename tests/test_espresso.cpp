// Unit and property tests for the ESPRESSO engine: tautology, complement,
// expand/irredundant/reduce and the full minimization loop; differential
// tests of the blocking-matrix expand_cube and of supercube_of_complement
// against direct reference formulations; and byte pins (EspressoPins):
// FNV-1a digests of every cover ESPRESSO produces (cube masks in order)
// and of the DC assignment conventional_assign derives from it, on the
// Table-1 stand-ins (random1 and random2 left out to keep the suite fast)
// under conventional and LCF 0.55 assignment, on random ternary functions
// at both effort rungs, and on the public pass kernels applied directly.
// The kernels may be rewritten for speed; the digests must not move.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "benchdata/suite.hpp"
#include "common/rng.hpp"
#include "espresso/complement.hpp"
#include "espresso/espresso.hpp"
#include "espresso/expand.hpp"
#include "espresso/irredundant.hpp"
#include "espresso/reduce.hpp"
#include "espresso/unate.hpp"
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

Cover random_cover(unsigned n, std::size_t cubes, double literal_share,
                   Rng& rng) {
  Cover cover(n);
  for (std::size_t i = 0; i < cubes; ++i)
    cover.add(random_cube(n, literal_share, rng));
  return cover;
}

/// Direct formulation of expand_cube: at every step, re-test each literal
/// by raising it and scanning the whole off-set and peer list.
Cube expand_cube_reference(const Cube& c, const Cover& off,
                           const Cover& peers) {
  const unsigned n = off.num_inputs();
  const auto intersects_off = [&](const Cube& cube) {
    for (const Cube& q : off.cubes())
      if (cube.intersects(q, n)) return true;
    return false;
  };
  Cube current = c;
  while (true) {
    int best_var = -1;
    std::size_t best_gain = 0;
    for (unsigned j = 0; j < n; ++j) {
      if (test_bit(current.mask0, j) == test_bit(current.mask1, j)) continue;
      const Cube raised = current.expanded(j);
      if (intersects_off(raised)) continue;
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

TEST(Unate, TautologyBasics) {
  Cover empty(3);
  EXPECT_FALSE(is_tautology(empty));

  Cover full(3);
  full.add(Cube::full(3));
  EXPECT_TRUE(is_tautology(full));

  Cover split(1);
  split.add(Cube::parse("0"));
  split.add(Cube::parse("1"));
  EXPECT_TRUE(is_tautology(split));

  Cover half(2);
  half.add(Cube::parse("1-"));
  EXPECT_FALSE(is_tautology(half));
}

TEST(Unate, TautologyNeedsBothBranches) {
  Cover cover(2);
  cover.add(Cube::parse("1-"));
  cover.add(Cube::parse("01"));
  EXPECT_FALSE(is_tautology(cover));
  cover.add(Cube::parse("00"));
  EXPECT_TRUE(is_tautology(cover));
}

TEST(Unate, TautologyMatchesEnumeration) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const unsigned n = 3 + static_cast<unsigned>(rng.below(3));
    Cover cover(n);
    const std::uint64_t cubes = 1 + rng.below(6);
    for (std::uint64_t i = 0; i < cubes; ++i) {
      Cube c = Cube::full(n);
      for (unsigned v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r != 2) c = c.restricted(v, r == 1);
      }
      cover.add(c);
    }
    bool covers_all = true;
    for (std::uint32_t m = 0; m < num_minterms(n) && covers_all; ++m)
      covers_all = cover.covers_minterm(m);
    EXPECT_EQ(is_tautology(cover), covers_all) << "trial " << trial;
  }
}

TEST(Unate, MostBinateVariable) {
  Cover cover(3);
  cover.add(Cube::parse("1-0"));
  cover.add(Cube::parse("0-1"));
  const auto v = most_binate_variable(cover);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(*v == 0 || *v == 2);

  Cover unate(3);
  unate.add(Cube::parse("1--"));
  unate.add(Cube::parse("-1-"));
  EXPECT_FALSE(most_binate_variable(unate).has_value());
}

TEST(Unate, CoverContainsCube) {
  Cover cover(2);
  cover.add(Cube::parse("1-"));
  cover.add(Cube::parse("01"));
  EXPECT_TRUE(cover_contains_cube(cover, Cube::parse("11")));
  EXPECT_TRUE(cover_contains_cube(cover, Cube::parse("-1")));
  EXPECT_FALSE(cover_contains_cube(cover, Cube::parse("-0")));
}

TEST(Complement, SingleCube) {
  const Cover comp = complement_cube(Cube::parse("10"), 2);
  // !(x0 & !x1) — check semantically.
  for (std::uint32_t m = 0; m < 4; ++m)
    EXPECT_EQ(comp.covers_minterm(m),
              !Cube::parse("10").contains_minterm(m, 2));
}

TEST(Complement, EmptyAndFull) {
  const Cover empty(3);
  const Cover comp = complement(empty);
  EXPECT_TRUE(is_tautology(comp));

  Cover full(3);
  full.add(Cube::full(3));
  EXPECT_TRUE(complement(full).empty_cover());
}

TEST(Complement, MatchesEnumeration) {
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned n = 3 + static_cast<unsigned>(rng.below(4));
    Cover cover(n);
    const std::uint64_t cubes = rng.below(6);
    for (std::uint64_t i = 0; i < cubes; ++i) {
      Cube c = Cube::full(n);
      for (unsigned v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r != 2) c = c.restricted(v, r == 1);
      }
      cover.add(c);
    }
    const Cover comp = complement(cover);
    for (std::uint32_t m = 0; m < num_minterms(n); ++m)
      EXPECT_EQ(comp.covers_minterm(m), !cover.covers_minterm(m))
          << "trial " << trial << " minterm " << m;
  }
}

TEST(Expand, RaisesToPrime) {
  // f = x0 x1 + x0 !x1 should expand to x0.
  Cover on(2);
  on.add(Cube::parse("11"));
  on.add(Cube::parse("10"));
  Cover off(2);
  off.add(Cube::parse("0-"));
  const Cover expanded = expand(on, off);
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_EQ(expanded.cube(0).to_string(2), "1-");
}

TEST(Expand, RespectsOffSet) {
  Cover on(2);
  on.add(Cube::parse("11"));
  Cover off(2);
  off.add(Cube::parse("00"));
  const Cover expanded = expand(on, off);
  // Can expand to 1- or -1 but must not hit 00.
  for (std::uint32_t m = 0; m < 4; ++m)
    if (off.covers_minterm(m)) EXPECT_FALSE(expanded.covers_minterm(m));
  EXPECT_TRUE(expanded.covers_minterm(0b11));
}

TEST(Expand, CubeMatchesReference) {
  // Off-cubes are mostly pushed off c (one of c's literals flipped), with
  // some left meeting c and some made empty; peers are c with one or two
  // literals flipped (equal-gain ties between raises) or random cubes.
  Rng rng(61);
  for (const unsigned n : {1u, 6u, 12u, 20u}) {
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
        const auto kind = rng.below(20);
        if (kind == 0) {
          const unsigned j = static_cast<unsigned>(rng.below(n));
          q.mask0 &= ~(1u << j);  // empty cube: conflicts with everything
          q.mask1 &= ~(1u << j);
        } else if (kind > 1 && q.intersects(c, n)) {
          q = flip_literal(q);  // kind 1 may leave q meeting c
        }
        off.add(q);
      }
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
      EXPECT_EQ(expand_cube(c, off, peers),
                expand_cube_reference(c, off, peers))
          << "n=" << n << " trial " << trial << " cube " << c.to_string(n);
    }
  }
}

TEST(Complement, SupercubeOfComplementMatchesReference) {
  Rng rng(67);
  for (const unsigned n : {1u, 2u, 4u, 7u, 10u}) {
    for (int trial = 0; trial < 200; ++trial) {
      Cover cover = random_cover(n, rng.below(9), 0.5, rng);
      if (trial % 4 == 0) {
        // Tautology: a cover joined with its own complement.
        const Cover rest = complement(cover);
        for (const Cube& c : rest.cubes()) cover.add(c);
      }
      const Cover comp = complement(cover);
      const std::optional<Cube> super = supercube_of_complement(cover);
      ASSERT_EQ(super.has_value(), !comp.empty_cover())
          << "n=" << n << " trial " << trial;
      if (super) EXPECT_EQ(*super, supercube(comp)) << "n=" << n;
    }
  }
}

TEST(Complement, ResultHasNoSingleCubeContainment) {
  // complement() merges its two halves without a containment pass; the
  // pass would never remove or reorder a cube.
  Rng rng(71);
  for (const unsigned n : {2u, 5u, 8u, 12u}) {
    for (int trial = 0; trial < 120; ++trial) {
      const Cover cover = random_cover(n, rng.below(10), 0.6, rng);
      const Cover comp = complement(cover);
      Cover cleaned = comp;
      cleaned.remove_single_cube_contained();
      EXPECT_EQ(cleaned.cubes(), comp.cubes())
          << "n=" << n << " trial " << trial;
    }
  }
}

TEST(Irredundant, DropsRedundantCube) {
  Cover on(2);
  on.add(Cube::parse("1-"));
  on.add(Cube::parse("-1"));
  on.add(Cube::parse("11"));  // covered by either of the others
  const Cover result = irredundant(on, Cover(2));
  EXPECT_EQ(result.size(), 2u);
}

TEST(Irredundant, UsesDcSet) {
  Cover on(2);
  on.add(Cube::parse("11"));
  Cover dc(2);
  dc.add(Cube::parse("11"));
  // The only on cube is inside the DC set: droppable.
  const Cover result = irredundant(on, dc);
  EXPECT_TRUE(result.empty_cover());
}

TEST(Reduce, ShrinksOverlap) {
  // f = 1- + -1; reducing one cube against the other must keep the cover.
  Cover on(2);
  on.add(Cube::parse("1-"));
  on.add(Cube::parse("-1"));
  const Cover reduced = reduce(on, Cover(2));
  for (std::uint32_t m = 1; m < 4; ++m)
    EXPECT_TRUE(reduced.covers_minterm(m)) << m;
  EXPECT_FALSE(reduced.covers_minterm(0));
}

TEST(Supercube, OfCover) {
  Cover cover(3);
  cover.add(Cube::parse("110"));
  cover.add(Cube::parse("100"));
  EXPECT_EQ(supercube(cover).to_string(3), "1-0");
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
    const Cover dc = Cover::from_phase(f, Phase::kDc);
    Cover on_dc = on;
    for (const Cube& c : dc.cubes()) on_dc.add(c);
    const Cover off = complement(on_dc);
    const Cover expanded = expand(on, off);
    const Cover irr = irredundant(expanded, dc);
    const Cover reduced = reduce(irr, dc);
    const Cover re_expanded = expand(reduced, off);
    for (const Cover* c : {&off, &expanded, &irr, &reduced, &re_expanded})
      d.add(*c);
    // Overlapping, redundant input: irredundant and reduce on the raw
    // expansion (before irredundant pruned it).
    d.add(reduce(expanded, dc));
    d.add(irredundant(on, dc));
  }
  EXPECT_EQ(d.h, 206961978080830735ull);
}

}  // namespace
}  // namespace rdc
