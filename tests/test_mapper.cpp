// Tests for the cell library, pattern matching, tree mapping, netlist
// analysis and power estimation.
#include <gtest/gtest.h>

#include <span>

#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "mapper/cell_library.hpp"
#include "mapper/netlist.hpp"
#include "mapper/power.hpp"
#include "mapper/subject_graph.hpp"
#include "mapper/tree_map.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

Aig random_aig(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.45) ? Phase::kOne : Phase::kZero);
  Aig aig(n);
  aig.add_output(aig.build(factor(minimize(f))));
  return aig;
}

/// The cell's output on one pin vector, read off its truth table.
bool cell_value(CellKind kind, std::span<const bool> pins) {
  EXPECT_EQ(pins.size(), cell_arity(kind));
  unsigned m = 0;
  for (std::size_t j = 0; j < pins.size(); ++j) m |= unsigned{pins[j]} << j;
  return (cell_truth_table(kind) >> m) & 1u;
}

TEST(CellLibrary, EvaluateAllKinds) {
  const bool t = true, f = false;
  {
    const bool in[] = {t};
    EXPECT_FALSE(cell_value(CellKind::kInv, {in, 1}));
    EXPECT_TRUE(cell_value(CellKind::kBuf, {in, 1}));
  }
  {
    const bool in[] = {t, f};
    EXPECT_FALSE(cell_value(CellKind::kAnd2, {in, 2}));
    EXPECT_TRUE(cell_value(CellKind::kNand2, {in, 2}));
    EXPECT_TRUE(cell_value(CellKind::kOr2, {in, 2}));
    EXPECT_FALSE(cell_value(CellKind::kNor2, {in, 2}));
    EXPECT_TRUE(cell_value(CellKind::kXor2, {in, 2}));
    EXPECT_FALSE(cell_value(CellKind::kXnor2, {in, 2}));
  }
  {
    const bool in[] = {t, t, f};
    EXPECT_FALSE(cell_value(CellKind::kAoi21, {in, 3}));   // ab+c = 1
    EXPECT_TRUE(cell_value(CellKind::kOai21, {in, 3}));    // (a+b)c = 0
  }
  {
    const bool in[] = {t, f, f, t};
    EXPECT_TRUE(cell_value(CellKind::kAoi22, {in, 4}));   // ab+cd = 0
    EXPECT_FALSE(cell_value(CellKind::kOai22, {in, 4}));  // (a+b)(c+d)=1
  }
  EXPECT_FALSE(cell_value(CellKind::kTie0, {}));
  EXPECT_TRUE(cell_value(CellKind::kTie1, {}));
}

TEST(CellLibrary, Generic70HasAllKinds) {
  const CellLibrary& lib = CellLibrary::generic70();
  EXPECT_EQ(lib.cell(CellKind::kInv).name, "INVX1");
  EXPECT_EQ(cell_arity(lib.cell(CellKind::kNand2).kind), 2u);
  EXPECT_GT(lib.cell(CellKind::kXor2).area, lib.cell(CellKind::kInv).area);
  EXPECT_GT(lib.nominal_load(), 0.0);
}

TEST(Matches, SimpleAndNode) {
  Aig aig(2);
  const std::uint32_t x =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(x);
  const auto matches =
      enumerate_matches(aig, aiglit::node_of(x), aig.fanout_counts());
  bool has_and2 = false, has_nand2 = false, has_nor2 = false;
  for (const Match& m : matches) {
    if (m.kind == CellKind::kAnd2 && !m.output_negated) has_and2 = true;
    if (m.kind == CellKind::kNand2 && m.output_negated) has_nand2 = true;
    if (m.kind == CellKind::kNor2 && !m.output_negated) has_nor2 = true;
  }
  EXPECT_TRUE(has_and2);
  EXPECT_TRUE(has_nand2);
  EXPECT_TRUE(has_nor2);
}

TEST(Matches, XorShapeDetected) {
  Aig aig(2);
  const std::uint32_t x =
      aig.make_xor(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(x);
  // x is complemented; the XOR structure sits at its node.
  const auto matches =
      enumerate_matches(aig, aiglit::node_of(x), aig.fanout_counts());
  bool has_xor = false;
  for (const Match& m : matches)
    if (m.kind == CellKind::kXor2 || m.kind == CellKind::kXnor2)
      has_xor = true;
  EXPECT_TRUE(has_xor);
}

TEST(Matches, FanoutBlocksAbsorption) {
  Aig aig(3);
  const std::uint32_t inner =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  const std::uint32_t outer = aig.make_and(inner, aig.input_literal(2));
  aig.add_output(outer);
  aig.add_output(inner);  // inner now multi-fanout
  const auto matches =
      enumerate_matches(aig, aiglit::node_of(outer), aig.fanout_counts());
  for (const Match& m : matches)
    EXPECT_LE(m.leaves.size(), 2u);  // no AND3: inner cannot be absorbed
}

TEST(Netlist, AddGateAndTopology) {
  Netlist nl(2);
  const std::uint32_t inv = nl.add_gate(CellKind::kInv, {nl.input_net(0)});
  const std::uint32_t g = nl.add_gate(CellKind::kAnd2, {inv, nl.input_net(1)});
  nl.add_output(g);
  EXPECT_EQ(nl.gate_count(), 2u);
  EXPECT_EQ(nl.num_nets(), 4u);
  // !x0 & x1
  EXPECT_TRUE(nl.evaluate(0b10).at(0));
  EXPECT_FALSE(nl.evaluate(0b01).at(0));
  EXPECT_THROW(nl.add_gate(CellKind::kInv, {99}), std::out_of_range);
}

TEST(Netlist, TimingIsMonotonicInDepth) {
  const CellLibrary& lib = CellLibrary::generic70();
  Netlist shallow(2);
  shallow.add_output(
      shallow.add_gate(CellKind::kAnd2,
                       {shallow.input_net(0), shallow.input_net(1)}));
  Netlist deep(2);
  std::uint32_t net = deep.add_gate(
      CellKind::kAnd2, {deep.input_net(0), deep.input_net(1)});
  for (int i = 0; i < 3; ++i) net = deep.add_gate(CellKind::kInv, {net});
  deep.add_output(net);
  EXPECT_GT(deep.critical_delay(lib), shallow.critical_delay(lib));
}

TEST(TreeMap, SingleGateFunctions) {
  Aig aig(2);
  aig.add_output(aig.make_and(aig.input_literal(0), aig.input_literal(1)));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.output_table(0), AigSimulator(aig).output_table(0));
}

TEST(TreeMap, ConstantAndPassthroughOutputs) {
  Aig aig(2);
  aig.add_output(aiglit::kFalse);
  aig.add_output(aiglit::kTrue);
  aig.add_output(aig.input_literal(1));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  for (std::uint32_t m = 0; m < 4; ++m) {
    const auto out = nl.evaluate(m);
    EXPECT_FALSE(out.at(0));
    EXPECT_TRUE(out.at(1));
    EXPECT_EQ(out.at(2), (m & 2) != 0);
  }
}

TEST(TreeMap, InvertedOutput) {
  Aig aig(2);
  aig.add_output(
      aiglit::negate(aig.make_and(aig.input_literal(0), aig.input_literal(1))));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  // Best implementation is a single NAND2.
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.gates()[0].kind, CellKind::kNand2);
}

TEST(TreeMap, RandomFunctionsAreEquivalent) {
  Rng rng(163);
  for (int trial = 0; trial < 15; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.below(3));
    const Aig aig = random_aig(n, rng);
    for (const MapObjective obj : {MapObjective::kArea, MapObjective::kDelay}) {
      const Netlist nl = map_aig(aig, CellLibrary::generic70(), {obj});
      EXPECT_EQ(nl.output_table(0), AigSimulator(aig).output_table(0))
          << "trial " << trial;
    }
  }
}

TEST(TreeMap, MultiOutputSharing) {
  Aig aig(3);
  const std::uint32_t shared =
      aig.make_and(aig.input_literal(0), aig.input_literal(1));
  aig.add_output(aig.make_and(shared, aig.input_literal(2)));
  aig.add_output(aiglit::negate(shared));
  const Netlist nl = map_aig(aig, CellLibrary::generic70());
  const AigSimulator sim(aig);
  EXPECT_EQ(nl.output_table(0), sim.output_table(0));
  EXPECT_EQ(nl.output_table(1), sim.output_table(1));
}

TEST(TreeMap, DelayModeNoWorseThanAreaModeInDelay) {
  Rng rng(167);
  int delay_wins = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Aig aig = random_aig(6, rng);
    const CellLibrary& lib = CellLibrary::generic70();
    const double d_area =
        map_aig(aig, lib, {MapObjective::kArea}).critical_delay(lib);
    const double d_delay =
        map_aig(aig, lib, {MapObjective::kDelay}).critical_delay(lib);
    if (d_delay <= d_area + 1e-9) ++delay_wins;
  }
  // The DP uses estimated loads, so exact dominance is not guaranteed, but
  // it should hold in the large majority of cases.
  EXPECT_GE(delay_wins, 7);
}

TEST(Power, ProbabilitiesExact) {
  Netlist nl(2);
  const std::uint32_t g =
      nl.add_gate(CellKind::kAnd2, {nl.input_net(0), nl.input_net(1)});
  nl.add_output(g);
  const auto p = net_probabilities(nl);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_DOUBLE_EQ(p[g], 0.25);
}

TEST(Power, ConstantNetsDontSwitch) {
  Netlist nl(1);
  const std::uint32_t t = nl.add_gate(CellKind::kTie1, {});
  nl.add_output(t);
  const PowerReport report = estimate_power(nl, CellLibrary::generic70());
  EXPECT_DOUBLE_EQ(report.dynamic_uw, 0.0);
  EXPECT_GT(report.leakage_nw, 0.0);
}

TEST(Power, MoreGatesMorePower) {
  Rng rng(173);
  const Aig small = random_aig(4, rng);
  const CellLibrary& lib = CellLibrary::generic70();
  const Netlist nl = map_aig(small, lib);
  const NetlistStats stats = analyze_netlist(nl, lib);
  EXPECT_EQ(stats.gates, nl.gate_count());
  EXPECT_GT(stats.area, 0.0);
  EXPECT_GT(stats.delay_ps, 0.0);
  EXPECT_GT(stats.power_uw, 0.0);
}

}  // namespace
}  // namespace rdc
