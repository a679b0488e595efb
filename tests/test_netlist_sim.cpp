// Tests for the word-parallel netlist simulator: byte pins of everything
// it feeds (testbench text, power figures), a differential check against a
// structurally independent oracle (netlist_to_aig + AigSimulator), and the
// cell-arity contract of Netlist::add_gate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "aig/simulate.hpp"
#include "benchdata/suite.hpp"
#include "common/rng.hpp"
#include "espresso/espresso.hpp"
#include "flow/synthesis_flow.hpp"
#include "io/testbench.hpp"
#include "mapper/cell_library.hpp"
#include "mapper/netlist.hpp"
#include "mapper/power.hpp"
#include "mapper/tree_map.hpp"
#include "mapper/unmap.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A random netlist over every cell kind: each gate draws its fanins from
/// the nets driven so far, and the last `num_outputs` nets are outputs.
Netlist random_netlist(unsigned n, unsigned num_gates, unsigned num_outputs,
                       Rng& rng) {
  const CellLibrary& lib = CellLibrary::generic70();
  Netlist nl(n);
  for (unsigned g = 0; g < num_gates; ++g) {
    const Cell& cell =
        nl.num_nets() == 0  // nothing to read yet: a tie cell
            ? lib.cell(rng.flip(0.5) ? CellKind::kTie1 : CellKind::kTie0)
            : lib.cells()[rng.below(lib.cells().size())];
    std::vector<std::uint32_t> fanins;
    for (unsigned k = 0; k < cell_arity(cell.kind); ++k)
      fanins.push_back(static_cast<std::uint32_t>(rng.below(nl.num_nets())));
    nl.add_gate(cell.kind, std::move(fanins));
  }
  for (unsigned o = 0; o < num_outputs; ++o)
    nl.add_output(nl.num_nets() - 1 - o);
  return nl;
}

TEST(NetlistSimPins, ExhaustiveTestbenchBytes) {
  Rng rng(4001);
  const Netlist nl = random_netlist(4, 14, 3, rng);
  const std::string tb = to_testbench(nl, "pin4");
  EXPECT_NE(tb.find("(16 vectors, exhaustive)"), std::string::npos);
  EXPECT_NE(tb.find("    check(4'd0, 3'd0);\n"
                    "    check(4'd1, 3'd2);\n"
                    "    check(4'd2, 3'd0);\n"
                    "    check(4'd3, 3'd2);\n"
                    "    check(4'd4, 3'd1);\n"
                    "    check(4'd5, 3'd2);\n"
                    "    check(4'd6, 3'd6);\n"
                    "    check(4'd7, 3'd1);\n"
                    "    check(4'd8, 3'd0);\n"
                    "    check(4'd9, 3'd2);\n"
                    "    check(4'd10, 3'd0);\n"
                    "    check(4'd11, 3'd3);\n"
                    "    check(4'd12, 3'd7);\n"
                    "    check(4'd13, 3'd3);\n"
                    "    check(4'd14, 3'd7);\n"
                    "    check(4'd15, 3'd1);\n"
                    "    if (errors == 0)"),
            std::string::npos)
      << tb;
  EXPECT_EQ(tb.size(), 1052u);
  EXPECT_EQ(fnv1a(tb), 12616877967611655683ull) << tb;
}

TEST(NetlistSimPins, SampledTestbenchBytes) {
  // 1000 vectors is not a multiple of 64: the last pack is partial.
  Rng rng(4002);
  const Netlist nl = random_netlist(18, 60, 5, rng);
  TestbenchOptions options;
  options.sampled_vectors = 1000;
  options.seed = 77;
  const std::string tb = to_testbench(nl, "pin18", options);
  EXPECT_NE(tb.find("(1000 vectors, sampled)"), std::string::npos);
  EXPECT_EQ(tb.size(), 30466u);
  EXPECT_EQ(fnv1a(tb), 562467894217354299ull);
}

TEST(NetlistSimPins, Table1PowerBits) {
  // power_uw of three LCF-assigned Table-1 circuits under the power recipe,
  // bit for bit: the exact switching activity and estimate_power's
  // summation order are part of the report contract.
  struct Pin {
    const char* name;
    std::uint64_t bits;
  };
  const Pin pins[] = {{"bench", 0x40466b17b645a1caull},
                      {"t4", 0x4051ea608587fcbaull},
                      {"random1", 0x40b323d5f66be089ull}};
  const CellLibrary& lib = CellLibrary::generic70();
  for (const Pin& pin : pins) {
    const FlowResult result =
        run_flow(make_benchmark(pin.name), DcPolicy::kLcfThreshold, {});
    const double power = analyze_netlist(result.netlist, lib).power_uw;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(power), pin.bits)
        << pin.name << " " << std::hex << std::bit_cast<std::uint64_t>(power);
    EXPECT_EQ(power, result.stats.power_uw) << pin.name;
  }
}

/// Every simulating entry point of `nl` must agree with the oracle: the
/// netlist rebuilt as an AIG, cell by cell, and simulated by AigSimulator.
void expect_matches_oracle(const Netlist& nl, Rng& rng,
                           const std::string& label) {
  const Aig aig = netlist_to_aig(nl);
  const AigSimulator sim(aig);
  const std::vector<double> prob = net_probabilities(nl);
  for (unsigned o = 0; o < nl.outputs().size(); ++o) {
    const std::uint32_t lit = aig.outputs()[o];
    const TernaryTruthTable table = nl.output_table(o);
    EXPECT_EQ(table, sim.output_table(o)) << label << " output " << o;
    for (std::uint32_t m = 0; m < sim.num_vectors(); ++m)
      ASSERT_EQ(table.is_on(m), sim.literal_value(lit, m))
          << label << " output " << o << " minterm " << m;
    EXPECT_EQ(prob[nl.outputs()[o]], sim.signal_probability(lit))
        << label << " output " << o;
  }
  for (int draw = 0; draw < 24; ++draw) {
    const auto m = static_cast<std::uint32_t>(rng.below(sim.num_vectors()));
    const std::vector<bool> values = nl.evaluate(m);
    for (unsigned o = 0; o < nl.outputs().size(); ++o)
      ASSERT_EQ(values[o], sim.literal_value(aig.outputs()[o], m))
          << label << " output " << o << " minterm " << m;
  }
}

/// Marks every net as an output, so the oracle checks each one.
void expose_all_nets(Netlist& nl) {
  for (std::uint32_t net = 0; net < nl.num_nets(); ++net) nl.add_output(net);
}

constexpr unsigned kWidths[] = {0, 1, 3, 5, 6, 7, 10, 12};

TEST(NetlistSimOracle, RandomGateNetlists) {
  // Random netlists over all 20 cell kinds, every net observed. Widths
  // below 6 use one partial word, so an inverter-driven net with an
  // unmasked tail would inflate its probability past the oracle's.
  Rng rng(4101);
  for (const unsigned n : kWidths) {
    for (int trial = 0; trial < 4; ++trial) {
      Netlist nl = random_netlist(n, 40, 0, rng);
      expose_all_nets(nl);
      expect_matches_oracle(nl, rng,
                            "n=" + std::to_string(n) +
                                " trial=" + std::to_string(trial));
    }
  }
}

TEST(NetlistSimOracle, EveryCellKindByHand) {
  // One gate of each kind reading the four inputs (and one deeper level),
  // all observed, at every width that has enough inputs plus n = 12.
  const CellLibrary& lib = CellLibrary::generic70();
  Rng rng(4102);
  for (const unsigned n : {4u, 5u, 6u, 7u, 12u}) {
    Netlist nl(n);
    std::vector<std::uint32_t> first;
    for (const Cell& cell : lib.cells()) {
      const unsigned arity = cell_arity(cell.kind);
      std::vector<std::uint32_t> fanins;
      for (unsigned k = 0; k < arity; ++k)
        fanins.push_back(nl.input_net((k + arity) % n));
      first.push_back(nl.add_gate(cell.kind, std::move(fanins)));
    }
    for (std::size_t i = 0; i < lib.cells().size(); ++i) {
      const Cell& cell = lib.cells()[i];
      std::vector<std::uint32_t> fanins;
      for (unsigned k = 0; k < cell_arity(cell.kind); ++k)
        fanins.push_back(first[(i + 7 * k + 1) % first.size()]);
      nl.add_gate(cell.kind, std::move(fanins));
    }
    expose_all_nets(nl);
    expect_matches_oracle(nl, rng, "n=" + std::to_string(n));
  }
}

/// A random single-output function through ESPRESSO and factoring.
Aig random_aig(unsigned n, Rng& rng) {
  TernaryTruthTable f(n);
  for (std::uint32_t m = 0; m < f.size(); ++m)
    f.set_phase(m, rng.flip(0.45) ? Phase::kOne : Phase::kZero);
  Aig aig(n);
  aig.add_output(aig.build(factor(minimize(f))));
  return aig;
}

TEST(NetlistSimOracle, MappedRandomFunctions) {
  // Mapped netlists under the area and delay objectives, and whole
  // multi-output specs through the power and delay recipes.
  const CellLibrary& lib = CellLibrary::generic70();
  Rng rng(4103);
  for (const unsigned n : kWidths) {
    if (n == 0) continue;  // no two-level function to minimize
    for (int trial = 0; trial < 3; ++trial) {
      const std::string label =
          "n=" + std::to_string(n) + " trial=" + std::to_string(trial);
      const Aig aig = random_aig(n, rng);
      for (const MapObjective obj : {MapObjective::kArea, MapObjective::kDelay})
        expect_matches_oracle(map_aig(aig, lib, {obj}), rng, label);
      if (trial > 0) continue;  // one multi-output spec per width
      IncompleteSpec spec("r", n, 3);
      for (TernaryTruthTable& f : spec.outputs())
        for (std::uint32_t m = 0; m < f.size(); ++m)
          f.set_phase(m, rng.flip(0.5) ? Phase::kOne : Phase::kZero);
      for (const OptimizeFor objective :
           {OptimizeFor::kPower, OptimizeFor::kDelay})
        expect_matches_oracle(synthesize(spec, objective), rng, label);
    }
  }
}

TEST(NetlistSim, EvaluateBeyondTheTableWidth) {
  // evaluate() serves the sampled testbench, so it must work past the
  // 20-input limit of the exhaustive paths: a parity chain over 26
  // inputs, and inputs >= 32 (beyond a 32-bit vector) read 0.
  for (const unsigned n : {26u, 34u}) {
    Netlist nl(n);
    std::uint32_t parity = nl.input_net(0);
    for (unsigned i = 1; i < n; ++i)
      parity = nl.add_gate(CellKind::kXor2, {parity, nl.input_net(i)});
    nl.add_output(parity);
    nl.add_output(nl.add_gate(CellKind::kNor2, {nl.input_net(n - 2),
                                                nl.input_net(n - 1)}));
    EXPECT_THROW(nl.output_table(0), std::invalid_argument);
    Rng rng(4104 + n);
    for (int draw = 0; draw < 64; ++draw) {
      const auto m = static_cast<std::uint32_t>(rng());
      const std::uint32_t driven = n >= 32 ? m : m & ((1u << n) - 1);
      const std::vector<bool> out = nl.evaluate(m);
      EXPECT_EQ(out[0], (std::popcount(driven) & 1) != 0) << n << " " << m;
      const bool top_zero =
          n >= 32 || ((m >> (n - 2)) & 3u) == 0;
      EXPECT_EQ(out[1], top_zero) << n << " " << m;
    }
  }
}

TEST(Netlist, AddGateChecksCellArity) {
  Netlist nl(3);
  EXPECT_THROW(nl.add_gate(CellKind::kAnd3, {0, 1}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(CellKind::kInv, {}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(CellKind::kTie1, {0}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(CellKind::kNand4, {0, 1, 2, 0, 1, 2, 0, 1, 2}),
               std::invalid_argument);
  EXPECT_EQ(nl.gate_count(), 0u);
  // Exactly one fanin per pin is accepted for every kind.
  for (const Cell& cell : CellLibrary::generic70().cells()) {
    EXPECT_LE(cell_arity(cell.kind), kMaxCellArity) << cell.name;
    nl.add_gate(cell.kind,
                std::vector<std::uint32_t>(cell_arity(cell.kind), 0));
  }
  EXPECT_EQ(nl.gate_count(), CellLibrary::generic70().cells().size());
}

}  // namespace
}  // namespace rdc
