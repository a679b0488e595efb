#include "oracle.hpp"

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <optional>
#include <vector>

namespace e2e {
namespace {

using rdc::CellKind;
using Words = std::vector<std::uint64_t>;

/// Truth tables of every net, one bit per minterm (bit m of word m / 64).
class Simulation {
 public:
  explicit Simulation(const rdc::Netlist& netlist)
      : inputs_(netlist.num_inputs()),
        words_(inputs_ < 6 ? 1 : std::size_t{1} << (inputs_ - 6)),
        nets_(netlist.num_nets(), Words(words_, 0)) {
    for (unsigned i = 0; i < inputs_; ++i) {
      for (std::size_t w = 0; w < words_; ++w)
        nets_[i][w] = input_word(i, w);
    }
    for (const rdc::Gate& gate : netlist.gates()) {
      Words& out = nets_.at(gate.output_net);
      for (std::size_t w = 0; w < words_; ++w) out[w] = eval(gate, w);
    }
  }

  bool value(std::uint32_t net, std::uint32_t minterm) const {
    return ((nets_.at(net)[minterm / 64] >> (minterm % 64)) & 1u) != 0;
  }

 private:
  static std::uint64_t input_word(unsigned i, std::size_t w) {
    static constexpr std::uint64_t kLow[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    if (i < 6) return kLow[i];
    return ((w >> (i - 6)) & 1u) != 0 ? ~std::uint64_t{0} : 0;
  }

  std::uint64_t eval(const rdc::Gate& gate, std::size_t w) const {
    const auto in = [&](std::size_t pin) { return nets_.at(gate.fanins.at(pin))[w]; };
    switch (gate.kind) {
      case CellKind::kInv: return ~in(0);
      case CellKind::kBuf: return in(0);
      case CellKind::kAnd2: return in(0) & in(1);
      case CellKind::kNand2: return ~(in(0) & in(1));
      case CellKind::kOr2: return in(0) | in(1);
      case CellKind::kNor2: return ~(in(0) | in(1));
      case CellKind::kAnd3: return in(0) & in(1) & in(2);
      case CellKind::kNand3: return ~(in(0) & in(1) & in(2));
      case CellKind::kOr3: return in(0) | in(1) | in(2);
      case CellKind::kNor3: return ~(in(0) | in(1) | in(2));
      case CellKind::kAnd4: return in(0) & in(1) & in(2) & in(3);
      case CellKind::kNand4: return ~(in(0) & in(1) & in(2) & in(3));
      case CellKind::kAoi21: return ~((in(0) & in(1)) | in(2));
      case CellKind::kOai21: return ~((in(0) | in(1)) & in(2));
      case CellKind::kAoi22: return ~((in(0) & in(1)) | (in(2) & in(3)));
      case CellKind::kOai22: return ~((in(0) | in(1)) & (in(2) | in(3)));
      case CellKind::kXor2: return in(0) ^ in(1);
      case CellKind::kXnor2: return ~(in(0) ^ in(1));
      case CellKind::kTie0: return 0;
      case CellKind::kTie1: return ~std::uint64_t{0};
    }
    return 0;
  }

  unsigned inputs_;
  std::size_t words_;
  std::vector<Words> nets_;
};

std::optional<CellKind> complement(CellKind kind) {
  switch (kind) {
    case CellKind::kInv: return CellKind::kBuf;
    case CellKind::kBuf: return CellKind::kInv;
    case CellKind::kAnd2: return CellKind::kNand2;
    case CellKind::kNand2: return CellKind::kAnd2;
    case CellKind::kOr2: return CellKind::kNor2;
    case CellKind::kNor2: return CellKind::kOr2;
    case CellKind::kAnd3: return CellKind::kNand3;
    case CellKind::kNand3: return CellKind::kAnd3;
    case CellKind::kOr3: return CellKind::kNor3;
    case CellKind::kNor3: return CellKind::kOr3;
    case CellKind::kAnd4: return CellKind::kNand4;
    case CellKind::kNand4: return CellKind::kAnd4;
    case CellKind::kXor2: return CellKind::kXnor2;
    case CellKind::kXnor2: return CellKind::kXor2;
    case CellKind::kTie0: return CellKind::kTie1;
    case CellKind::kTie1: return CellKind::kTie0;
    default: return std::nullopt;  // and-or-invert cells have no complement
  }
}

bool shape_ok(const rdc::IncompleteSpec& spec, const rdc::Netlist& netlist) {
  return netlist.num_inputs() == spec.num_inputs() &&
         netlist.outputs().size() == spec.num_outputs() &&
         spec.num_inputs() <= 20;
}

/// Brute force over every care minterm and input pin, normalized by
/// n * 2^n per output and averaged over outputs as the flow reports it.
double error_rate_of(const rdc::IncompleteSpec& spec, const Simulation& sim,
                     const rdc::Netlist& netlist) {
  const unsigned n = spec.num_inputs();
  if (spec.num_outputs() == 0) return 0.0;
  double sum = 0.0;
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    const rdc::TernaryTruthTable& f = spec.output(o);
    const std::uint32_t net = netlist.outputs()[o];
    std::uint64_t propagating = 0;
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      if (!f.is_care(m)) continue;
      const bool value = sim.value(net, m);
      for (unsigned j = 0; j < n; ++j)
        if (sim.value(net, m ^ (std::uint32_t{1} << j)) != value)
          ++propagating;
    }
    sum += static_cast<double>(propagating) /
           (static_cast<double>(n) * static_cast<double>(f.size()));
  }
  return sum / spec.num_outputs();
}

}  // namespace

std::string check_netlist(const rdc::IncompleteSpec& spec,
                          const rdc::Netlist& netlist,
                          double reported_error_rate) {
  if (!shape_ok(spec, netlist))
    return spec.name() + ": netlist shape does not match the spec";
  const Simulation sim(netlist);
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    const rdc::TernaryTruthTable& f = spec.output(o);
    for (std::uint32_t m = 0; m < f.size(); ++m) {
      if (f.is_care(m) && sim.value(netlist.outputs()[o], m) != f.is_on(m))
        return spec.name() + ": output " + std::to_string(o) +
               " differs from the spec at care minterm " + std::to_string(m);
    }
  }
  const double rate = error_rate_of(spec, sim, netlist);
  if (rate != reported_error_rate) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  ": reported error rate %.17g, netlist has %.17g",
                  reported_error_rate, rate);
    return spec.name() + buffer;
  }
  return {};
}

std::string oracle_self_test(const rdc::IncompleteSpec& spec,
                             const rdc::Netlist& netlist,
                             double reported_error_rate) {
  if (std::string why = check_netlist(spec, netlist, reported_error_rate);
      !why.empty())
    return "oracle self-test: unmodified netlist rejected: " + why;

  // Complementing the cell that drives an output inverts that output on
  // every minterm, so some care minterm must now disagree.
  std::optional<std::size_t> victim;
  for (std::size_t g = 0; g < netlist.gates().size() && !victim; ++g) {
    const rdc::Gate& gate = netlist.gates()[g];
    if (!complement(gate.kind)) continue;
    for (unsigned o = 0; o < spec.num_outputs(); ++o)
      if (netlist.outputs()[o] == gate.output_net &&
          spec.output(o).dc_count() < spec.output(o).size())
        victim = g;
  }
  if (!victim) return "oracle self-test: no output gate to mutate";
  rdc::Netlist mutated(netlist.num_inputs());
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    const rdc::Gate& gate = netlist.gates()[g];
    mutated.add_gate(g == *victim ? *complement(gate.kind) : gate.kind,
                     gate.fanins);
  }
  for (const std::uint32_t net : netlist.outputs()) mutated.add_output(net);
  if (check_netlist(spec, mutated, reported_error_rate).empty())
    return "oracle self-test: gate-swapped netlist accepted";

  const double perturbed = std::nextafter(reported_error_rate, 1.0);
  if (check_netlist(spec, netlist, perturbed).empty())
    return "oracle self-test: perturbed error rate accepted";
  return {};
}

}  // namespace e2e
