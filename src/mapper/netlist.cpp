#include "mapper/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rdc {

std::uint32_t Netlist::add_gate(CellKind kind,
                                std::vector<std::uint32_t> fanins) {
  if (fanins.size() != cell_arity(kind))
    throw std::invalid_argument(
        "Netlist::add_gate: fanin count does not match the cell's pins");
  for (const std::uint32_t f : fanins)
    if (f >= num_nets())
      throw std::out_of_range("Netlist::add_gate: fanin net not yet driven");
  const std::uint32_t net = num_nets();
  gates_.push_back(Gate{kind, std::move(fanins), net});
  return net;
}

double Netlist::area(const CellLibrary& lib) const {
  double total = 0.0;
  for (const Gate& g : gates_) total += lib.cell(g.kind).area;
  return total;
}

double Netlist::leakage(const CellLibrary& lib) const {
  double total = 0.0;
  for (const Gate& g : gates_) total += lib.cell(g.kind).leakage;
  return total;
}

std::vector<double> Netlist::net_loads(const CellLibrary& lib) const {
  std::vector<double> load(num_nets(), 0.0);
  for (const Gate& g : gates_) {
    const double cap = lib.cell(g.kind).input_cap;
    for (const std::uint32_t f : g.fanins) load[f] += cap;
  }
  for (const std::uint32_t out : outputs_) load[out] += lib.nominal_load();
  return load;
}

std::vector<double> Netlist::arrival_times(const CellLibrary& lib) const {
  const std::vector<double> load = net_loads(lib);
  std::vector<double> arrival(num_nets(), 0.0);
  // Gates are stored in topological order (fanins precede outputs).
  for (const Gate& g : gates_) {
    double latest = 0.0;
    for (const std::uint32_t f : g.fanins)
      latest = std::max(latest, arrival[f]);
    const Cell& cell = lib.cell(g.kind);
    arrival[g.output_net] =
        latest + cell.intrinsic_delay + cell.load_slope * load[g.output_net];
  }
  return arrival;
}

double Netlist::critical_delay(const CellLibrary& lib) const {
  const std::vector<double> arrival = arrival_times(lib);
  double worst = 0.0;
  for (const std::uint32_t out : outputs_)
    worst = std::max(worst, arrival[out]);
  return worst;
}

void Netlist::simulate(std::span<std::uint64_t> nets) const {
  assert(nets.size() == num_nets());
  std::uint64_t pins[kMaxCellArity] = {};
  for (const Gate& g : gates_) {
    for (std::size_t k = 0; k < g.fanins.size(); ++k)
      pins[k] = nets[g.fanins[k]];
    nets[g.output_net] = evaluate_cell_word(g.kind, pins);
  }
}

void Netlist::load_vectors(std::span<const std::uint32_t> vectors,
                           std::span<std::uint64_t> nets) const {
  assert(vectors.size() <= 64);
  for (unsigned i = 0; i < num_inputs_; ++i) {
    std::uint64_t word = 0;
    if (i < 32)
      for (std::size_t b = 0; b < vectors.size(); ++b)
        word |= std::uint64_t{(vectors[b] >> i) & 1u} << b;
    nets[i] = word;
  }
}

std::vector<bool> Netlist::evaluate(std::uint32_t minterm) const {
  std::vector<std::uint64_t> nets(num_nets());
  load_vectors({&minterm, 1}, nets);
  simulate(nets);
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const std::uint32_t net : outputs_) out.push_back(nets[net] & 1u);
  return out;
}

TernaryTruthTable Netlist::output_table(unsigned o) const {
  const std::uint32_t net = outputs_.at(o);
  TernaryTruthTable tt(num_inputs_);
  simulate_exhaustive(
      [&](std::uint64_t w, std::span<const std::uint64_t> nets) {
        tt.set_word(w, nets[net]);
      });
  return tt;
}

}  // namespace rdc
