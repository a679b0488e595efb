// Gate-level netlists produced by technology mapping.
//
// Nets are dense ids: 0..n-1 are the primary inputs, every gate drives one
// new net. The netlist supports static timing with the library's linear
// delay model and word-parallel simulation: simulate() evaluates every gate
// on 64 input vectors per std::uint64_t, and every simulating caller —
// evaluate(), output_table(), the power model's switching activity and the
// testbench writer — is a thin wrapper over it.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "mapper/cell_library.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

struct Gate {
  CellKind kind;
  std::vector<std::uint32_t> fanins;  ///< net ids, one per cell pin
  std::uint32_t output_net = 0;
};

class Netlist {
 public:
  /// Empty 0-input netlist; a placeholder container element.
  Netlist() = default;
  explicit Netlist(unsigned num_inputs) : num_inputs_(num_inputs) {}

  unsigned num_inputs() const { return num_inputs_; }
  std::uint32_t num_nets() const {
    return num_inputs_ + static_cast<std::uint32_t>(gates_.size());
  }
  const std::vector<Gate>& gates() const { return gates_; }

  std::uint32_t input_net(unsigned i) const { return i; }

  /// Appends a gate; returns the net it drives. Throws
  /// std::invalid_argument unless there is one fanin per cell pin
  /// (cell_arity) and std::out_of_range if a fanin net is not driven yet.
  std::uint32_t add_gate(CellKind kind, std::vector<std::uint32_t> fanins);

  void add_output(std::uint32_t net) { outputs_.push_back(net); }
  const std::vector<std::uint32_t>& outputs() const { return outputs_; }

  std::size_t gate_count() const { return gates_.size(); }

  /// Total cell area.
  double area(const CellLibrary& lib) const;

  /// Total leakage power (nW).
  double leakage(const CellLibrary& lib) const;

  /// Capacitive load on each net: sum of input caps of the pins it feeds.
  /// Primary outputs add one nominal load each.
  std::vector<double> net_loads(const CellLibrary& lib) const;

  /// Static timing: arrival time of every net (ps), linear delay model.
  std::vector<double> arrival_times(const CellLibrary& lib) const;

  /// Worst arrival time over the primary outputs (ps).
  double critical_delay(const CellLibrary& lib) const;

  /// The simulator core: one word per net, bit b of every word belonging
  /// to input vector b. On entry nets[0..n) hold the primary-input words;
  /// fills the word of every gate-driven net. nets.size() == num_nets().
  void simulate(std::span<std::uint64_t> nets) const;

  /// Loads up to 64 input vectors into the input words of `nets`: vector b
  /// (bit i = input i; inputs >= 32 read 0) goes to lane b.
  void load_vectors(std::span<const std::uint32_t> vectors,
                    std::span<std::uint64_t> nets) const;

  /// Exhaustive simulation over all 2^n vectors (n <= 20), streamed word by
  /// word so memory stays O(nets): for each word w, fills one word per net
  /// with vectors 64w..64w+63 and calls visit(w, nets). For n < 6 the lanes
  /// past 2^n are cleared, so popcounts of the words are exact.
  template <typename Visit>
  void simulate_exhaustive(Visit&& visit) const;

  /// Evaluates the netlist on one input vector (bit i = input i).
  std::vector<bool> evaluate(std::uint32_t minterm) const;

  /// Truth table of output `o` over all 2^n vectors (n <= 20).
  TernaryTruthTable output_table(unsigned o) const;

 private:
  unsigned num_inputs_ = 0;
  std::vector<Gate> gates_;
  std::vector<std::uint32_t> outputs_;
};

template <typename Visit>
void Netlist::simulate_exhaustive(Visit&& visit) const {
  if (num_inputs_ > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("Netlist: too many inputs to simulate");
  const std::uint64_t words =
      num_inputs_ < 6 ? 1 : std::uint64_t{1} << (num_inputs_ - 6);
  const std::uint64_t lanes =
      num_inputs_ < 6 ? (std::uint64_t{1} << num_minterms(num_inputs_)) - 1
                      : ~std::uint64_t{0};
  std::vector<std::uint64_t> nets(num_nets());
  for (std::uint64_t w = 0; w < words; ++w) {
    for (unsigned i = 0; i < num_inputs_; ++i)
      nets[i] = exhaustive_input_word(i, w);
    simulate(nets);
    if (lanes != ~std::uint64_t{0})
      for (std::uint64_t& word : nets) word &= lanes;
    visit(w, std::span<const std::uint64_t>(nets));
  }
}

}  // namespace rdc
