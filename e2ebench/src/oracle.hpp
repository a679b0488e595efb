// Independent output oracle.
//
// Evaluates a mapped netlist with the benchmark's own gate-by-gate
// simulator over Netlist::gates() and the CellKind semantics written out
// here, never through Netlist::evaluate, output_table or
// net_probabilities. A flow's output is accepted only when the netlist
// agrees with the specification on every care minterm and the
// brute-force input-error rate of the evaluated netlist equals the
// reported error rate exactly (same normalization n * 2^n per output, mean
// over outputs).
#pragma once

#include <cstddef>
#include <string>

#include "mapper/netlist.hpp"
#include "tt/incomplete_spec.hpp"

namespace e2e {

/// Empty when the netlist implements `spec` and `reported_error_rate` is
/// its exact error rate; otherwise the first discrepancy found.
std::string check_netlist(const rdc::IncompleteSpec& spec,
                          const rdc::Netlist& netlist,
                          double reported_error_rate);

/// Self-test on a real flow result: the unmodified netlist must pass, and
/// a copy with one gate swapped for its complementary kind, or a rate one
/// ulp off, must both fail. Empty on success.
std::string oracle_self_test(const rdc::IncompleteSpec& spec,
                             const rdc::Netlist& netlist,
                             double reported_error_rate);

}  // namespace e2e
