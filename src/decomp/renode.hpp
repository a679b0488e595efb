// Nodal decomposition with internal don't-care reassignment — the Section-4
// extension of the paper ("renode" in ABC terms).
//
// The AIG is partitioned into fanout-free nodes (tree roots); each node's
// local function over its boundary signals is extracted by exhaustive
// simulation, and boundary patterns that never occur — satisfiability don't
// cares — become the node's DC set. Those DCs are then assigned with the
// paper's reliability-driven LC^f algorithm and the node is resynthesized.
//
// SDC-only rewrites are compositionally safe: an SDC pattern never occurs
// on any reachable input vector, so no signal in the network changes value
// and the primary outputs are preserved exactly (tests verify this).
#pragma once

#include <cstdint>

#include "aig/aig.hpp"
#include "common/rng.hpp"

namespace rdc {

struct RenodeOptions {
  unsigned max_node_inputs = 10;   ///< nodes with more boundary signals are copied verbatim
  double lcf_threshold = 0.55;     ///< LC^f gate for the reliability pass
  bool reliability_assign = true;  ///< false: plain SDC minimization only
};

struct RenodeResult {
  Aig network;                     ///< rebuilt AIG, outputs unchanged
  std::size_t nodes_total = 0;     ///< tree roots visited
  std::size_t nodes_resynthesized = 0;
  std::uint64_t sdc_patterns = 0;  ///< local DC patterns discovered
  std::uint64_t dcs_assigned = 0;  ///< of those, assigned by the LC^f pass
};

/// Decomposes, extracts SDCs, reassigns and resynthesizes. Input count must
/// be <= 20 (exhaustive simulation).
RenodeResult renode_and_assign(const Aig& aig,
                               const RenodeOptions& options = {});

/// Monte-Carlo internal masking metric: fraction of (random input vector,
/// random AND node output flip) events that change at least one primary
/// output. Lower is better. Input count must be <= 20 (each sampled node's
/// observability is read off exhaustive simulation).
double internal_error_rate(const Aig& aig, unsigned samples, Rng& rng);

}  // namespace rdc
