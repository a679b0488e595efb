// Observability don't cares for nodal decomposition.
//
// Extends decomp/renode.hpp to the full Section-4 scope: in addition to
// satisfiability DCs (boundary patterns that never occur), a node also has
// *observability* DCs — patterns whose vectors never influence any primary
// output (flipping the node's value is invisible downstream).
//
// Unlike SDC-only rewrites, ODC-based rewrites change internal signal
// values, so combining them across nodes naively is unsound (the classic
// CODC compatibility problem). This implementation stays sound by rewriting
// ONE node per pass against don't cares extracted from the *current*
// network, then re-simulating; each accepted rewrite preserves the primary
// outputs exactly, so their composition does too. The rewriter is the one
// in renode.cpp; only the DC set and the one-node discipline differ.
#pragma once

#include <cstdint>

#include "aig/aig.hpp"
#include "decomp/renode.hpp"

namespace rdc {

struct OdcRenodeOptions : RenodeOptions {
  unsigned max_rewrites = 64;  ///< outer-loop bound
};

struct OdcRenodeResult {
  Aig network;
  unsigned rewrites = 0;           ///< nodes resynthesized
  std::uint64_t sdc_patterns = 0;  ///< across all rewritten nodes
  std::uint64_t odc_patterns = 0;  ///< observability-only DC patterns
  std::uint64_t dcs_assigned = 0;  ///< by the reliability pass
};

/// Iteratively rewrites nodes against their SDC ∪ ODC sets. Outputs are
/// preserved exactly (verified by tests). Requires <= 20 inputs.
OdcRenodeResult renode_with_odcs(const Aig& aig,
                                 const OdcRenodeOptions& options = {});

}  // namespace rdc
