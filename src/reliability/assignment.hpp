// Reliability-driven DC assignment algorithms.
//
// Implements the two algorithms proposed by the paper:
//  * ranking-based assignment (Fig. 3): rank DC minterms by
//    w = |#on-neighbors - #off-neighbors| and assign the top `fraction` of
//    the ranked list to the majority phase of their neighbors;
//  * complexity-factor-based assignment (Fig. 7): assign a DC minterm to its
//    majority phase iff its local complexity factor is below a threshold.
//
// Both decide through a fault model (DESIGN.md §16): a DC's two phases add
// event mass if_on / if_off (FaultModel::dc_assignment_events), the DC goes
// to the phase adding less, and |if_on - if_off| is its rank weight. Under
// the default model, bitflip(1), if_on and if_off are the off- and
// on-neighbor counts, so the weight and the majority phase are exactly the
// paper's.
//
// Both follow the paper's static formulation: event masses and local
// complexity factors are computed once on the input specification and not
// refreshed as DCs get assigned (an incremental variant is provided for the
// ablation study).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "reliability/fault_model.hpp"
#include "tt/incomplete_spec.hpp"
#include "tt/neighbor_stats.hpp"
#include "tt/ternary_function.hpp"

namespace rdc {

/// Result of a DC assignment pass on one output function.
struct AssignmentResult {
  std::uint32_t dc_before = 0;   ///< DC minterms before the pass
  std::uint32_t assigned = 0;    ///< minterms assigned by the pass
  std::uint32_t assigned_on = 0; ///< of those, assigned to the on-set
};

/// Ranking-based DC assignment (paper Fig. 3).
///
/// `fraction` in [0, 1] selects how much of the ranked list (DCs with
/// non-zero weight only, sorted by decreasing weight, ties broken by
/// minterm index) is assigned. fraction = 1 assigns every DC whose phases
/// differ in event mass; DCs with weight 0 are always left unassigned.
AssignmentResult ranking_assign(
    TernaryTruthTable& f, double fraction,
    const reliability::FaultModel& model = reliability::default_fault_model());

/// Assigns exactly `count` DCs by rank (used for the paper's Table-2
/// protocol of comparing ranking-based to LC^f-based at equal fractions).
AssignmentResult ranking_assign_count(
    TernaryTruthTable& f, std::uint32_t count,
    const reliability::FaultModel& model = reliability::default_fault_model());

/// Complexity-factor-based DC assignment (paper Fig. 7).
///
/// Assigns each DC minterm with LC^f below `threshold` to the phase adding
/// less event mass (the majority phase of its neighbors under the default
/// model). The paper recommends thresholds in [0.45, 0.65]. The LC^f gate
/// measures spec structure, not the fault scenario, so it is the same under
/// every model.
///
/// `assign_balanced`: the paper's Fig.-7 pseudocode reads "else x <- 0",
/// which would send *tied* DCs (equal on/off neighbor counts) to the
/// off-set — pure area overhead with zero reliability benefit. The default
/// (false) leaves ties to the conventional optimizer, which matches the
/// low overheads the paper reports; true follows the pseudocode literally
/// (compare with bench_ablation_ties).
AssignmentResult lcf_assign(
    TernaryTruthTable& f, double threshold, bool assign_balanced = false,
    const reliability::FaultModel& model = reliability::default_fault_model());

/// Incremental variant (ablation B), defined for the paper's model only:
/// neighbor counts are updated after every individual assignment, so
/// earlier assignments can create or destroy majorities for later ones.
AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction);

/// Multi-output wrappers: apply the pass to every output independently and
/// accumulate the counters. A non-empty `tables` holds one prebuilt
/// NeighborTable per output of `spec` (tables.size() == num_outputs()) —
/// the flow builds them once per Design, which stays valid because every
/// algorithm here reads the pristine spec; an empty span builds them on the
/// fly.
AssignmentResult ranking_assign(
    IncompleteSpec& spec, double fraction,
    std::span<const NeighborTable> tables = {},
    const reliability::FaultModel& model = reliability::default_fault_model());
AssignmentResult ranking_assign_incremental(
    IncompleteSpec& spec, double fraction,
    std::span<const NeighborTable> tables = {});
AssignmentResult lcf_assign(
    IncompleteSpec& spec, double threshold, bool assign_balanced = false,
    std::span<const NeighborTable> tables = {},
    const reliability::FaultModel& model = reliability::default_fault_model());

/// Assigns every remaining DC of `f` to the phase indicated by a
/// completely specified reference implementation (used to realize
/// "conventional assignment" from a minimized cover).
void assign_from_implementation(TernaryTruthTable& f,
                                const TernaryTruthTable& implementation);

}  // namespace rdc
