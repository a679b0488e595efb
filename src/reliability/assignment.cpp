#include "reliability/assignment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <utility>

#include "obs/counters.hpp"
#include "reliability/complexity.hpp"

namespace rdc {
namespace {

using reliability::FaultModel;
using reliability::MintermEvents;

/// One DC decision: the phase adding less event mass under the model.
struct Decision {
  std::uint32_t minterm = 0;
  bool to_on = false;
};

/// Fig. 3's ranked DC list under `model`: only DCs whose phases add
/// different event mass, in decreasing |if_on - if_off| order (ties by
/// minterm index — the stable sort keeps dc_minterms() order).
std::vector<Decision> ranked_list(const TernaryTruthTable& f,
                                  const NeighborTable& neighbors,
                                  const FaultModel& model) {
  const std::vector<std::uint32_t> dcs = f.dc_minterms();
  const std::vector<MintermEvents> events =
      model.dc_assignment_events(f, neighbors);
  std::vector<std::pair<double, Decision>> ranked;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    const double w = std::abs(events[i].if_on - events[i].if_off);
    if (w > 0.0)
      ranked.push_back({w, {dcs[i], events[i].if_on < events[i].if_off}});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Decision> list;
  list.reserve(ranked.size());
  for (const auto& entry : ranked) list.push_back(entry.second);
  return list;
}

/// Applies the first `count` decisions (all of them if fewer).
AssignmentResult apply(TernaryTruthTable& f, const std::vector<Decision>& list,
                       std::size_t count) {
  AssignmentResult result;
  result.dc_before = f.dc_count();
  count = std::min(count, list.size());
  for (std::size_t i = 0; i < count; ++i) {
    f.set_phase(list[i].minterm, list[i].to_on ? Phase::kOne : Phase::kZero);
    ++result.assigned;
    if (list[i].to_on) ++result.assigned_on;
  }
  return result;
}

AssignmentResult ranking_assign(TernaryTruthTable& f, double fraction,
                                const NeighborTable& neighbors,
                                const FaultModel& model) {
  assert(fraction >= 0.0 && fraction <= 1.0);
  const std::vector<Decision> list = ranked_list(f, neighbors, model);
  // Fig. 3 assigns indices 0 .. fraction * DC_List.length.
  const auto count = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(list.size())));
  const AssignmentResult result = apply(f, list, count);
  obs::count(obs::Counter::kDcRankingAssigned, result.assigned);
  return result;
}

AssignmentResult lcf_assign(TernaryTruthTable& f, double threshold,
                            bool assign_balanced,
                            const NeighborTable& neighbors,
                            const FaultModel& model) {
  // Collect decisions first so that assignments made by this pass do not
  // perturb the LC^f computations of later minterms (the paper's Fig. 7
  // evaluates all metrics on the input specification).
  const std::vector<std::uint32_t> dcs = f.dc_minterms();
  const std::vector<MintermEvents> events =
      model.dc_assignment_events(f, neighbors);
  std::vector<Decision> decisions;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    if (local_complexity_factor(f, neighbors, dcs[i]) >= threshold) continue;
    if (!assign_balanced && events[i].if_on == events[i].if_off) continue;
    decisions.push_back({dcs[i], events[i].if_on < events[i].if_off});
  }
  const AssignmentResult result = apply(f, decisions, decisions.size());
  obs::count(obs::Counter::kDcLcfAssigned, result.assigned);
  return result;
}

AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction,
                                            const NeighborTable& neighbors) {
  assert(fraction >= 0.0 && fraction <= 1.0);
  AssignmentResult result;
  result.dc_before = f.dc_count();

  // Neighbor counts kept current as DCs get assigned.
  std::vector<NeighborCounts> counts(f.size());
  for (std::uint32_t m = 0; m < f.size(); ++m) counts[m] = neighbors.at(m);
  const auto weight = [&](std::uint32_t m) {
    const NeighborCounts& c = counts[m];
    return c.on > c.off ? unsigned{c.on} - c.off : unsigned{c.off} - c.on;
  };

  // Max-heap with lazy revalidation: entries carry the weight they were
  // pushed with; stale entries (weight changed since) are re-pushed.
  struct Entry {
    unsigned weight;
    std::uint32_t minterm;
    bool operator<(const Entry& other) const {
      if (weight != other.weight) return weight < other.weight;
      return minterm > other.minterm;  // prefer smaller index on ties
    }
  };

  std::priority_queue<Entry> heap;
  std::size_t ranked = 0;  // nonzero-weight DCs, the ranked-list length
  for (std::uint32_t m : f.dc_minterms())
    if (weight(m) != 0) {
      heap.push({weight(m), m});
      ++ranked;
    }

  // Budget mirrors the static variant: the ranked-list length at the start.
  const std::size_t budget = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(ranked)));

  while (result.assigned < budget && !heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    if (!f.is_dc(top.minterm)) continue;  // already assigned
    const unsigned w = weight(top.minterm);
    if (w == 0) continue;  // majority vanished; drop per Fig. 3's filter
    if (w != top.weight) {
      heap.push({w, top.minterm});  // stale entry: reinsert with fresh weight
      continue;
    }
    const bool to_on = counts[top.minterm].on > counts[top.minterm].off;
    f.set_phase(top.minterm, to_on ? Phase::kOne : Phase::kZero);
    ++result.assigned;
    if (to_on) ++result.assigned_on;
    // The assignment converts one DC neighbor of each adjacent minterm into
    // an on/off neighbor; requeue still-unassigned neighbors whose weight
    // became non-zero.
    for (unsigned j = 0; j < f.num_inputs(); ++j) {
      const std::uint32_t nbr = flip_bit(top.minterm, j);
      NeighborCounts& c = counts[nbr];
      --c.dc;
      if (to_on)
        ++c.on;
      else
        ++c.off;
      if (f.is_dc(nbr) && weight(nbr) != 0) heap.push({weight(nbr), nbr});
    }
  }
  obs::count(obs::Counter::kDcIncrementalAssigned, result.assigned);
  return result;
}

/// Runs `pass(f, table)` over every output with its prebuilt table (or a
/// fresh one when `tables` is empty) and sums the counters.
template <typename Pass>
AssignmentResult for_each_output(IncompleteSpec& spec,
                                 std::span<const NeighborTable> tables,
                                 Pass pass) {
  assert(tables.empty() || tables.size() == spec.num_outputs());
  AssignmentResult total;
  for (unsigned o = 0; o < spec.num_outputs(); ++o) {
    TernaryTruthTable& f = spec.output(o);
    const AssignmentResult r =
        tables.empty() ? pass(f, NeighborTable(f)) : pass(f, tables[o]);
    total.dc_before += r.dc_before;
    total.assigned += r.assigned;
    total.assigned_on += r.assigned_on;
  }
  return total;
}

}  // namespace

AssignmentResult ranking_assign(TernaryTruthTable& f, double fraction,
                                const FaultModel& model) {
  return ranking_assign(f, fraction, NeighborTable(f), model);
}

AssignmentResult ranking_assign_count(TernaryTruthTable& f,
                                      std::uint32_t count,
                                      const FaultModel& model) {
  return apply(f, ranked_list(f, NeighborTable(f), model), count);
}

AssignmentResult lcf_assign(TernaryTruthTable& f, double threshold,
                            bool assign_balanced, const FaultModel& model) {
  return lcf_assign(f, threshold, assign_balanced, NeighborTable(f), model);
}

AssignmentResult ranking_assign_incremental(TernaryTruthTable& f,
                                            double fraction) {
  return ranking_assign_incremental(f, fraction, NeighborTable(f));
}

AssignmentResult ranking_assign(IncompleteSpec& spec, double fraction,
                                std::span<const NeighborTable> tables,
                                const FaultModel& model) {
  return for_each_output(
      spec, tables, [&](TernaryTruthTable& f, const NeighborTable& table) {
        return ranking_assign(f, fraction, table, model);
      });
}

AssignmentResult ranking_assign_incremental(
    IncompleteSpec& spec, double fraction,
    std::span<const NeighborTable> tables) {
  return for_each_output(
      spec, tables, [&](TernaryTruthTable& f, const NeighborTable& table) {
        return ranking_assign_incremental(f, fraction, table);
      });
}

AssignmentResult lcf_assign(IncompleteSpec& spec, double threshold,
                            bool assign_balanced,
                            std::span<const NeighborTable> tables,
                            const FaultModel& model) {
  return for_each_output(
      spec, tables, [&](TernaryTruthTable& f, const NeighborTable& table) {
        return lcf_assign(f, threshold, assign_balanced, table, model);
      });
}

void assign_from_implementation(TernaryTruthTable& f,
                                const TernaryTruthTable& implementation) {
  assert(implementation.fully_specified());
  assert(implementation.num_inputs() == f.num_inputs());
  for (std::uint32_t m : f.dc_minterms())
    f.set_phase(m, implementation.is_on(m) ? Phase::kOne : Phase::kZero);
}

}  // namespace rdc
