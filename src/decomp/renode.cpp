#include "decomp/renode.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/simulate.hpp"
#include "decomp/odc.hpp"
#include "espresso/espresso.hpp"
#include "reliability/assignment.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

using aiglit::is_complemented;
using aiglit::negate;
using aiglit::node_of;

/// One reconstruction of an AIG, fanout-free region by region. A region's
/// root is an AND node with fanout > 1 or driving an output; roots are
/// visited in topological order. An eligible root (at most
/// `max_node_inputs` leaves and at least one don't care) is resynthesized
/// from its local function over its leaves, LC^f → ESPRESSO → factor; every
/// other region is copied verbatim. The DC set is the root's SDCs, or its
/// SDCs ∪ ODCs with `with_odcs` — and since ODC rewrites change internal
/// values, that mode rewrites only one root per pass.
class Renoder {
 public:
  Renoder(const Aig& aig, const RenodeOptions& options, bool with_odcs)
      : aig_(aig),
        options_(options),
        with_odcs_(with_odcs),
        sim_(aig),
        dst_(aig.num_inputs()) {}

  struct Outcome {
    Aig network;
    std::size_t roots = 0;
    std::size_t rewrites = 0;
    unsigned last_rewritten = 0;  ///< 1-based counter of the last rewrite
    std::uint64_t sdc_patterns = 0;  ///< across rewritten roots
    std::uint64_t odc_patterns = 0;
    std::uint64_t dcs_assigned = 0;
  };

  /// Rebuilds the network, rewriting eligible roots after the first
  /// `skip_roots`.
  Outcome run(unsigned skip_roots) {
    mark_roots();
    Outcome outcome{Aig(aig_.num_inputs())};
    for (std::uint32_t node = aig_.num_inputs() + 1; node < aig_.num_nodes();
         ++node) {
      if (!is_root_[node]) continue;
      ++outcome.roots;
      const bool may_rewrite =
          outcome.roots > skip_roots && !(with_odcs_ && outcome.rewrites > 0);
      if (!may_rewrite || !try_rewrite(node, outcome))
        mapping_[node] = copy_edge(aiglit::make(node, false), node);
    }
    for (const std::uint32_t out : aig_.outputs())
      dst_.add_output(map_literal(out));
    outcome.network = std::move(dst_);
    return outcome;
  }

 private:
  void mark_roots() {
    const std::vector<unsigned> fanout = aig_.fanout_counts();
    is_root_.assign(aig_.num_nodes(), false);
    for (std::uint32_t node = aig_.num_inputs() + 1; node < aig_.num_nodes();
         ++node)
      is_root_[node] = fanout[node] > 1;
    for (const std::uint32_t out : aig_.outputs())
      if (aig_.is_and(node_of(out))) is_root_[node_of(out)] = true;
  }

  /// Old literal -> new literal, for PIs, constants and processed roots.
  std::uint32_t map_literal(std::uint32_t lit) const {
    const std::uint32_t node = node_of(lit);
    std::uint32_t mapped;
    if (node == 0) {
      mapped = aiglit::kFalse;
    } else if (!aig_.is_and(node)) {
      mapped = dst_.input_literal(node - 1);
    } else {
      mapped = mapping_.at(node);
    }
    return is_complemented(lit) ? negate(mapped) : mapped;
  }

  /// Boundary signal nodes of the tree rooted at `root` (distinct, in DFS
  /// discovery order).
  std::vector<std::uint32_t> collect_leaves(std::uint32_t root) const {
    std::vector<std::uint32_t> leaves;
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
      const std::uint32_t node = stack.back();
      stack.pop_back();
      for (const std::uint32_t edge :
           {aig_.fanin0(node), aig_.fanin1(node)}) {
        const std::uint32_t child = node_of(edge);
        if (aig_.is_and(child) && !is_root_[child]) {
          stack.push_back(child);
        } else if (std::find(leaves.begin(), leaves.end(), child) ==
                   leaves.end()) {
          leaves.push_back(child);
        }
      }
    }
    return leaves;
  }

  /// The root's local function over its leaves. Boundary patterns no input
  /// vector produces are satisfiability DCs; with ODCs, so are produced
  /// patterns on none of whose vectors complementing the root changes a
  /// primary output.
  TernaryTruthTable local_function(std::uint32_t root,
                                   const std::vector<std::uint32_t>& leaves,
                                   std::uint64_t& sdc,
                                   std::uint64_t& odc) const {
    const unsigned k = static_cast<unsigned>(leaves.size());
    TernaryTruthTable local(k);
    for (std::uint32_t p = 0; p < local.size(); ++p)
      local.set_phase(p, Phase::kDc);
    // Without ODCs every vector observes the root.
    const SimWords observability =
        with_odcs_ ? sim_.observability(root)
                   : SimWords((sim_.num_vectors() + 63) / 64, ~0ull);
    std::vector<bool> observable(local.size(), false);
    for (std::uint32_t m = 0; m < sim_.num_vectors(); ++m) {
      std::uint32_t pattern = 0;
      for (unsigned i = 0; i < k; ++i)
        if (sim_.literal_value(aiglit::make(leaves[i], false), m))
          pattern |= 1u << i;
      const bool root_value =
          sim_.literal_value(aiglit::make(root, false), m);
      local.set_phase(pattern, root_value ? Phase::kOne : Phase::kZero);
      if ((observability[m >> 6] >> (m & 63)) & 1u) observable[pattern] = true;
    }
    sdc = local.dc_count();
    for (std::uint32_t p = 0; p < local.size(); ++p) {
      if (local.phase(p) != Phase::kDc && !observable[p]) {
        local.set_phase(p, Phase::kDc);
        ++odc;
      }
    }
    return local;
  }

  /// Resynthesizes the region rooted at `root` if it is eligible; false
  /// leaves it to the verbatim copy.
  bool try_rewrite(std::uint32_t root, Outcome& outcome) {
    const std::vector<std::uint32_t> leaves = collect_leaves(root);
    if (leaves.empty() || leaves.size() > options_.max_node_inputs)
      return false;
    std::uint64_t sdc = 0;
    std::uint64_t odc = 0;
    TernaryTruthTable local = local_function(root, leaves, sdc, odc);
    // Fully observable node: nothing to reassign; keep structure.
    if (local.dc_count() == 0) return false;
    if (options_.reliability_assign)
      outcome.dcs_assigned +=
          lcf_assign(local, options_.lcf_threshold).assigned;

    const Cover cover = minimize(local);
    std::vector<std::uint32_t> leaf_lits;
    leaf_lits.reserve(leaves.size());
    for (const std::uint32_t leaf : leaves)
      leaf_lits.push_back(map_literal(aiglit::make(leaf, false)));
    mapping_[root] = dst_.build(factor(cover), leaf_lits);

    ++outcome.rewrites;
    outcome.last_rewritten = static_cast<unsigned>(outcome.roots);
    outcome.sdc_patterns += sdc;
    outcome.odc_patterns += odc;
    return true;
  }

  /// Verbatim structural copy of the tree rooted at `current_root`.
  std::uint32_t copy_edge(std::uint32_t edge, std::uint32_t current_root) {
    const std::uint32_t node = node_of(edge);
    if (!aig_.is_and(node) || (is_root_[node] && node != current_root))
      return map_literal(edge);
    const std::uint32_t mapped =
        dst_.make_and(copy_edge(aig_.fanin0(node), current_root),
                      copy_edge(aig_.fanin1(node), current_root));
    return is_complemented(edge) ? negate(mapped) : mapped;
  }

  const Aig& aig_;
  RenodeOptions options_;
  bool with_odcs_;
  AigSimulator sim_;
  Aig dst_;
  std::vector<bool> is_root_;
  std::unordered_map<std::uint32_t, std::uint32_t> mapping_;
};

}  // namespace

RenodeResult renode_and_assign(const Aig& aig, const RenodeOptions& options) {
  if (aig.num_inputs() > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("renode_and_assign: too many inputs");
  Renoder::Outcome outcome = Renoder(aig, options, false).run(0);
  return {std::move(outcome.network), outcome.roots, outcome.rewrites,
          outcome.sdc_patterns, outcome.dcs_assigned};
}

OdcRenodeResult renode_with_odcs(const Aig& aig,
                                 const OdcRenodeOptions& options) {
  if (aig.num_inputs() > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("renode_with_odcs: too many inputs");

  OdcRenodeResult result{aig, 0, 0, 0, 0};
  unsigned skip = 0;
  while (result.rewrites < options.max_rewrites) {
    Renoder::Outcome outcome =
        Renoder(result.network, options, true).run(skip);
    if (outcome.rewrites == 0) break;
    ++result.rewrites;
    result.sdc_patterns += outcome.sdc_patterns;
    result.odc_patterns += outcome.odc_patterns;
    result.dcs_assigned += outcome.dcs_assigned;
    result.network = std::move(outcome.network);
    skip = outcome.last_rewritten;
  }
  return result;
}

double internal_error_rate(const Aig& aig, unsigned samples, Rng& rng) {
  if (aig.num_inputs() > TernaryTruthTable::kMaxInputs)
    throw std::invalid_argument("internal_error_rate: too many inputs");
  const std::uint32_t first_and = aig.num_inputs() + 1;
  const std::uint32_t num_ands =
      static_cast<std::uint32_t>(aig.num_nodes()) - first_and;
  if (num_ands == 0 || samples == 0) return 0.0;

  // Draw every (vector, node) sample first, vector then node as always,
  // then answer each sampled node's vectors from one observability query.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> draws(samples);
  for (auto& [node, m] : draws) {
    m = static_cast<std::uint32_t>(rng.below(num_minterms(aig.num_inputs())));
    node = first_and + static_cast<std::uint32_t>(rng.below(num_ands));
  }
  std::sort(draws.begin(), draws.end());

  const AigSimulator sim(aig);
  SimWords observable;
  std::uint32_t queried = 0;  // no AND node is node 0
  unsigned propagated = 0;
  for (const auto& [node, m] : draws) {
    if (node != queried) {
      observable = sim.observability(node);
      queried = node;
    }
    propagated += (observable[m >> 6] >> (m & 63)) & 1u;
  }
  return static_cast<double>(propagated) / samples;
}

}  // namespace rdc
