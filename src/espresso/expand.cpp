#include "espresso/expand.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "exec/budget.hpp"
#include "obs/trace.hpp"

namespace rdc {

Cube expand_cube(const Cube& c, const TernaryTruthTable& f,
                 const Cover& peers) {
  const unsigned n = f.num_inputs();
  const std::uint32_t all = (1u << n) - 1;
  const BitVec& on = f.on_bits();
  const BitVec& dc = f.dc_bits();
  const auto meets_off = [&](const Cube& q) {
    return for_each_cube_word(q, n, [&](std::size_t w, std::uint64_t lanes) {
      return (lanes & ~(on.word(w) | dc.word(w))) != 0;
    });
  };
  if (meets_off(c)) return c;  // every raise would still meet the off-set

  // Covering matrix: per peer c does not contain yet, the variables where
  // it fails to. Raising j newly contains the peers whose row is exactly
  // {j}: that count is the gain of j.
  std::vector<std::uint32_t> covering;
  covering.reserve(peers.size());
  for (const Cube& p : peers.cubes()) {
    const std::uint32_t row = (p.mask0 & ~c.mask0) | (p.mask1 & ~c.mask1);
    if (row != 0) covering.push_back(row);
  }

  // Raising j adds the half-cube with j's literal flipped; it is feasible
  // iff that half holds no OFF minterm. A blocked variable stays blocked
  // (the cube only grows), so a covering row naming a non-raisable
  // variable can never gain and is dropped.
  Cube current = c;
  std::uint32_t raisable = (c.mask0 ^ c.mask1) & all;
  std::uint32_t raised = 0;
  while (true) {
    for (std::uint32_t rest = raisable; rest != 0; rest &= rest - 1) {
      const std::uint32_t bit = 1u << std::countr_zero(rest);
      if (meets_off(Cube{current.mask0 ^ bit, current.mask1 ^ bit}))
        raisable &= ~bit;
    }
    if (raisable == 0) break;

    std::array<std::uint32_t, 32> gain{};
    std::size_t kept = 0;
    for (std::uint32_t row : covering) {
      row &= ~raised;
      if (row == 0 || (row & ~raisable) != 0) continue;
      if (std::has_single_bit(row)) ++gain[std::countr_zero(row)];
      covering[kept++] = row;
    }
    covering.resize(kept);

    // First raisable variable with the largest gain.
    unsigned best = std::countr_zero(raisable);
    for (std::uint32_t rest = raisable & (raisable - 1); rest != 0;
         rest &= rest - 1) {
      const unsigned j = std::countr_zero(rest);
      if (gain[j] > gain[best]) best = j;
    }
    current = current.expanded(best);
    raised = 1u << best;
    raisable &= ~raised;
  }
  return current;
}

Cover expand(const Cover& on, const TernaryTruthTable& f) {
  RDC_SPAN("espresso.expand");
  const unsigned n = on.num_inputs();

  // Process small cubes first: they have the most to gain, and the cubes
  // they absorb never need their own expansion.
  std::vector<std::size_t> order(on.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return on.cube(a).literal_count(n) > on.cube(b).literal_count(n);
  });

  Cover result(n);
  std::vector<bool> covered(on.size(), false);
  for (std::size_t idx : order) {
    if (covered[idx]) continue;
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    const Cube prime = expand_cube(on.cube(idx), f, on);
    result.add(prime);
    for (std::size_t i = 0; i < on.size(); ++i)
      if (!covered[i] && prime.contains(on.cube(i))) covered[i] = true;
  }
  result.remove_single_cube_contained();
  return result;
}

}  // namespace rdc
