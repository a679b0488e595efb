#include "espresso/expand.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "exec/budget.hpp"
#include "obs/trace.hpp"

namespace rdc {

Cube expand_cube(const Cube& c, const Cover& off, const Cover& peers) {
  const unsigned n = off.num_inputs();
  const std::uint32_t all = (1u << n) - 1;

  // Blocking matrix: per nonempty off-cube, the variables where c conflicts
  // with it. Raising j keeps the cube off that off-cube iff its row is not
  // exactly {j}; an empty row means c already meets the off-set, so no
  // raise is ever feasible.
  std::vector<std::uint32_t> blocking;
  blocking.reserve(off.size());
  for (const Cube& q : off.cubes()) {
    if (q.empty(n)) continue;
    const Cube x = c.intersect(q);
    const std::uint32_t row = ~(x.mask0 | x.mask1) & all;
    if (row == 0) return c;
    blocking.push_back(row);
  }
  // Covering matrix: per peer c does not contain yet, the variables where
  // it fails to. Raising j newly contains the peers whose row is exactly
  // {j}: that count is the gain of j.
  std::vector<std::uint32_t> covering;
  covering.reserve(peers.size());
  for (const Cube& p : peers.cubes()) {
    const std::uint32_t row = (p.mask0 & ~c.mask0) | (p.mask1 & ~c.mask1);
    if (row != 0) covering.push_back(row);
  }

  // `raisable` holds the literals not yet known to be blocked. A blocked
  // variable stays blocked (its singleton row never changes), so a row
  // naming a non-raisable variable can neither block nor gain a raisable
  // one and is dropped.
  Cube current = c;
  std::uint32_t raisable = (c.mask0 ^ c.mask1) & all;
  std::uint32_t raised = 0;
  while (true) {
    std::size_t kept = 0;
    for (std::uint32_t row : blocking) {
      row &= ~raised;
      if ((row & ~raisable) != 0) continue;
      if (std::has_single_bit(row)) {
        raisable &= ~row;
        continue;
      }
      blocking[kept++] = row;
    }
    blocking.resize(kept);
    if (raisable == 0) break;

    std::array<std::uint32_t, 32> gain{};
    kept = 0;
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

Cover expand(const Cover& on, const Cover& off) {
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
    const Cube prime = expand_cube(on.cube(idx), off, on);
    result.add(prime);
    for (std::size_t i = 0; i < on.size(); ++i)
      if (!covered[i] && prime.contains(on.cube(i))) covered[i] = true;
  }
  result.remove_single_cube_contained();
  return result;
}

}  // namespace rdc
