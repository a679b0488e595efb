#include "espresso/irredundant.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "espresso/minterm_counts.hpp"
#include "exec/budget.hpp"
#include "obs/trace.hpp"

namespace rdc {

Cover irredundant(const Cover& on, const TernaryTruthTable& f) {
  RDC_SPAN("espresso.irredundant");
  const unsigned n = on.num_inputs();
  const BitVec& dc = f.dc_bits();
  MintermCounts count(on);  // live cubes per minterm
  std::vector<bool> alive(on.size(), true);

  // Try to drop cubes in order of increasing size (small cubes are most
  // likely to be absorbed by their larger peers); a cube is droppable iff
  // each of its minterms is DC or covered by another live cube.
  std::vector<std::size_t> order(on.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return on.cube(a).literal_count(n) >
                            on.cube(b).literal_count(n);
                   });

  for (std::size_t candidate : order) {
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    const Cube& c = on.cube(candidate);
    const bool needed =
        for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t lanes) {
          for (std::uint64_t care = lanes & ~dc.word(w); care != 0;
               care &= care - 1)
            if (count[(w << 6) | std::countr_zero(care)] < 2) return true;
          return false;
        });
    if (needed) continue;
    alive[candidate] = false;
    count.remove(c);
  }

  Cover result(n);
  for (std::size_t i = 0; i < on.size(); ++i)
    if (alive[i]) result.add(on.cube(i));
  return result;
}

}  // namespace rdc
