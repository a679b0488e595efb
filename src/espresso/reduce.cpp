#include "espresso/reduce.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "espresso/minterm_counts.hpp"
#include "exec/budget.hpp"
#include "obs/trace.hpp"

namespace rdc {

Cover reduce(const Cover& on, const TernaryTruthTable& f) {
  RDC_SPAN("espresso.reduce");
  const unsigned n = on.num_inputs();
  const std::uint32_t all = (1u << n) - 1;
  const BitVec& dc = f.dc_bits();

  // Classic maximal-reduction rule: c is replaced by the smallest cube
  // holding the minterms of c that nothing else covers, i.e. the supercube
  // of its minterms with count 1 that are not DC. Processing is sequential
  // — the counts follow each reduction, so every cube sees its
  // predecessors' reduced forms — ordered largest-cube-first as in espresso.
  std::vector<Cube> cubes = on.cubes();
  MintermCounts count(on);  // live cubes per minterm
  std::vector<std::size_t> order(cubes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cubes[a].literal_count(n) <
                            cubes[b].literal_count(n);
                   });

  std::vector<bool> dropped(cubes.size(), false);
  for (std::size_t idx : order) {
    exec::checkpoint();  // per-cube budget poll (DESIGN.md §10)
    const Cube c = cubes[idx];
    bool uncovered = false;
    std::uint32_t ones = 0;   // OR of the uncovered minterms
    std::uint32_t zeros = 0;  // OR of their complements
    for_each_cube_word(c, n, [&](std::size_t w, std::uint64_t lanes) {
      for (std::uint64_t care = lanes & ~dc.word(w); care != 0;
           care &= care - 1) {
        const auto m = static_cast<std::uint32_t>((w << 6) |
                                                  std::countr_zero(care));
        if (count[m] != 1) continue;
        uncovered = true;
        ones |= m;
        zeros |= ~m;
      }
    });
    count.remove(c);
    if (!uncovered) {
      dropped[idx] = true;  // everything in the cube is covered elsewhere
      continue;
    }
    cubes[idx] = Cube{zeros & all, ones};
    count.add(cubes[idx]);
  }

  Cover result(n);
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (!dropped[i]) result.add(cubes[i]);
  return result;
}

}  // namespace rdc
