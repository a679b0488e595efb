#include "espresso/reduce.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "espresso/complement.hpp"
#include "exec/budget.hpp"
#include "obs/trace.hpp"

namespace rdc {

Cube supercube(const Cover& cover) {
  Cube super{0, 0};
  for (const Cube& c : cover.cubes()) {
    super.mask0 |= c.mask0;
    super.mask1 |= c.mask1;
  }
  return super;
}

Cover reduce(const Cover& on, const Cover& dc) {
  RDC_SPAN("espresso.reduce");
  const unsigned n = on.num_inputs();

  // Classic maximal-reduction rule: c is replaced by
  //   c ∩ supercube(complement((F \ {c} ∪ D) cofactored by c)),
  // i.e. the smallest cube keeping exactly the minterms of c that nothing
  // else covers. Processing is sequential — each reduction sees its
  // predecessors' reduced forms — ordered largest-cube-first as in espresso.
  std::vector<Cube> cubes = on.cubes();
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
    Cover in_cube(n);
    for (std::size_t i = 0; i < cubes.size(); ++i)
      if (i != idx && !dropped[i]) in_cube.add_cofactor(cubes[i], c);
    for (const Cube& d : dc.cubes()) in_cube.add_cofactor(d, c);

    const std::optional<Cube> uncovered = supercube_of_complement(in_cube);
    if (!uncovered) {
      dropped[idx] = true;  // everything in the cube is covered elsewhere
      continue;
    }
    cubes[idx] = c.intersect(*uncovered);
  }

  Cover result(n);
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (!dropped[i]) result.add(cubes[i]);
  return result;
}

}  // namespace rdc
