#include "espresso/irredundant.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "espresso/unate.hpp"
#include "exec/budget.hpp"
#include "obs/trace.hpp"

namespace rdc {

Cover irredundant(const Cover& on, const Cover& dc) {
  RDC_SPAN("espresso.irredundant");
  const unsigned n = on.num_inputs();
  std::vector<bool> alive(on.size(), true);

  // Try to drop cubes in order of increasing size (small cubes are most
  // likely to be absorbed by their larger peers); a cube is droppable iff
  // the still-alive remainder plus the DC cover contains it, i.e. their
  // cofactor with respect to it is a tautology.
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
    Cover in_cube(n);
    for (std::size_t i = 0; i < on.size(); ++i)
      if (alive[i] && i != candidate) in_cube.add_cofactor(on.cube(i), c);
    for (const Cube& d : dc.cubes()) in_cube.add_cofactor(d, c);
    if (is_tautology(in_cube)) alive[candidate] = false;
  }

  Cover result(n);
  for (std::size_t i = 0; i < on.size(); ++i)
    if (alive[i]) result.add(on.cube(i));
  return result;
}

}  // namespace rdc
