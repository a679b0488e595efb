#include "pla/cover.hpp"

namespace rdc {

std::uint64_t Cover::literal_count() const {
  std::uint64_t total = 0;
  for (const Cube& c : cubes_) total += c.literal_count(num_inputs_);
  return total;
}

bool Cover::covers_minterm(std::uint32_t m) const {
  for (const Cube& c : cubes_)
    if (c.contains_minterm(m, num_inputs_)) return true;
  return false;
}

TernaryTruthTable Cover::to_truth_table() const {
  TernaryTruthTable tt(num_inputs_);
  for (const Cube& c : cubes_)
    for_each_cube_word(c, num_inputs_, [&](std::size_t w, std::uint64_t lanes) {
      tt.set_phase_word(w, lanes, Phase::kOne);
    });
  return tt;
}

Cover Cover::from_phase(const TernaryTruthTable& f, Phase phase) {
  Cover cover(f.num_inputs());
  for (std::uint32_t m = 0; m < f.size(); ++m)
    if (f.phase(m) == phase) cover.add(Cube::minterm(m, f.num_inputs()));
  return cover;
}

void Cover::remove_single_cube_contained() {
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    bool contained = false;
    for (std::size_t j = 0; j < cubes_.size() && !contained; ++j) {
      if (i == j) continue;
      if (cubes_[j].contains(cubes_[i])) {
        // Break ties between equal cubes by keeping the earlier one.
        contained = cubes_[j] != cubes_[i] || j < i;
      }
    }
    if (!contained) kept.push_back(cubes_[i]);
  }
  cubes_ = std::move(kept);
}

}  // namespace rdc
