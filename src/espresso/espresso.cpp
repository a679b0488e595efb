#include "espresso/espresso.hpp"

#include <utility>

#include "espresso/expand.hpp"
#include "espresso/irredundant.hpp"
#include "espresso/reduce.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace rdc {
namespace {

struct Cost {
  std::size_t cubes = 0;
  std::uint64_t literals = 0;
  bool operator<(const Cost& other) const {
    return std::pair(cubes, literals) < std::pair(other.cubes, other.literals);
  }
  bool operator==(const Cost&) const = default;
};

Cost cost_of(const Cover& cover) {
  return Cost{cover.size(), cover.literal_count()};
}

}  // namespace

EspressoResult minimize_bounded(const TernaryTruthTable& f,
                                const EspressoOptions& options) {
  RDC_SPAN("espresso.run");
  obs::count(obs::Counter::kEspressoCalls);
  exec::fault_point("espresso");
  // The passes answer every containment question on f's own ON/DC/OFF
  // bitsets; the only cover is the ON set, one cube per minterm (distinct,
  // so free of single-cube containment).
  EspressoResult result;
  Cover current = Cover::from_phase(f, Phase::kOne);
  // From here on `result.cover` is only ever replaced by a *completed*
  // pass's cover, so a mid-pass budget trip salvages a valid (if less
  // minimized) cover of the on-set.
  result.cover = current;
  if (current.empty_cover()) {
    obs::observe(obs::Histo::kEspressoIterations, 0);
    return result;
  }

  unsigned iterations = 0;
  try {
    exec::checkpoint();
    current = expand(current, f);
    current = irredundant(current, f);
    Cost best = cost_of(current);
    result.cover = current;

    for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
      exec::checkpoint();
      ++iterations;
      current = reduce(current, f);
      current = expand(current, f);
      current = irredundant(current, f);
      const Cost c = cost_of(current);
      if (c < best) {
        best = c;
        result.cover = current;
      } else {
        break;  // converged (or oscillating): keep the best seen
      }
    }
  } catch (const exec::StatusError& error) {
    if (!exec::is_budget_code(error.status().code())) throw;
    result.status = error.status();
    result.status.with_context("espresso");
    result.partial = true;
  }
  obs::count(obs::Counter::kEspressoIterations, iterations);
  obs::observe(obs::Histo::kEspressoIterations, iterations);
  return result;
}

Cover minimize(const TernaryTruthTable& f, const EspressoOptions& options) {
  EspressoResult result = minimize_bounded(f, options);
  if (result.partial) throw exec::StatusError(std::move(result.status));
  return std::move(result.cover);
}

std::size_t minimal_sop_size(const TernaryTruthTable& f) {
  return minimize(f).size();
}

std::size_t minimal_sop_size(const IncompleteSpec& spec) {
  std::size_t total = 0;
  for (const auto& f : spec.outputs()) total += minimal_sop_size(f);
  return total;
}

Cover conventional_assign(TernaryTruthTable& f,
                          const EspressoOptions& options) {
  const Cover cover = minimize(f, options);
  obs::count(obs::Counter::kDcConventionalAssigned, f.dc_count());
  // Paint the cover onto the DC set: covered DC minterms become 1, the
  // rest 0.
  for (const Cube& c : cover.cubes())
    for_each_cube_word(c, f.num_inputs(),
                       [&](std::size_t w, std::uint64_t lanes) {
                         f.set_phase_word(w, lanes & f.dc_bits().word(w),
                                          Phase::kOne);
                       });
  for (std::size_t w = 0; w < f.dc_bits().num_words(); ++w)
    f.set_phase_word(w, f.dc_bits().word(w), Phase::kZero);
  return cover;
}

void conventional_assign(IncompleteSpec& spec) {
  for (auto& f : spec.outputs()) conventional_assign(f);
}

bool cover_is_valid_for(const Cover& cover, const TernaryTruthTable& f) {
  if (cover.num_inputs() != f.num_inputs()) return false;
  const TernaryTruthTable painted = cover.to_truth_table();
  const BitVec& covered = painted.on_bits();
  const BitVec& on = f.on_bits();
  const BitVec& dc = f.dc_bits();
  for (std::size_t w = 0; w < on.num_words(); ++w) {
    if ((on.word(w) & ~covered.word(w)) != 0) return false;  // ON left out
    if ((covered.word(w) & ~(on.word(w) | dc.word(w))) != 0)
      return false;  // OFF covered
  }
  return true;
}

}  // namespace rdc
