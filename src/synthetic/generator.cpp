#include "synthetic/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"

namespace rdc {

SyntheticOptions options_for_target(unsigned num_inputs, double dc_fraction,
                                    double target_cf) {
  SyntheticOptions options;
  options.num_inputs = num_inputs;
  options.target_complexity = target_cf;

  // Solve f0^2 + f1^2 = target - fdc^2 with f0 + f1 = 1 - fdc; clamp the
  // requested sum of squares into the band [care^2/2, hi] where hi keeps a
  // floor of 5% of the care set in the minority phase — a degenerate
  // (empty) on-set would make the function constant. Targets beyond hi are
  // reached by the annealer's clustering instead of by skewing further.
  const double care = 1.0 - dc_fraction;
  const double lo = 0.5 * care * care;
  const double minority = 0.05 * care;
  const double hi =
      (care - minority) * (care - minority) + minority * minority;
  const double sum_sq =
      std::clamp(target_cf - dc_fraction * dc_fraction, lo, hi);
  const double product = (care * care - sum_sq) / 2.0;
  const double disc = std::max(care * care - 4.0 * product, 0.0);
  const double root = std::sqrt(disc);
  options.f0 = (care + root) / 2.0;
  options.f1 = (care - root) / 2.0;
  return options;
}

TernaryTruthTable generate_function(const SyntheticOptions& options,
                                    Rng& rng) {
  const unsigned n = options.num_inputs;
  if (options.f0 < 0 || options.f1 < 0 || options.f0 + options.f1 > 1.0)
    throw std::invalid_argument("generate_function: bad signal probabilities");
  TernaryTruthTable f(n);
  const std::uint32_t size = f.size();

  // Exact phase counts, then a Fisher-Yates shuffle of the phase multiset.
  const auto off_count =
      static_cast<std::uint32_t>(std::llround(options.f0 * size));
  const auto on_count =
      static_cast<std::uint32_t>(std::llround(options.f1 * size));
  if (off_count + on_count > size)
    throw std::invalid_argument("generate_function: probabilities sum > 1");
  std::vector<Phase> phases(size, Phase::kDc);
  for (std::uint32_t i = 0; i < off_count; ++i) phases[i] = Phase::kZero;
  for (std::uint32_t i = 0; i < on_count; ++i)
    phases[off_count + i] = Phase::kOne;

  // A random start sits at C^f ~ E[C^f]; a phase-sorted start (contiguous
  // index blocks = stacked subcubes) sits near the clustered maximum.
  // Anneal from whichever side of the target is closer to reach, since
  // descending in C^f (disordering) is much easier than ascending.
  const double f0 = static_cast<double>(off_count) / size;
  const double f1 = static_cast<double>(on_count) / size;
  const double fdc = 1.0 - f0 - f1;
  const double expected = f0 * f0 + f1 * f1 + fdc * fdc;
  if (options.target_complexity <= expected) {
    for (std::uint32_t i = size; i > 1; --i)
      std::swap(phases[i - 1], phases[rng.below(i)]);
  }

  // Anneal phase swaps toward the target complexity factor. The running
  // same-phase pair count S relates to C^f by C^f = S / (n * 2^n). Each
  // minterm keeps how many of its neighbours sit in each phase, so S is
  // their sum over own phases and a proposal's change of S is read off the
  // two minterms' counts; neighbours are touched only when a swap is taken.
  std::vector<std::array<std::uint8_t, 3>> counts(size);
  std::int64_t s = 0;
  for (std::uint32_t m = 0; m < size; ++m) {
    for (unsigned j = 0; j < n; ++j)
      ++counts[m][static_cast<std::size_t>(phases[flip_bit(m, j)])];
    s += counts[m][static_cast<std::size_t>(phases[m])];
  }
  const double denom = static_cast<double>(n) * static_cast<double>(size);
  const auto target =
      static_cast<std::int64_t>(std::llround(options.target_complexity * denom));
  // S counts ordered pairs and so is always even: an odd target at
  // tolerance 0 is met at distance 1, or the loop could never stop early.
  const auto tolerance = std::max<std::int64_t>(
      std::llround(options.tolerance * denom), target & 1);

  // Simulated annealing on the energy E = |S - target|, measured in
  // same-phase-pair units. From a random start, early moves are nearly free
  // (T0 of order n, the largest possible per-swap change) and the tail is
  // pure descent. From an ordered start the target is approached by
  // *disordering*, which plain descent finds easily — a hot start would
  // destroy the clustering the initialization provides.
  const bool ordered_start = options.target_complexity > expected;
  const double t0 = ordered_start ? 0.5 : 3.0 * n;
  const double t_end = 0.05;
  const double cooling =
      std::pow(t_end / t0, 1.0 / static_cast<double>(options.max_iterations));
  double temperature = t0;

  for (std::uint64_t iter = 0; iter < options.max_iterations; ++iter) {
    temperature *= cooling;
    if (std::llabs(s - target) <= tolerance) break;
    const auto a = static_cast<std::uint32_t>(rng.below(size));
    const auto b = static_cast<std::uint32_t>(rng.below(size));
    const auto pa = static_cast<std::size_t>(phases[a]);
    const auto pb = static_cast<std::size_t>(phases[b]);
    if (pa == pb) continue;

    // With pa != pb, a sees b among its pb-neighbours before the swap but
    // not after, and likewise b sees a; the pair itself never matches.
    const std::int64_t adjacent = hamming_distance(a, b) == 1 ? 1 : 0;
    const std::int64_t s_new =
        s + 2 * (counts[a][pb] + counts[b][pa] - 2 * adjacent -
                 counts[a][pa] - counts[b][pb]);

    const auto energy_old = static_cast<double>(std::llabs(s - target));
    const auto energy_new = static_cast<double>(std::llabs(s_new - target));
    const bool accept =
        energy_new <= energy_old ||
        rng.uniform() < std::exp((energy_old - energy_new) / temperature);
    if (!accept) continue;
    s = s_new;
    std::swap(phases[a], phases[b]);
    for (unsigned j = 0; j < n; ++j) {
      auto& near_a = counts[flip_bit(a, j)];
      --near_a[pa];
      ++near_a[pb];
      auto& near_b = counts[flip_bit(b, j)];
      --near_b[pb];
      ++near_b[pa];
    }
  }
  for (std::uint32_t m = 0; m < size; ++m) f.set_phase(m, phases[m]);
  return f;
}

IncompleteSpec generate_spec(const std::string& name,
                             const SyntheticOptions& options, Rng& rng) {
  RDC_SPAN("synthetic.generate");
  IncompleteSpec spec(name, options.num_inputs, options.num_outputs);
  for (unsigned o = 0; o < options.num_outputs; ++o)
    spec.output(o) = generate_function(options, rng);
  return spec;
}

}  // namespace rdc
