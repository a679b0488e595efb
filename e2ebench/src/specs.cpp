#include "specs.hpp"

#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "measure.hpp"
#include "synthetic/generator.hpp"

namespace e2e {
namespace {

/// FNV-1a of the signature name, the per-benchmark seed make_benchmark
/// derives; the xor constant is make_benchmark's too.
std::uint64_t table1_seed(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h ^ 0x7265636f6e737472ull;
}

/// Pool draws start here, clear of the draws generate_table1 makes.
constexpr unsigned kPoolFirstDraw = 1000;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Draws one spec with `info`'s signature. `draw` = 0 with `seed` = 0 is
/// exactly make_benchmark(info); other (seed, draw) pairs give independent
/// draws. `name` names the spec (defaults to the signature name).
GeneratedSpec generate_signature(const rdc::BenchmarkInfo& info,
                                 std::uint64_t seed, std::uint64_t draw,
                                 std::string name) {
  const Clock::time_point start = Clock::now();
  const rdc::SignalSplit split =
      rdc::solve_signal_split(info.dc_percent, info.expected_cf);
  rdc::SyntheticOptions options;
  options.num_inputs = info.inputs;
  options.num_outputs = info.outputs;
  options.f0 = split.f0;
  options.f1 = split.f1;
  options.target_complexity = info.target_cf;
  options.tolerance = 0.004;
  options.max_iterations = 3000000;
  std::uint64_t rng_seed = table1_seed(info.name);
  if (seed != 0 || draw != 0) rng_seed ^= splitmix64(splitmix64(seed) ^ draw);
  rdc::Rng rng(rng_seed);
  if (name.empty()) name = std::string(info.name);
  GeneratedSpec out{rdc::generate_spec(name, options, rng),
                    std::string(info.name), 0.0};
  out.generate_ms = ms_since(start);
  return out;
}

}  // namespace

std::vector<GeneratedSpec> generate_table1(std::uint64_t seed, unsigned draws) {
  const auto info = rdc::table1_info();
  std::vector<GeneratedSpec> specs(info.size() * draws);
  rdc::ThreadPool::global().parallel_for(0, specs.size(), [&](std::uint64_t i) {
    const rdc::BenchmarkInfo& signature = info[i % info.size()];
    const std::uint64_t draw = i / info.size();
    specs[i] = generate_signature(
        signature, seed, draw,
        draw == 0 ? std::string() : std::string(signature.name) + "#" + std::to_string(draw));
  });
  return specs;
}

std::vector<GeneratedSpec> generate_pool(std::uint64_t seed,
                                         const std::vector<PoolEntry>& pool) {
  std::vector<std::pair<std::string_view, unsigned>> draws;
  for (const PoolEntry& entry : pool)
    for (unsigned d = 0; d < entry.draws; ++d)
      draws.emplace_back(entry.signature, kPoolFirstDraw + d);
  std::vector<GeneratedSpec> specs(draws.size());
  rdc::ThreadPool::global().parallel_for(0, specs.size(), [&](std::uint64_t i) {
    const auto& [signature, draw] = draws[i];
    specs[i] = generate_signature(rdc::benchmark_info(signature), seed, draw,
                                  std::string(signature) + "#" +
                                      std::to_string(draw - kPoolFirstDraw));
  });
  return specs;
}

bool matches_table1_suite(const std::vector<GeneratedSpec>& specs) {
  const std::vector<rdc::IncompleteSpec> suite = rdc::table1_suite();
  if (specs.size() < suite.size()) return false;
  for (std::size_t i = 0; i < suite.size(); ++i)
    if (!(suite[i] == specs[i].spec)) return false;
  return true;
}

}  // namespace e2e
