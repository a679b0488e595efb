// Seeded workload inputs: fresh draws of the paper's Table-1 signatures.
//
// Seed 0 reproduces rdc::table1_suite() exactly; any other seed draws new
// specs with the same signature (inputs, outputs, %DC, E[C^f], C^f) through
// solve_signal_split + generate_spec, with make_benchmark's generator
// options. The program under test only ever sees the generated specs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "benchdata/suite.hpp"
#include "tt/incomplete_spec.hpp"

namespace e2e {

/// One generated spec plus the wall time its generation took.
struct GeneratedSpec {
  rdc::IncompleteSpec spec;
  std::string signature;  ///< Table-1 row the spec was drawn from
  double generate_ms = 0.0;
};

/// `draws` specs of every Table-1 signature for `seed`, draw-major and in
/// Table-1 order within a draw, generated in parallel over the process
/// thread pool. Draw 0 carries the signature's name ("p3"), later draws
/// "<name>#<draw>"; draw 0 of seed 0 is rdc::table1_suite().
std::vector<GeneratedSpec> generate_table1(std::uint64_t seed, unsigned draws);

/// (signature name, number of draws) for generate_pool.
struct PoolEntry {
  std::string_view signature;
  unsigned draws = 0;
};

/// The requested number of draws of each signature, for the serve
/// workload's pool, generated in parallel over the process thread pool
/// (spec names are "<signature>#<i>"; never one of generate_table1's
/// draws).
std::vector<GeneratedSpec> generate_pool(std::uint64_t seed,
                                         const std::vector<PoolEntry>& pool);

/// True when the first twelve `specs` equal rdc::table1_suite() spec for
/// spec.
bool matches_table1_suite(const std::vector<GeneratedSpec>& specs);

}  // namespace e2e
