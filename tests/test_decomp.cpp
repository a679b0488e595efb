// Tests for the nodal-decomposition extension (Section 4): SDC extraction,
// reliability reassignment and output preservation, plus byte pins
// (DecompPins): FNV-1a digests of every network the rewriters return (fanins,
// output literals, counters) and of the bit patterns internal_error_rate
// reports together with the next RNG draw, so a rewrite of the decomposition
// must rebuild the same structure and consume the stream in the same order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "aig/simulate.hpp"
#include "common/rng.hpp"
#include "decomp/odc.hpp"
#include "decomp/renode.hpp"
#include "espresso/espresso.hpp"
#include "sop/factor.hpp"

namespace rdc {
namespace {

Aig random_multi_output_aig(unsigned n, unsigned outputs, Rng& rng) {
  Aig aig(n);
  for (unsigned o = 0; o < outputs; ++o) {
    TernaryTruthTable f(n);
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, rng.flip(0.4) ? Phase::kOne : Phase::kZero);
    aig.add_output(aig.build(factor(minimize(f))));
  }
  return aig;
}

void expect_equivalent(const Aig& a, const Aig& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  const AigSimulator sa(a);
  const AigSimulator sb(b);
  for (unsigned o = 0; o < a.outputs().size(); ++o)
    EXPECT_EQ(sa.output_table(o), sb.output_table(o)) << "output " << o;
}

TEST(Renode, PreservesOutputsOnRandomNetworks) {
  Rng rng(251);
  for (int trial = 0; trial < 8; ++trial) {
    const Aig aig = random_multi_output_aig(6, 3, rng);
    const RenodeResult result = renode_and_assign(aig);
    expect_equivalent(aig, result.network);
    EXPECT_GT(result.nodes_total, 0u);
  }
}

TEST(Renode, PreservesOutputsWithoutReliabilityPass) {
  Rng rng(257);
  const Aig aig = random_multi_output_aig(7, 2, rng);
  RenodeOptions options;
  options.reliability_assign = false;
  const RenodeResult result = renode_and_assign(aig, options);
  expect_equivalent(aig, result.network);
  EXPECT_EQ(result.dcs_assigned, 0u);
}

TEST(Renode, FindsSdcsInRedundantStructure) {
  // Build a network with a correlated internal signal: g = a&b feeds two
  // nodes, so the boundary pattern (g=1, a=0) is unreachable at any node
  // with both g and a as leaves.
  Aig aig(3);
  const std::uint32_t a = aig.input_literal(0);
  const std::uint32_t b = aig.input_literal(1);
  const std::uint32_t c = aig.input_literal(2);
  const std::uint32_t g = aig.make_and(a, b);
  const std::uint32_t h1 = aig.make_and(g, c);
  const std::uint32_t h2 = aig.make_and(g, aiglit::negate(a));  // constant 0!
  aig.add_output(h1);
  aig.add_output(h2);
  aig.add_output(g);
  const RenodeResult result = renode_and_assign(aig);
  expect_equivalent(aig, result.network);
  EXPECT_GT(result.sdc_patterns, 0u);
}

TEST(Renode, CountsConsistent) {
  Rng rng(263);
  const Aig aig = random_multi_output_aig(6, 2, rng);
  const RenodeResult result = renode_and_assign(aig);
  EXPECT_LE(result.nodes_resynthesized, result.nodes_total);
  EXPECT_LE(result.dcs_assigned, result.sdc_patterns);
}

TEST(OdcRenode, PreservesOutputsOnRandomNetworks) {
  Rng rng(281);
  for (int trial = 0; trial < 6; ++trial) {
    const Aig aig = random_multi_output_aig(6, 3, rng);
    OdcRenodeOptions options;
    options.max_rewrites = 16;
    const OdcRenodeResult result = renode_with_odcs(aig, options);
    expect_equivalent(aig, result.network);
  }
}

TEST(OdcRenode, FindsObservabilityDcs) {
  // s = a & b feeds out1 = a | s and out2 = a | !s. Every vector with
  // a = 1 forces both outputs to 1, so s's boundary patterns (a=1, b=*)
  // are observability DCs even though they do occur.
  Aig aig(2);
  const std::uint32_t a = aig.input_literal(0);
  const std::uint32_t b = aig.input_literal(1);
  const std::uint32_t s = aig.make_and(a, b);
  aig.add_output(aig.make_or(a, s));
  aig.add_output(aig.make_or(a, aiglit::negate(s)));
  const OdcRenodeResult result = renode_with_odcs(aig);
  expect_equivalent(aig, result.network);
  EXPECT_GE(result.rewrites, 1u);
  EXPECT_GE(result.odc_patterns, 2u);
}

TEST(OdcRenode, RespectsRewriteBudget) {
  Rng rng(283);
  const Aig aig = random_multi_output_aig(6, 3, rng);
  OdcRenodeOptions options;
  options.max_rewrites = 1;
  const OdcRenodeResult result = renode_with_odcs(aig, options);
  EXPECT_LE(result.rewrites, 1u);
  expect_equivalent(aig, result.network);
}

TEST(OdcRenode, WithoutReliabilityPassStillSound) {
  Rng rng(293);
  const Aig aig = random_multi_output_aig(7, 2, rng);
  OdcRenodeOptions options;
  options.reliability_assign = false;
  options.max_rewrites = 8;
  const OdcRenodeResult result = renode_with_odcs(aig, options);
  EXPECT_EQ(result.dcs_assigned, 0u);
  expect_equivalent(aig, result.network);
}

/// Scalar reference: node values of the whole AIG on one input vector, with
/// an optional forced value on one node.
std::vector<bool> evaluate_all(const Aig& aig, std::uint32_t minterm,
                               std::int64_t override_node = -1,
                               bool override_value = false) {
  using aiglit::is_complemented;
  using aiglit::node_of;
  std::vector<bool> value(aig.num_nodes(), false);
  for (unsigned i = 0; i < aig.num_inputs(); ++i)
    value[1 + i] = (minterm >> i) & 1u;
  for (std::uint32_t node = aig.num_inputs() + 1; node < aig.num_nodes();
       ++node) {
    if (override_node == node) {
      value[node] = override_value;
      continue;
    }
    const std::uint32_t f0 = aig.fanin0(node);
    const std::uint32_t f1 = aig.fanin1(node);
    const bool v0 = value[node_of(f0)] != is_complemented(f0);
    const bool v1 = value[node_of(f1)] != is_complemented(f1);
    value[node] = v0 && v1;
  }
  return value;
}

std::vector<bool> output_values(const Aig& aig,
                                const std::vector<bool>& node_values) {
  std::vector<bool> outs;
  for (const std::uint32_t lit : aig.outputs())
    outs.push_back(node_values[aiglit::node_of(lit)] !=
                   aiglit::is_complemented(lit));
  return outs;
}

TEST(AigObservability, MatchesScalarFlipOnEveryAndNode) {
  // n = 2 and 5 fill part of one word (the tail must be masked); n = 7
  // fills two whole words.
  Rng rng(307);
  for (const unsigned n : {2u, 5u, 7u}) {
    for (int trial = 0; trial < 3; ++trial) {
      const Aig aig = random_multi_output_aig(n, 3, rng);
      const Aig rewritten = renode_and_assign(aig).network;
      for (const Aig* network : {&aig, &rewritten}) {
        const AigSimulator sim(*network);
        for (std::uint32_t node = network->num_inputs() + 1;
             node < network->num_nodes(); ++node) {
          const SimWords observable = sim.observability(node);
          ASSERT_EQ(observable.size(), (sim.num_vectors() + 63) / 64);
          for (std::uint32_t m = 0; m < sim.num_vectors(); ++m) {
            const std::vector<bool> base = evaluate_all(*network, m);
            const bool expected =
                output_values(*network, base) !=
                output_values(*network,
                              evaluate_all(*network, m, node, !base[node]));
            EXPECT_EQ((observable[m >> 6] >> (m & 63)) & 1u, expected)
                << "n = " << n << " node " << node << " vector " << m;
          }
          if (sim.num_vectors() % 64 != 0)
            EXPECT_EQ(observable.back() >> sim.num_vectors(), 0u);
        }
      }
    }
  }
}

TEST(InternalErrorRate, RejectsMoreThanTwentyInputs) {
  Rng rng(311);
  Aig aig(21);
  aig.add_output(aig.make_and(aig.input_literal(0), aig.input_literal(1)));
  EXPECT_THROW(internal_error_rate(aig, 10, rng), std::invalid_argument);
}

TEST(InternalErrorRate, DetectsFullPropagation) {
  // Chain of ANDs driving the only output: flipping the output node always
  // propagates; flipping others often masks. Rate must be in (0, 1].
  Rng rng(269);
  Aig aig(4);
  std::uint32_t acc = aig.input_literal(0);
  for (unsigned i = 1; i < 4; ++i)
    acc = aig.make_and(acc, aig.input_literal(i));
  aig.add_output(acc);
  const double rate = internal_error_rate(aig, 500, rng);
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

TEST(InternalErrorRate, SingleNodeAlwaysPropagates) {
  Rng rng(271);
  Aig aig(2);
  aig.add_output(aig.make_and(aig.input_literal(0), aig.input_literal(1)));
  EXPECT_DOUBLE_EQ(internal_error_rate(aig, 200, rng), 1.0);
}

TEST(InternalErrorRate, EmptyNetworkIsZero) {
  Rng rng(277);
  Aig aig(2);
  aig.add_output(aig.input_literal(0));
  EXPECT_DOUBLE_EQ(internal_error_rate(aig, 100, rng), 0.0);
}

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const Aig& aig) {
    add(aig.num_inputs());
    add(aig.num_nodes());
    for (std::uint32_t node = aig.num_inputs() + 1; node < aig.num_nodes();
         ++node) {
      add(aig.fanin0(node));
      add(aig.fanin1(node));
    }
    add(aig.outputs().size());
    for (const std::uint32_t out : aig.outputs()) add(out);
  }
  void add(const RenodeResult& r) {
    add(r.network);
    add(r.nodes_total);
    add(r.nodes_resynthesized);
    add(r.sdc_patterns);
    add(r.dcs_assigned);
  }
  void add(const OdcRenodeResult& r) {
    add(r.network);
    add(r.rewrites);
    add(r.sdc_patterns);
    add(r.odc_patterns);
    add(r.dcs_assigned);
  }
};

/// The FindsObservabilityDcs network: the one fixture with ODCs > 0.
Aig observability_fixture() {
  Aig aig(2);
  const std::uint32_t a = aig.input_literal(0);
  const std::uint32_t b = aig.input_literal(1);
  const std::uint32_t s = aig.make_and(a, b);
  aig.add_output(aig.make_or(a, s));
  aig.add_output(aig.make_or(a, aiglit::negate(s)));
  return aig;
}

struct Pin {
  unsigned n;
  std::uint64_t digest;
};

TEST(DecompPins, RenodeAndAssign) {
  // Per n: three random networks, each rewritten with and without the LC^f
  // pass and at two node-width limits (the narrow one copies wide nodes).
  const Pin pins[] = {{2, 13676218810413648165ull},
                      {6, 12825658552352389383ull},
                      {7, 60863771864110573ull},
                      {10, 2353610477386621425ull}};
  for (const Pin& pin : pins) {
    Rng rng(5000 + pin.n);
    Digest d;
    for (int trial = 0; trial < 3; ++trial) {
      const Aig aig = random_multi_output_aig(pin.n, 3, rng);
      for (const bool reliability : {true, false}) {
        for (const unsigned width : {10u, 4u}) {
          RenodeOptions options;
          options.reliability_assign = reliability;
          options.max_node_inputs = width;
          d.add(renode_and_assign(aig, options));
        }
      }
    }
    EXPECT_EQ(d.h, pin.digest) << "n = " << pin.n;
  }
}

TEST(DecompPins, RenodeWithOdcs) {
  const Pin pins[] = {{2, 16689925483087600485ull},
                      {6, 13799151266141358314ull},
                      {7, 14841073488604448545ull}};
  for (const Pin& pin : pins) {
    Rng rng(5500 + pin.n);
    Digest d;
    for (int trial = 0; trial < 3; ++trial) {
      const Aig aig = random_multi_output_aig(pin.n, 3, rng);
      for (const bool reliability : {true, false}) {
        OdcRenodeOptions options;
        options.reliability_assign = reliability;
        options.max_rewrites = 12;
        d.add(renode_with_odcs(aig, options));
      }
    }
    EXPECT_EQ(d.h, pin.digest) << "n = " << pin.n;
  }

  Digest d;
  for (const bool reliability : {true, false}) {
    OdcRenodeOptions options;
    options.reliability_assign = reliability;
    const OdcRenodeResult result =
        renode_with_odcs(observability_fixture(), options);
    EXPECT_GT(result.odc_patterns, 0u);
    d.add(result);
  }
  EXPECT_EQ(d.h, 1440616466048081159ull) << "observability fixture";
}

TEST(DecompPins, InternalErrorRate) {
  // Bit patterns of the rate on each random network and on its renoded
  // rewrite, at several sample counts, each followed by the next draw.
  const Pin pins[] = {{2, 16431241961319733006ull},
                      {6, 14438410135809429195ull},
                      {7, 1275420951287669068ull},
                      {10, 13116696110189586613ull}};
  for (const Pin& pin : pins) {
    Rng rng(6000 + pin.n);
    Digest d;
    for (int trial = 0; trial < 2; ++trial) {
      const Aig aig = random_multi_output_aig(pin.n, 2, rng);
      const Aig rewritten = renode_and_assign(aig).network;
      for (const Aig* network : {&aig, &rewritten}) {
        for (const unsigned samples : {0u, 1u, 97u, 2000u}) {
          d.add(std::bit_cast<std::uint64_t>(
              internal_error_rate(*network, samples, rng)));
          d.add(rng());
        }
      }
    }
    EXPECT_EQ(d.h, pin.digest) << "n = " << pin.n;
  }
}

}  // namespace
}  // namespace rdc
