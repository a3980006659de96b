// Tests for the TM dynamic program (§3.2): exactness against the
// brute-force oracle, the Lemma A.2 closed forms, and the Theorem 3.9 loss
// bound on random forests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "pobp/bas/tm.hpp"
#include "pobp/gen/forest_gen.hpp"
#include "pobp/gen/lower_bounds.hpp"
#include "pobp/schedule/metrics.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

TEST(Tm, SingleNode) {
  Forest f;
  f.add(7);
  const TmResult r = tm_optimal_bas(f, 1);
  EXPECT_DOUBLE_EQ(r.value, 7.0);
  EXPECT_TRUE(r.selection.kept(0));
}

TEST(Tm, LeafFormula) {
  // Procedure TM lines 1–3: t(leaf) = val, m(leaf) = 0.
  Forest f;
  f.add(5);
  f.add(9, 0);
  const TmResult r = tm_optimal_bas(f, 1);
  EXPECT_DOUBLE_EQ(r.t[1], 9.0);
  EXPECT_DOUBLE_EQ(r.m[1], 0.0);
  EXPECT_DOUBLE_EQ(r.t[0], 14.0);
  EXPECT_DOUBLE_EQ(r.m[0], 9.0);
}

TEST(Tm, StarPrefersLeavesWhenRootIsCheap) {
  Forest f;
  f.add(1);
  for (int i = 0; i < 5; ++i) f.add(10, 0);
  const TmResult r = tm_optimal_bas(f, 1);
  EXPECT_DOUBLE_EQ(r.value, 50.0);
  EXPECT_FALSE(r.selection.kept(0));
}

TEST(Tm, PicksTopKChildren) {
  Forest f;
  f.add(100);
  f.add(5, 0);
  f.add(9, 0);
  f.add(7, 0);
  const TmResult r = tm_optimal_bas(f, 2);
  EXPECT_DOUBLE_EQ(r.value, 116.0);  // 100 + 9 + 7
  EXPECT_TRUE(r.selection.kept(0));
  EXPECT_FALSE(r.selection.kept(1));
  EXPECT_TRUE(r.selection.kept(2));
  EXPECT_TRUE(r.selection.kept(3));
}

TEST(Tm, ForestIsUnionOfTreeSolutions) {
  // Obs. 3.5: per-tree optimality composes.
  Forest f;
  f.add(1);          // tree A root
  f.add(10, 0);
  f.add(10, 0);
  f.add(50);         // tree B root (id 3)
  f.add(2, 3);
  const TmResult r = tm_optimal_bas(f, 1);
  EXPECT_DOUBLE_EQ(r.value, 20.0 + 52.0);
}

TEST(Tm, PrunedUpAllowsMixedChildren) {
  // Root cheap; one child subtree best retained, another best pruned-up —
  // Obs. 3.8(b).
  Forest f;
  f.add(1);            // 0 root (will be pruned-up)
  f.add(100, 0);       // 1: retained child
  f.add(1, 0);         // 2: cheap child, itself pruned-up
  f.add(60, 2);        // 3
  f.add(60, 2);        // 4  (2's two children each worth more than 2+one)
  const TmResult r = tm_optimal_bas(f, 1);
  // Best: delete 0 and 2; keep 1, 3, 4 as separate components = 220.
  EXPECT_DOUBLE_EQ(r.value, 220.0);
  EXPECT_TRUE(validate_bas(f, r.selection, 1));
}

// ---- exhaustive cross-validation against the brute-force oracle ---------

class TmVsBrute
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(TmVsBrute, MatchesBruteForceOnRandomForests) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    ForestGenConfig config;
    config.nodes = 1 + static_cast<std::size_t>(rng.uniform_int(1, 12));
    config.max_degree = 1 + static_cast<std::size_t>(rng.uniform_int(1, 4));
    config.root_probability = 0.2;
    const Forest f = random_forest(config, rng);

    const TmResult tm = tm_optimal_bas(f, k);
    const auto check = validate_bas(f, tm.selection, k);
    ASSERT_TRUE(check) << check.error;
    EXPECT_NEAR(tm.selection.value(f), tm.value, 1e-9);

    const SubForest brute = brute_force_bas(f, k);
    EXPECT_NEAR(tm.value, brute.value(f), 1e-9)
        << "trial " << trial << " n=" << f.size() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, TmVsBrute,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3})));

// ---- Lemma A.2: exact t/m on the Appendix-A tree -------------------------

class LemmaA2 : public ::testing::TestWithParam<
                    std::tuple<std::size_t, std::int64_t, std::size_t>> {};

TEST_P(LemmaA2, TmValuesMatchClosedForm) {
  const auto [k, K, L] = GetParam();
  const BasLowerBoundTree lb = bas_lower_bound_tree(k, K, L);
  const TmResult r = tm_optimal_bas(lb.forest, k);

  // Node ids are level-contiguous; check one node per level (they are all
  // identical by symmetry) plus the root.
  NodeId level_start = 0;
  std::size_t level_size = 1;
  for (std::size_t level = 0; level <= L; ++level) {
    EXPECT_DOUBLE_EQ(r.t[level_start],
                     static_cast<double>(lb.expected_t[level]))
        << "t at level " << level;
    EXPECT_DOUBLE_EQ(r.m[level_start],
                     static_cast<double>(lb.expected_m[level]))
        << "m at level " << level;
    level_start += static_cast<NodeId>(level_size);
    level_size *= static_cast<std::size_t>(K);
  }
  // Lemma A.2 remark: t > m everywhere, so TM retains the root.
  EXPECT_DOUBLE_EQ(r.value, static_cast<double>(lb.opt_bas_value));
  EXPECT_TRUE(r.selection.kept(0));
}

INSTANTIATE_TEST_SUITE_P(
    Params, LemmaA2,
    ::testing::Values(std::make_tuple(std::size_t{1}, std::int64_t{2},
                                      std::size_t{6}),
                      std::make_tuple(std::size_t{1}, std::int64_t{3},
                                      std::size_t{5}),
                      std::make_tuple(std::size_t{2}, std::int64_t{4},
                                      std::size_t{4}),
                      std::make_tuple(std::size_t{3}, std::int64_t{6},
                                      std::size_t{3}),
                      std::make_tuple(std::size_t{2}, std::int64_t{3},
                                      std::size_t{5})));

// Theorem 3.20 with K = 2k: the ratio total/OPT is Ω(log_{k+1} n).
TEST(Theorem320, LossGrowsWithDepth) {
  const std::size_t k = 1;
  double previous_ratio = 0;
  for (std::size_t L = 2; L <= 10; L += 2) {
    const BasLowerBoundTree lb = bas_lower_bound_tree(k, 2 * k, L);
    const TmResult r = tm_optimal_bas(lb.forest, k);
    const double ratio = static_cast<double>(lb.total_value) / r.value;
    EXPECT_GT(ratio, previous_ratio);  // strictly growing with L
    previous_ratio = ratio;
    // OPT_k < K/(K−k) = 2 per unit level value (Cor. A.3, scaled by K^L):
    EXPECT_LT(r.value, 2.0 * std::pow(2.0, static_cast<double>(L)));
  }
}

// Theorem 3.9: loss factor of TM ≤ log_{k+1} n on arbitrary forests.
class Theorem39 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem39, LossFactorWithinBoundOnRandomForests) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    ForestGenConfig config;
    config.nodes = 2000;
    config.max_degree = 10;
    config.value_dist = trial % 2 == 0
                            ? ForestGenConfig::ValueDist::kUniform
                            : ForestGenConfig::ValueDist::kDepthDecay;
    const Forest f = random_forest(config, rng);
    for (const std::size_t k : {1u, 2u, 4u}) {
      const TmResult r = tm_optimal_bas(f, k);
      const double bound =
          log_k1(k, static_cast<double>(f.size()));
      EXPECT_GE(r.value * bound, f.total_value() * (1 - 1e-12))
          << "k=" << k << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem39, ::testing::Values(9, 19, 29));


// ---- frozen node-indexed oracle -------------------------------------------

/// A frozen copy of the plain node-indexed DP: per-node CSR child walks
/// over id-indexed t/m arrays with a comparator-based top-k selection, then
/// the top-down decision pass.  The library's TM must reproduce its value,
/// tables and keep mask bit for bit.
struct ScalarTmRef {
  std::vector<Value> t, m;
  std::vector<char> keep;
  std::vector<NodeId> topk;
  std::vector<std::pair<NodeId, char>> stack;
};

Value scalar_ref_tm(const Forest& forest, std::size_t k, ScalarTmRef& s) {
  enum : char { kRetain = 0, kPruneUp = 1 };
  const std::size_t n = forest.size();
  auto& t = s.t;
  auto& m = s.m;
  t.assign(n, 0);
  m.assign(n, 0);
  s.keep.assign(n, 0);
  const auto top_k_children = [&](NodeId u) -> std::span<const NodeId> {
    const std::span<const NodeId> kids = forest.children(u);
    if (kids.size() <= k) return kids;
    s.topk.assign(kids.begin(), kids.end());
    std::nth_element(s.topk.begin(),
                     s.topk.begin() + static_cast<std::ptrdiff_t>(k),
                     s.topk.end(), [&](NodeId a, NodeId b) {
                       if (t[a] != t[b]) return t[a] > t[b];
                       return a < b;
                     });
    return {s.topk.data(), k};
  };
  for (std::size_t i = n; i-- > 0;) {
    const NodeId u = static_cast<NodeId>(i);
    Value t_u = forest.value(u);
    for (const NodeId c : top_k_children(u)) t_u += t[c];
    Value m_u = 0;
    for (const NodeId c : forest.children(u)) m_u += std::max(t[c], m[c]);
    t[u] = t_u;
    m[u] = m_u;
  }
  auto& stack = s.stack;
  stack.clear();
  for (const NodeId r : forest.roots()) {
    stack.emplace_back(r, t[r] >= m[r] ? kRetain : kPruneUp);
  }
  while (!stack.empty()) {
    const auto [u, decision] = stack.back();
    stack.pop_back();
    if (decision == kRetain) {
      s.keep[u] = 1;
      for (const NodeId c : top_k_children(u)) stack.emplace_back(c, kRetain);
    } else {
      for (const NodeId c : forest.children(u)) {
        stack.emplace_back(c, t[c] >= m[c] ? kRetain : kPruneUp);
      }
    }
  }
  Value total = 0;
  for (const NodeId r : forest.roots()) total += std::max(t[r], m[r]);
  return total;
}

// Wide parents (up to 64 children) whose values come from {1, 2, 3, 4}:
// siblings' t values tie often, so the top-k tie rule (the smaller id
// wins) decides many keep bits.  Both entries are checked, the forked one
// with forking forced on.
TEST(TmOracle, SerialAndForkedMatchTheFrozenDpOnWideTieHeavyForests) {
  Rng rng(47);
  for (int trial = 0; trial < 3; ++trial) {
    ForestGenConfig config;
    config.nodes = 4096;
    config.max_degree = 64;
    Forest f = random_forest(config, rng);
    for (NodeId v = 0; v < f.size(); ++v) {
      f.set_value(v, static_cast<Value>(rng.uniform_int(1, 4)));
    }
    ASSERT_GE(f.roots().size(), 2u) << "trial " << trial;
    for (std::size_t k = 1; k <= 3; ++k) {
      ScalarTmRef ref;
      const Value expected = scalar_ref_tm(f, k, ref);
      TmScratch scratch;
      TmResult serial;
      TmResult forked;
      tm_optimal_bas(f, k, scratch, serial);
      tm_optimal_bas_forked(f, k, scratch, forked, /*fork_min_nodes=*/1);
      for (const TmResult* r : {&serial, &forked}) {
        const char* entry = r == &serial ? "serial" : "forked";
        EXPECT_EQ(r->value, expected) << entry << " trial " << trial
                                      << " k=" << k;
        EXPECT_EQ(r->t, ref.t) << entry << " trial " << trial << " k=" << k;
        EXPECT_EQ(r->m, ref.m) << entry << " trial " << trial << " k=" << k;
        EXPECT_EQ(r->selection.keep, ref.keep)
            << entry << " trial " << trial << " k=" << k;
      }
    }
  }
}

// The forked entry point fans root trees out across threads; root subtrees
// are disjoint, so it must be bit-identical to the serial DP — value,
// per-node t/m tables, and the keep mask — whether forking is forced on for
// every multi-root forest (threshold 1) or disabled outright (0).
TEST(Tm, ForkedMatchesSerialBitExactOnRandomForests) {
  Rng rng(424242);
  const ForestGenConfig::ValueDist dists[] = {
      ForestGenConfig::ValueDist::kUniform,
      ForestGenConfig::ValueDist::kHeavyTail,
      ForestGenConfig::ValueDist::kDepthDecay};
  for (int trial = 0; trial < 9; ++trial) {
    ForestGenConfig config;
    config.nodes = 150 + static_cast<std::size_t>(trial) * 80;
    config.max_degree = 6;
    config.root_probability = 0.05;  // plenty of roots to fork over
    config.value_dist = dists[trial % 3];
    const Forest f = random_forest(config, rng);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
      const TmResult serial = tm_optimal_bas(f, k);
      TmScratch scratch;
      TmResult forked;
      tm_optimal_bas_forked(f, k, scratch, forked, /*fork_min_nodes=*/1);
      EXPECT_EQ(serial.value, forked.value) << "trial " << trial;
      EXPECT_EQ(serial.t, forked.t) << "trial " << trial;
      EXPECT_EQ(serial.m, forked.m) << "trial " << trial;
      EXPECT_EQ(serial.selection.keep, forked.selection.keep)
          << "trial " << trial;

      // fork_min_nodes = 0 disables forking; same scratch, same answer.
      TmResult disabled;
      tm_optimal_bas_forked(f, k, scratch, disabled, /*fork_min_nodes=*/0);
      EXPECT_EQ(serial.value, disabled.value) << "trial " << trial;
      EXPECT_EQ(serial.selection.keep, disabled.selection.keep)
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace pobp
