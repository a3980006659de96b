// Tests for the three paper constructions (Figs. 2–4, Appendices A–B).
#include <gtest/gtest.h>

#include <cmath>

#include "pobp/bas/tm.hpp"
#include "pobp/pobp.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/gen/lower_bounds.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/util/checked.hpp"

namespace pobp {
namespace {

// ---------------------------------------------------------------- Fig. 2 --

TEST(Fig2, WitnessIsFeasibleWithOnePreemption) {
  for (const std::size_t n : {1u, 2u, 5u, 10u, 20u}) {
    const K0GeometricInstance inst = k0_geometric_instance(n);
    ASSERT_EQ(inst.jobs.size(), n);
    const auto check = validate_machine(inst.jobs, inst.witness, /*k=*/1);
    EXPECT_TRUE(check) << "n=" << n << ": " << check.error;
    EXPECT_EQ(inst.witness.job_count(), n);  // ALL jobs scheduled
  }
}

TEST(Fig2, LengthsAreGeometricWithRatioTwo) {
  const K0GeometricInstance inst = k0_geometric_instance(8);
  for (JobId i = 0; i < 8; ++i) {
    EXPECT_EQ(inst.jobs[i].length, Duration{1} << i);
  }
  EXPECT_DOUBLE_EQ(inst.jobs.length_ratio_P().to_double(), 128.0);
  EXPECT_DOUBLE_EQ(inst.log2_P, 7.0);
}

TEST(Fig2, NonPreemptiveOptimumIsOneJob) {
  // Any non-preemptive placement covers the common mandatory unit, so the
  // exact OPT₀ is a single (unit-value) job — the price is exactly n.
  for (const std::size_t n : {2u, 4u, 8u, 12u}) {
    const K0GeometricInstance inst = k0_geometric_instance(n);
    const SubsetSolution opt0 = opt_zero(inst.jobs, all_ids(inst.jobs));
    EXPECT_DOUBLE_EQ(opt0.value, 1.0) << "n=" << n;
  }
}

TEST(Fig2, AllWindowsShareTheMandatoryUnit) {
  const K0GeometricInstance inst = k0_geometric_instance(10);
  // Mandatory region of job j = [d_j − p_j, r_j + p_j]; all must intersect.
  Time lo = std::numeric_limits<Time>::min();
  Time hi = std::numeric_limits<Time>::max();
  for (const Job& j : inst.jobs) {
    lo = std::max(lo, j.deadline - j.length);
    hi = std::min(hi, j.release + j.length);
  }
  EXPECT_LT(lo, hi);  // a common slot every placement must cover
}

TEST(Fig2, TimesAreNonNegative) {
  const K0GeometricInstance inst = k0_geometric_instance(16);
  for (const Job& j : inst.jobs) EXPECT_GE(j.release, 0);
}

// --------------------------------------------------- Fig. 3 / Appendix A --

TEST(AppendixA, StructureIsCompleteKaryTree) {
  const BasLowerBoundTree lb = bas_lower_bound_tree(1, 3, 4);
  // n = (3^5 − 1)/2 = 121 nodes; every internal node has 3 children.
  EXPECT_EQ(lb.forest.size(), 121u);
  std::size_t leaves = 0;
  for (NodeId v = 0; v < lb.forest.size(); ++v) {
    const std::size_t deg = lb.forest.degree(v);
    EXPECT_TRUE(deg == 0 || deg == 3);
    leaves += deg == 0;
  }
  EXPECT_EQ(leaves, 81u);  // 3^4
}

TEST(AppendixA, ObservationA1LevelValues) {
  // Every level's total value is K^L (the paper's "1", scaled).
  const BasLowerBoundTree lb = bas_lower_bound_tree(2, 4, 3);
  const double level_total = std::pow(4.0, 3.0);
  // Level starts: 1, 4, 16, 64 nodes.
  NodeId id = 0;
  std::size_t width = 1;
  for (std::size_t level = 0; level <= 3; ++level) {
    double sum = 0;
    for (std::size_t i = 0; i < width; ++i) sum += lb.forest.value(id++);
    EXPECT_DOUBLE_EQ(sum, level_total) << "level " << level;
    width *= 4;
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(lb.total_value), 4.0 * level_total);
}

TEST(AppendixA, CorollaryA3OptBoundedByGeometricSeries) {
  // ALG = t(root) < K/(K−k) · K^L.
  for (const auto& [k, K, L] :
       std::vector<std::tuple<std::size_t, std::int64_t, std::size_t>>{
           {1, 2, 8}, {2, 4, 6}, {3, 6, 5}}) {
    const BasLowerBoundTree lb = bas_lower_bound_tree(k, K, L);
    const double cap = static_cast<double>(K) /
                       static_cast<double>(K - static_cast<std::int64_t>(k)) *
                       std::pow(static_cast<double>(K),
                                static_cast<double>(L));
    EXPECT_LT(static_cast<double>(lb.opt_bas_value), cap);
  }
}

TEST(AppendixA, Theorem320RatioIsLogarithmic) {
  // With K = 2k: OPT∞/OPT_k > (L+1)/2 = Ω(log_{k+1} n).
  const std::size_t k = 1;
  for (const std::size_t L : {4u, 6u, 8u, 10u}) {
    const BasLowerBoundTree lb = bas_lower_bound_tree(k, 2, L);
    const TmResult tm = tm_optimal_bas(lb.forest, k);
    const double ratio = static_cast<double>(lb.total_value) / tm.value;
    EXPECT_GT(ratio, static_cast<double>(L + 1) / 2.0);
  }
}

TEST(AppendixADeath, RequiresKGreaterThanBound) {
  EXPECT_DEATH(bas_lower_bound_tree(2, 2, 3), "K > k");
}

// --------------------------------------------------- Fig. 4 / Appendix B --

TEST(AppendixB, SizesAndLevels) {
  const PobpLowerBoundInstance inst = pobp_lower_bound_instance(1, 2, 3);
  // n = 1 + 2 + 4 + 8 = 15.
  EXPECT_EQ(inst.jobs.size(), 15u);
  // P = (3K²)^L = 12³.
  EXPECT_DOUBLE_EQ(inst.P, 1728.0);
  EXPECT_DOUBLE_EQ(inst.jobs.length_ratio_P().to_double(), 1728.0);
  // λ = 1 + 1/(3K−1) = 6/5 for every job.
  for (const Job& j : inst.jobs) {
    EXPECT_EQ(j.laxity(), Rational(6, 5));
  }
}

TEST(AppendixB, AllJobsFeasibleWithUnboundedPreemption) {
  // Lemma B.2: OPT∞ = L+1 (scaled: everything fits).  EDF is the witness.
  for (const auto& [k, K, L] :
       std::vector<std::tuple<std::size_t, std::int64_t, std::size_t>>{
           {1, 2, 1}, {1, 2, 3}, {1, 2, 5}, {2, 4, 3}, {3, 6, 2}}) {
    const PobpLowerBoundInstance inst = pobp_lower_bound_instance(k, K, L);
    const auto ms = edf_schedule(inst.jobs, all_ids(inst.jobs));
    ASSERT_TRUE(ms.has_value()) << "K=" << K << " L=" << L;
    const auto check = validate_machine(inst.jobs, *ms);
    EXPECT_TRUE(check) << check.error;
    EXPECT_DOUBLE_EQ(ms->total_value(inst.jobs), inst.total_value);
  }
}

TEST(AppendixB, TotalValueMatchesLemmaB2) {
  // OPT∞ = (L+1)·K^L scaled.
  const PobpLowerBoundInstance inst = pobp_lower_bound_instance(1, 2, 4);
  EXPECT_DOUBLE_EQ(inst.total_value, 5.0 * 16.0);
  EXPECT_DOUBLE_EQ(inst.opt_k_upper, 2.0 * 16.0);  // K/(K−k)·K^L = 2·16
}

TEST(AppendixB, BoundedAlgorithmsStayBelowLemmaB2Cap) {
  // Any feasible k-bounded schedule is ≤ OPT_k < the Lemma B.2 cap; run
  // our pipeline and check it lands under the cap while OPT∞ takes all.
  for (const std::size_t L : {2u, 3u, 4u}) {
    const std::size_t k = 1;
    const PobpLowerBoundInstance inst =
        pobp_lower_bound_instance(k, 2 * k, L);
    const auto seed = edf_schedule(inst.jobs, all_ids(inst.jobs));
    ASSERT_TRUE(seed);
    SolveScratch scratch;
    Schedule out;
    const CombinedMultiValues r = k_preemption_combined_multi_into(
        inst.jobs, Schedule(*seed), {.k = k}, nullptr, scratch, out);
    const auto check = validate(inst.jobs, out, k);
    EXPECT_TRUE(check) << check.error;
    EXPECT_LT(r.value, inst.opt_k_upper) << "L=" << L;
    // Price paid on this instance grows with L.
    EXPECT_GT(inst.total_value / r.value,
              static_cast<double>(L + 1) / 2.0);
  }
}

TEST(AppendixB, LemmaB1OnePreemptionFitsOneChild) {
  // Micro-check of Lemma B.1 on the smallest instance (k=1, K=2, L=1):
  // the exact slot DP with k=1 must stay strictly below OPT∞.
  const PobpLowerBoundInstance inst = pobp_lower_bound_instance(1, 2, 1);
  ASSERT_EQ(inst.jobs.size(), 3u);
  const auto opt1 = opt_k_slots(inst.jobs, 1, std::size_t{1} << 36);
  ASSERT_TRUE(opt1.has_value());
  EXPECT_LT(*opt1, inst.total_value);
  EXPECT_LT(*opt1, inst.opt_k_upper);
}

TEST(AppendixB, MaxLPicker) {
  const std::size_t L = pobp_lower_bound_max_L(2, 100000);
  EXPECT_GE(L, 10u);
  // The chosen L must actually instantiate without overflow.
  const PobpLowerBoundInstance inst = pobp_lower_bound_instance(1, 2, L);
  EXPECT_GT(inst.jobs.size(), 0u);
  // And the next L would be too big on at least one axis.
  EXPECT_LT(pobp_lower_bound_max_L(2, 100), 10u);
}

TEST(AppendixB, ReplicatedInstanceForMultiMachine) {
  const PobpLowerBoundInstance inst = pobp_lower_bound_instance(1, 2, 2);
  const JobSet doubled = replicate(inst.jobs, 2);
  EXPECT_EQ(doubled.size(), 2 * inst.jobs.size());
  // Two machines schedule everything (one copy each).
  Schedule s(2);
  const auto m0 = edf_schedule(doubled, all_ids(inst.jobs));
  ASSERT_TRUE(m0);
  std::vector<JobId> second_half;
  for (JobId id = static_cast<JobId>(inst.jobs.size());
       id < doubled.size(); ++id) {
    second_half.push_back(id);
  }
  const auto m1 = edf_schedule(doubled, second_half);
  ASSERT_TRUE(m1);
  s.machine(0) = *m0;
  s.machine(1) = *m1;
  EXPECT_TRUE(validate(doubled, s));
}

}  // namespace
}  // namespace pobp
