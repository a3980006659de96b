// Edge-case sweep across modules: the degenerate inputs every production
// library gets fed eventually.
#include <gtest/gtest.h>

#include "pobp/pobp.hpp"
#include "pobp/bas/contraction.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/reduction/rebuild.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/schedule/interval_condition.hpp"
#include "pobp/schedule/interval_cover.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/gen/forest_gen.hpp"
#include "pobp/gen/lower_bounds.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

TEST(EdgeCases, SingleTickJobEverywhere) {
  JobSet jobs;
  jobs.add({0, 1, 1, 1.0});  // tightest possible job
  const ScheduleResult r = try_schedule_bounded(jobs, {.k = 0}).value();
  EXPECT_DOUBLE_EQ(r.value, 1.0);
  EXPECT_TRUE(validate(jobs, r.schedule, 0));
  EXPECT_TRUE(edf_schedule(jobs, all_ids(jobs)).has_value());
  EXPECT_TRUE(preemptive_feasible(jobs, all_ids(jobs)));
}

TEST(EdgeCases, EdfDeadlineTiesBrokenById) {
  JobSet jobs;
  jobs.add({0, 10, 3, 1.0});
  jobs.add({0, 10, 3, 1.0});
  const auto ms = edf_schedule(jobs, all_ids(jobs));
  ASSERT_TRUE(ms);
  // Lower id first under the strict tie order.
  EXPECT_EQ(ms->find(0)->segments[0], (Segment{0, 3}));
  EXPECT_EQ(ms->find(1)->segments[0], (Segment{3, 6}));
}

TEST(EdgeCases, SimultaneousReleaseBurst) {
  // 20 identical jobs released together, exactly filling the horizon.
  JobSet jobs;
  for (int i = 0; i < 20; ++i) jobs.add({0, 100, 5, 1.0});
  const auto ms = edf_schedule(jobs, all_ids(jobs));
  ASSERT_TRUE(ms);
  EXPECT_EQ(ms->job_count(), 20u);
  EXPECT_EQ(ms->max_preemptions(), 0u);  // EDF runs them back to back
}

TEST(EdgeCases, AppendixATreeAtDepthZero) {
  const BasLowerBoundTree lb = bas_lower_bound_tree(1, 2, 0);
  EXPECT_EQ(lb.forest.size(), 1u);
  EXPECT_EQ(lb.total_value, 1);
  const TmResult r = tm_optimal_bas(lb.forest, 1);
  EXPECT_DOUBLE_EQ(r.value, 1.0);
}

TEST(EdgeCases, GeometricChainOfOne) {
  const K0GeometricInstance inst = k0_geometric_instance(1);
  EXPECT_EQ(inst.jobs.size(), 1u);
  EXPECT_TRUE(validate_machine(inst.jobs, inst.witness, 0));
}

TEST(EdgeCases, LaminarGeneratorMinimalTarget) {
  Rng rng(1);
  LaminarGenConfig config;
  config.target_jobs = 1;
  const LaminarInstance inst = random_laminar_instance(config, rng);
  EXPECT_GE(inst.jobs.size(), 1u);
  EXPECT_TRUE(validate_machine(inst.jobs, inst.schedule));
}

TEST(EdgeCases, SingleNodeForestGenerator) {
  Rng rng(2);
  ForestGenConfig config;
  config.nodes = 1;
  const Forest f = random_forest(config, rng);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(levelled_contraction(f, 1).iterations(), 1u);
}

TEST(EdgeCases, AllJobsLaxGoThroughLsaBranch) {
  Rng rng(3);
  JobGenConfig config;
  config.n = 30;
  config.max_length = 32;
  config.min_laxity = 10.0;  // λ ≥ k+1 for any small k
  config.max_laxity = 20.0;
  config.horizon = 4096;
  const JobSet jobs = random_jobs(config, rng);
  const Schedule seed(greedy_infinity(jobs, all_ids(jobs)));
  SolveScratch scratch;
  Schedule out;
  const CombinedMultiValues r = k_preemption_combined_multi_into(
      jobs, seed, {.k = 2}, nullptr, scratch, out);
  EXPECT_EQ(r.strict_jobs, 0u);
  EXPECT_GT(r.lax_jobs, 0u);
  EXPECT_TRUE(validate(jobs, out, 2));
}

TEST(EdgeCases, AllJobsStrictGoThroughReductionBranch) {
  Rng rng(4);
  JobGenConfig config;
  config.n = 30;
  config.max_length = 32;
  config.min_laxity = 1.0;
  config.max_laxity = 1.4;  // λ < k+1 for every k ≥ 1
  config.horizon = 4096;
  const JobSet jobs = random_jobs(config, rng);
  const Schedule seed(greedy_infinity(jobs, all_ids(jobs)));
  SolveScratch scratch;
  Schedule out;
  const CombinedMultiValues r = k_preemption_combined_multi_into(
      jobs, seed, {.k = 2}, nullptr, scratch, out);
  EXPECT_EQ(r.lax_jobs, 0u);
  EXPECT_DOUBLE_EQ(r.lax_value, 0.0);
  EXPECT_TRUE(validate(jobs, out, 2));
}

TEST(EdgeCases, HugeKEquivalentToUnbounded) {
  Rng rng(5);
  LaminarGenConfig config;
  config.target_jobs = 60;
  config.max_children = 4;
  const LaminarInstance inst = random_laminar_instance(config, rng);
  // k larger than any forest degree: the reduction keeps everything.
  const ReductionResult r =
      reduce_to_k_preemptive(inst.jobs, inst.schedule, 100);
  EXPECT_DOUBLE_EQ(r.value, inst.jobs.total_value());
}

TEST(EdgeCases, ValidatorHandlesAdjacentSegmentsOfSameJob) {
  // Adjacent segments are merged on add(), so they count as one.
  JobSet jobs;
  jobs.add({0, 10, 4, 1.0});
  MachineSchedule ms;
  ms.add({0, {{0, 2}, {2, 4}}});
  EXPECT_TRUE(validate_machine(jobs, ms, 0));
}

TEST(EdgeCases, IntervalCoverOfIdenticalIntervals) {
  const std::vector<Segment> s{{0, 5}, {0, 5}, {0, 5}};
  const IntervalCover c = greedy_interval_cover(s);
  EXPECT_EQ(c.chosen.size(), 1u);
}

TEST(EdgeCases, MaxLPickerSmallBudget) {
  // A job budget of 1 only fits L = 0.
  EXPECT_EQ(pobp_lower_bound_max_L(2, 1), 0u);
}

// Two length-2^62 jobs released at 0 cannot share a machine: together they
// would finish past INT64_MAX.  Every solve path must keep the value-2 job
// on one machine and both on two — a wrapped completion time used to let
// the seed accept both and the reduction then fail its own invariant.
TEST(EdgeCases, CompletionsPastInt64MaxAcrossKAndMachines) {
  JobSet jobs;
  jobs.add({0, 9223372036854774784, 4611686018427387904, 1.0});
  jobs.add({0, 9223372036854774784, 4611686018427387904, 2.0});
  for (const std::size_t k : {0u, 1u, 2u}) {
    for (const std::size_t machines : {1u, 2u}) {
      const auto result =
          try_schedule_bounded(jobs, {.k = k, .machine_count = machines});
      ASSERT_TRUE(result.has_value())
          << "k " << k << ", " << machines << " machines: "
          << result.error().first_error();
      EXPECT_DOUBLE_EQ(result->value, machines == 1 ? 2.0 : 3.0)
          << "k " << k << ", " << machines << " machines";
      EXPECT_TRUE(validate(jobs, result->schedule, k));
    }
  }
}

// Algorithm 3's strict/lax split (λ ≥ k+1) on windows near INT64_MAX
// whose laxity has a denominator near 2^62 in lowest terms: comparing it
// with k+1 as a Rational overflowed int64 and aborted the process.
TEST(EdgeCases, LaxitySplitNearInt64MaxIsAnswered) {
  struct Case {
    Time window;
    Duration length;
    std::size_t k;
  };
  constexpr Duration kCoprime = (Duration{1} << 53) - 1;
  for (const Case c : {Case{Time{1} << 62, (Duration{1} << 62) - 1, 2},
                       Case{((Time{1} << 53) - 3) << 10, kCoprime << 9, 1100},
                       Case{Time{1} << 62, (Duration{1} << 62) - 1, 1}}) {
    JobSet jobs;
    jobs.add({0, c.window, c.length, 1.0});
    const auto result = try_schedule_bounded(jobs, {.k = c.k});
    ASSERT_TRUE(result.has_value()) << "k " << c.k;
    EXPECT_DOUBLE_EQ(result->value, 1.0) << "k " << c.k;
    EXPECT_TRUE(validate(jobs, result->schedule, c.k));
  }
}

// λ_max on windows near 2^62: comparing the laxities as Rationals
// cross-multiplied past INT64_MAX, and `pobp info` / `pobp price` aborted
// (exit 134) on this well-formed two-job instance.
TEST(EdgeCases, MaxLaxityNearInt64MaxIsCompared) {
  JobSet jobs;
  jobs.add({0, 4611686018427387903, 5, 1.0});
  jobs.add({0, 4611686018427387901, 7, 1.0});
  EXPECT_EQ(jobs.max_laxity(), Rational(4611686018427387903, 5));
  EXPECT_DOUBLE_EQ(compute_metrics(jobs).lambda_max,
                   4611686018427387903.0 / 5.0);

  // Two laxities one part in 2^62 apart, the larger second: the double
  // values coincide, the exact comparison still picks it.
  JobSet close;
  close.add({0, 4611686018427387902, 3, 1.0});
  close.add({0, 4611686018427387903, 3, 1.0});
  EXPECT_EQ(close.max_laxity(), Rational(4611686018427387903, 3));
}

}  // namespace
}  // namespace pobp
