// Cross-module integration sweeps: the full pipeline against exact ground
// truth, on every workload family, for several k and machine counts.
#include <gtest/gtest.h>

#include <tuple>

#include "pobp/pobp.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/gen/lower_bounds.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

// End-to-end: random congested instances, exact OPT∞ seed, bounded result
// within the Theorem 4.2/4.5 envelope of the *exact* optimum.
class ExactPipeline
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(ExactPipeline, BoundedValueWithinTheoremEnvelopeOfExactOpt) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    JobGenConfig config;
    config.n = 14;
    config.min_length = 1;
    config.max_length = 256;
    config.min_laxity = 1.0;
    config.max_laxity = 2.0 * (static_cast<double>(k) + 1.0);
    config.horizon = 2048;
    config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
    const JobSet jobs = random_jobs(config, rng);

    const ScheduleResult r = try_schedule_bounded(
        jobs, {.k = k, .seed = ScheduleOptions::Seed::kExact}).value();
    const auto check = validate(jobs, r.schedule, k);
    ASSERT_TRUE(check) << check.error;

    const SubsetSolution opt = opt_infinity(jobs, all_ids(jobs));
    EXPECT_DOUBLE_EQ(r.unbounded_value, opt.value);

    // PoBP envelope: value ≥ OPT∞ / min{log n, 6·log P} (up to the Alg. 3
    // constant 2 absorbed below).
    const double n_bound = log_k1(k, static_cast<double>(jobs.size()));
    const double p_bound =
        6.0 * log_k1(k, jobs.length_ratio_P().to_double());
    const double bound = 2.0 * std::min(n_bound, p_bound);
    EXPECT_GE(r.value * bound, opt.value * (1 - 1e-9))
        << "k=" << k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, ExactPipeline,
    ::testing::Combine(::testing::Values(201u, 202u),
                       ::testing::Values(std::size_t{1}, std::size_t{2})));

// The k-monotonicity sanity: more preemptions never hurt the pipeline on
// the same instance and same seed schedule.
TEST(Integration, ValueIsBroadlyMonotoneInK) {
  Rng rng(211);
  LaminarGenConfig config;
  config.target_jobs = 150;
  config.max_children = 6;
  const LaminarInstance inst = random_laminar_instance(config, rng);
  const Schedule seed(laminarize(inst.jobs, inst.schedule));
  SolveScratch scratch;
  Schedule out;
  Value at_k1 = 0;
  Value at_k8 = 0;
  for (const std::size_t k : {1u, 8u}) {
    const CombinedMultiValues r = k_preemption_combined_multi_into(
        inst.jobs, seed, {.k = k}, nullptr, scratch, out);
    if (k == 1) at_k1 = r.value;
    if (k == 8) at_k8 = r.value;
  }
  EXPECT_GE(at_k8, at_k1 * (1 - 1e-12));
  // With a generous k, the forest degree rarely exceeds it: near-total value.
  EXPECT_GE(at_k8, 0.9 * inst.jobs.total_value());
}

// Exact price on micro instances: pipeline value ≤ OPT_k (slot DP) ≤ OPT∞.
TEST(Integration, PipelineRespectsExactOptKOnMicroInstances) {
  Rng rng(221);
  for (int trial = 0; trial < 8; ++trial) {
    JobGenConfig config;
    config.n = 4;
    config.min_length = 1;
    config.max_length = 5;
    config.max_laxity = 3.0;
    config.horizon = 30;
    const JobSet jobs = random_jobs(config, rng);
    for (const std::size_t k : {0u, 1u, 2u}) {
      const auto opt_k = opt_k_slots(jobs, k, std::size_t{1} << 34);
      ASSERT_TRUE(opt_k);
      const ScheduleResult r = try_schedule_bounded(
          jobs, {.k = k, .seed = ScheduleOptions::Seed::kExact}).value();
      ASSERT_TRUE(validate(jobs, r.schedule, k));
      EXPECT_LE(r.value, *opt_k + 1e-9) << "k=" << k << " trial=" << trial;
      EXPECT_LE(*opt_k, opt_infinity(jobs, all_ids(jobs)).value + 1e-9);
    }
  }
}

// Appendix-B instances flow through the whole public API.
TEST(Integration, AppendixBThroughPublicApi) {
  const PobpLowerBoundInstance inst = pobp_lower_bound_instance(1, 2, 4);
  const ScheduleResult r = try_schedule_bounded(inst.jobs, {.k = 1}).value();
  ASSERT_TRUE(validate(inst.jobs, r.schedule, 1));
  EXPECT_LT(r.value, inst.opt_k_upper);
  EXPECT_GT(r.price(), 2.0);  // (L+1)/2 with L=4
}

// Multi-machine pipeline on replicated lower-bound instances.
TEST(Integration, ReplicatedLowerBoundAcrossMachines) {
  const PobpLowerBoundInstance inst = pobp_lower_bound_instance(1, 2, 3);
  const JobSet jobs = replicate(inst.jobs, 3);
  const ScheduleResult r =
      try_schedule_bounded(jobs, {.k = 1, .machine_count = 3}).value();
  ASSERT_TRUE(validate(jobs, r.schedule, 1));
  EXPECT_GT(r.value, 0.0);
  EXPECT_LT(r.value, 3.0 * inst.opt_k_upper);
}

}  // namespace
}  // namespace pobp
