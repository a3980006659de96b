// Tests for the EDF simulator and the interval feasibility condition, and
// the equivalence between them (the classic witness theorem the solvers
// rely on).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "pobp/gen/random_jobs.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/schedule/interval_condition.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

TEST(Edf, SchedulesSingleJob) {
  JobSet jobs;
  jobs.add({3, 10, 4, 1.0});
  const auto ms = edf_schedule(jobs, all_ids(jobs));
  ASSERT_TRUE(ms);
  EXPECT_TRUE(validate_machine(jobs, *ms));
  EXPECT_EQ(ms->find(0)->segments[0], (Segment{3, 7}));
}

TEST(Edf, PreemptsForEarlierDeadline) {
  JobSet jobs;
  jobs.add({0, 20, 10, 1.0});  // long, late deadline
  jobs.add({2, 5, 3, 1.0});    // short, urgent, released mid-run
  const auto ms = edf_schedule(jobs, all_ids(jobs));
  ASSERT_TRUE(ms);
  EXPECT_TRUE(validate_machine(jobs, *ms));
  const Assignment* a = ms->find(0);
  ASSERT_EQ(a->segments.size(), 2u);
  EXPECT_EQ(a->segments[0], (Segment{0, 2}));
  EXPECT_EQ(a->segments[1], (Segment{5, 13}));
  EXPECT_EQ(ms->find(1)->segments[0], (Segment{2, 5}));
}

TEST(Edf, IdlesUntilRelease) {
  JobSet jobs;
  jobs.add({0, 2, 2, 1.0});
  jobs.add({10, 12, 2, 1.0});
  const auto ms = edf_schedule(jobs, all_ids(jobs));
  ASSERT_TRUE(ms);
  EXPECT_EQ(ms->find(1)->segments[0], (Segment{10, 12}));
}

TEST(Edf, DetectsInfeasibility) {
  JobSet jobs;
  jobs.add({0, 4, 3, 1.0});
  jobs.add({0, 4, 3, 1.0});
  EXPECT_FALSE(edf_schedule(jobs, all_ids(jobs)));
}

TEST(Edf, EmptySubset) {
  JobSet jobs;
  jobs.add({0, 4, 3, 1.0});
  const std::vector<JobId> none;
  const auto ms = edf_schedule(jobs, none);
  ASSERT_TRUE(ms);
  EXPECT_TRUE(ms->empty());
}

TEST(Edf, NoPreemptionRecordedWhenContinuing) {
  // A release that does NOT preempt (later deadline) must not split the
  // running job's segment.
  JobSet jobs;
  jobs.add({0, 10, 6, 1.0});
  jobs.add({3, 20, 2, 1.0});
  const auto ms = edf_schedule(jobs, all_ids(jobs));
  ASSERT_TRUE(ms);
  EXPECT_EQ(ms->find(0)->segments.size(), 1u);
  EXPECT_EQ(ms->find(0)->segments[0], (Segment{0, 6}));
}

// Two jobs of length 2^62 released at 0: their completion times sum past
// INT64_MAX.  Every tick is an exact double, so the pair also arrives as a
// valid wire frame; a wrapped sum used to let the greedy accept both.
JobSet overflow_pair() {
  JobSet jobs;
  jobs.add({0, 9223372036854774784, 4611686018427387904, 1.0});
  jobs.add({0, 9223372036854774784, 4611686018427387904, 2.0});
  return jobs;
}

TEST(EdfOverflow, CompletionPastInt64MaxMissesEveryDeadline) {
  const JobSet jobs = overflow_pair();
  EdfScratch scratch;
  EXPECT_FALSE(edf_feasible(jobs, all_ids(jobs), scratch));
  MachineSchedule out;
  EXPECT_FALSE(edf_schedule_into(jobs, all_ids(jobs), scratch, out));
  EXPECT_FALSE(preemptive_feasible(jobs, all_ids(jobs)));
  for (const JobId id : all_ids(jobs)) {
    const std::vector<JobId> alone{id};
    EXPECT_TRUE(edf_feasible(jobs, alone, scratch));
    EXPECT_TRUE(preemptive_feasible(jobs, alone));
  }
}

TEST(EdfOverflow, GreedyKeepsOnlyTheValueTwoJob) {
  const JobSet jobs = overflow_pair();
  const MachineSchedule seed = greedy_infinity(jobs, all_ids(jobs));
  EXPECT_EQ(seed.job_count(), 1u);
  EXPECT_TRUE(seed.contains(1));
  EXPECT_TRUE(validate_machine(jobs, seed));
}

// The interval sweep's capacity d − r can exceed INT64_MAX when r < 0: a
// release near INT64_MIN and a deadline near INT64_MAX must still compare
// exactly (and agree with EDF).
TEST(IntervalCondition, CapacityWiderThanInt64StaysExact) {
  constexpr Time kMin = std::numeric_limits<Time>::min();
  constexpr Time kMax = std::numeric_limits<Time>::max();
  JobSet jobs;
  jobs.add({kMin, kMin + 10, 10, 1.0});
  jobs.add({0, kMax, kMax / 2, 1.0});
  jobs.add({1, kMax, kMax / 2, 1.0});
  EdfScratch scratch;
  EXPECT_TRUE(preemptive_feasible(jobs, all_ids(jobs)));
  EXPECT_TRUE(edf_feasible(jobs, all_ids(jobs), scratch));
  jobs.add({2, kMax, 2, 1.0});  // now one tick too many after 0
  EXPECT_FALSE(preemptive_feasible(jobs, all_ids(jobs)));
  EXPECT_FALSE(edf_feasible(jobs, all_ids(jobs), scratch));
}

TEST(IntervalCondition, SimpleFeasibleAndNot) {
  JobSet jobs;
  jobs.add({0, 4, 3, 1.0});
  jobs.add({0, 4, 3, 1.0});
  const std::vector<JobId> one{0};
  EXPECT_TRUE(preemptive_feasible(jobs, one));
  EXPECT_FALSE(preemptive_feasible(jobs, all_ids(jobs)));
}

TEST(IntervalCondition, DisjointWindowsAlwaysFit) {
  JobSet jobs;
  jobs.add({0, 4, 4, 1.0});
  jobs.add({4, 8, 4, 1.0});
  EXPECT_TRUE(preemptive_feasible(jobs, all_ids(jobs)));
}

TEST(FeasibilityOracle, AddPopStackDiscipline) {
  JobSet jobs;
  jobs.add({0, 4, 3, 1.0});
  jobs.add({0, 4, 3, 1.0});
  jobs.add({4, 8, 2, 1.0});
  FeasibilityOracle oracle(jobs);
  EXPECT_TRUE(oracle.try_add(0));
  EXPECT_FALSE(oracle.try_add(1));  // rejected, not committed
  EXPECT_EQ(oracle.size(), 1u);
  EXPECT_TRUE(oracle.try_add(2));
  oracle.pop();
  EXPECT_EQ(oracle.size(), 1u);
  EXPECT_TRUE(oracle.try_add(2));
}

// The witness theorem: EDF succeeds ⟺ the interval condition holds.
class EdfEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdfEquivalence, EdfSucceedsIffIntervalConditionHolds) {
  Rng rng(GetParam());
  JobGenConfig config;
  config.n = 12;
  config.min_length = 1;
  config.max_length = 64;
  config.min_laxity = 1.0;
  config.max_laxity = 3.0;
  config.horizon = 256;  // tight horizon: plenty of infeasible subsets
  const JobSet jobs = random_jobs(config, rng);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<JobId> subset;
    for (JobId id = 0; id < jobs.size(); ++id) {
      if (rng.bernoulli(0.5)) subset.push_back(id);
    }
    const bool edf_ok = edf_schedule(jobs, subset).has_value();
    const bool cond_ok = preemptive_feasible(jobs, subset);
    EXPECT_EQ(edf_ok, cond_ok) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// EDF output is always a feasible schedule of exactly the subset.
class EdfFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdfFeasibility, OutputValidatesAndCoversSubset) {
  Rng rng(GetParam());
  JobGenConfig config;
  config.n = 30;
  config.max_length = 128;
  config.max_laxity = 6.0;
  config.horizon = 1 << 13;
  const JobSet jobs = random_jobs(config, rng);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<JobId> subset;
    for (JobId id = 0; id < jobs.size(); ++id) {
      if (rng.bernoulli(0.3)) subset.push_back(id);
    }
    const auto ms = edf_schedule(jobs, subset);
    if (!ms) continue;
    const auto check = validate_machine(jobs, *ms);
    EXPECT_TRUE(check) << check.error;
    EXPECT_EQ(ms->job_count(), subset.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfFeasibility,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace pobp
