// Unit tests for the job model and instance metrics (§2.1, Def. 4.4, §1.3).
#include <gtest/gtest.h>

#include "pobp/schedule/job.hpp"
#include "pobp/schedule/metrics.hpp"

namespace pobp {
namespace {

TEST(Job, WindowLaxityDensity) {
  const Job j{10, 30, 5, 15.0};
  EXPECT_EQ(j.window(), 20);
  EXPECT_EQ(j.laxity(), Rational(4));
  EXPECT_DOUBLE_EQ(j.density(), 3.0);
}

TEST(Job, LaxityIsExactRational) {
  const Job j{0, 7, 3, 1.0};
  EXPECT_EQ(j.laxity(), Rational(7, 3));
}

TEST(Job, WellFormed) {
  EXPECT_TRUE((Job{0, 5, 5, 1.0}).well_formed());   // tight is fine
  EXPECT_FALSE((Job{0, 4, 5, 1.0}).well_formed());  // window < length
  EXPECT_FALSE((Job{0, 5, 0, 1.0}).well_formed());  // zero length
  EXPECT_FALSE((Job{0, 5, 2, 0.0}).well_formed());  // zero value
}

TEST(JobSet, AddAndAccess) {
  JobSet jobs;
  const JobId a = jobs.add({0, 10, 2, 3.0});
  const JobId b = jobs.add({5, 9, 1, 4.0});
  EXPECT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[a].length, 2);
  EXPECT_EQ(jobs[b].value, 4.0);
}

TEST(JobSet, MalformedJobThrowsInternalError) {
  // Untrusted input can reach add(); it must be containable (thrown, not
  // aborted) so the serving layer can reject the instance and continue.
  JobSet jobs;
  EXPECT_THROW(jobs.add({0, 1, 5, 1.0}), InternalError);
}

TEST(JobSet, Aggregates) {
  JobSet jobs;
  jobs.add({0, 10, 2, 3.0});
  jobs.add({5, 40, 8, 4.0});
  jobs.add({1, 9, 4, 5.0});
  EXPECT_DOUBLE_EQ(jobs.total_value(), 12.0);
  EXPECT_EQ(jobs.total_length(), 14);
  EXPECT_EQ(jobs.min_length(), 2);
  EXPECT_EQ(jobs.max_length(), 8);
  EXPECT_EQ(jobs.length_ratio_P(), Rational(4));
  EXPECT_EQ(jobs.horizon(), 40);
  EXPECT_EQ(jobs.earliest_release(), 0);
  EXPECT_EQ(jobs.max_laxity(), Rational(5));  // job 0: 10/2
}

// Negative ticks are valid (well_formed and the wire accept them), so the
// horizon is the latest deadline even when every deadline is below 0.
TEST(JobSet, HorizonIsTheLatestDeadlineWhenAllAreNegative) {
  JobSet jobs;
  EXPECT_EQ(jobs.horizon(), 0);  // empty set
  jobs.add({-10, -5, 2, 1.0});
  EXPECT_EQ(jobs.horizon(), -5);
  jobs.add({-1000000, -999996, 2, 2.0});
  EXPECT_EQ(jobs.horizon(), -5);
}

TEST(JobSet, ValueOfSubset) {
  JobSet jobs;
  jobs.add({0, 10, 2, 3.0});
  jobs.add({0, 10, 2, 4.0});
  jobs.add({0, 10, 2, 5.0});
  const std::vector<JobId> subset{0, 2};
  EXPECT_DOUBLE_EQ(jobs.value_of(subset), 8.0);
}

TEST(JobSet, AllIds) {
  JobSet jobs;
  jobs.add({0, 10, 2, 3.0});
  jobs.add({0, 10, 2, 4.0});
  const auto ids = all_ids(jobs);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[1], 1u);
}

TEST(Metrics, LogBase) {
  EXPECT_DOUBLE_EQ(log_base(2.0, 8.0), 3.0);
  EXPECT_DOUBLE_EQ(log_k1(1, 8.0), 3.0);
  EXPECT_DOUBLE_EQ(log_k1(3, 16.0), 2.0);
  // Floored at 1 so it can serve as a bound denominator.
  EXPECT_DOUBLE_EQ(log_k1(7, 2.0), 1.0);
}

TEST(Metrics, ComputeMetrics) {
  JobSet jobs;
  jobs.add({0, 10, 2, 4.0});   // density 2, laxity 5
  jobs.add({0, 16, 8, 4.0});   // density 0.5, laxity 2
  const InstanceMetrics m = compute_metrics(jobs);
  EXPECT_EQ(m.n, 2u);
  EXPECT_DOUBLE_EQ(m.P, 4.0);
  EXPECT_DOUBLE_EQ(m.rho, 1.0);
  EXPECT_DOUBLE_EQ(m.sigma, 4.0);
  EXPECT_DOUBLE_EQ(m.lambda_max, 5.0);
  EXPECT_DOUBLE_EQ(m.total_value, 8.0);
  EXPECT_FALSE(m.to_string().empty());
}

TEST(Metrics, EmptySet) {
  const InstanceMetrics m = compute_metrics(JobSet{});
  EXPECT_EQ(m.n, 0u);
  EXPECT_DOUBLE_EQ(m.total_value, 0.0);
}

}  // namespace
}  // namespace pobp
