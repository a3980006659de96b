// Tests for the ground-truth solvers (B&B OPT∞, bitmask-DP OPT₀, the
// slot-DP OPT_k oracle, and the greedy heuristic).
#include <gtest/gtest.h>

#include <vector>

#include "pobp/gen/random_jobs.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/schedule/interval_condition.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

/// Exhaustive reference for OPT∞ (2^n subsets, interval-condition check).
Value brute_opt_infinity(const JobSet& jobs) {
  const std::size_t n = jobs.size();
  Value best = 0;
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<JobId> subset;
    Value value = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) {
        subset.push_back(static_cast<JobId>(i));
        value += jobs[static_cast<JobId>(i)].value;
      }
    }
    if (value > best && preemptive_feasible(jobs, subset)) best = value;
  }
  return best;
}

/// Exhaustive reference for OPT₀ (2^n subsets × n! orders, tiny n only).
Value brute_opt_zero(const JobSet& jobs) {
  const std::size_t n = jobs.size();
  std::vector<JobId> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<JobId>(i);
  std::sort(perm.begin(), perm.end());
  Value best = 0;
  do {
    // Greedy earliest placement along this order; every subset of a
    // feasible prefix-respecting placement is covered by some permutation.
    Time t = std::numeric_limits<Time>::min() / 4;
    Value value = 0;
    for (const JobId id : perm) {
      const Job& j = jobs[id];
      const Time done = std::max(t, j.release) + j.length;
      if (done <= j.deadline) {
        t = done;
        value += j.value;
      }
      // else: skip the job (equivalent to excluding it from the subset)
    }
    best = std::max(best, value);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(OptInfinity, EmptyAndSingle) {
  JobSet jobs;
  const std::vector<JobId> none;
  EXPECT_DOUBLE_EQ(opt_infinity(jobs, none).value, 0.0);
  jobs.add({0, 5, 3, 7.0});
  const SubsetSolution s = opt_infinity(jobs, all_ids(jobs));
  EXPECT_DOUBLE_EQ(s.value, 7.0);
  EXPECT_EQ(s.members.size(), 1u);
}

TEST(OptInfinity, PicksValuableConflictingJob) {
  JobSet jobs;
  jobs.add({0, 4, 4, 1.0});
  jobs.add({0, 4, 4, 9.0});
  const SubsetSolution s = opt_infinity(jobs, all_ids(jobs));
  EXPECT_DOUBLE_EQ(s.value, 9.0);
  ASSERT_EQ(s.members.size(), 1u);
  EXPECT_EQ(s.members[0], 1u);
}

TEST(OptInfinity, MembersAreAlwaysFeasible) {
  Rng rng(3);
  JobGenConfig config;
  config.n = 14;
  config.max_length = 64;
  config.horizon = 400;  // congested
  config.max_laxity = 3.0;
  const JobSet jobs = random_jobs(config, rng);
  const SubsetSolution s = opt_infinity(jobs, all_ids(jobs));
  EXPECT_TRUE(preemptive_feasible(jobs, s.members));
  EXPECT_TRUE(edf_schedule(jobs, s.members).has_value());
}

class OptInfinityVsBrute : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptInfinityVsBrute, MatchesExhaustiveEnumeration) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    JobGenConfig config;
    config.n = 10;
    config.min_length = 1;
    config.max_length = 32;
    config.max_laxity = 3.0;
    config.horizon = 200;
    const JobSet jobs = random_jobs(config, rng);
    EXPECT_DOUBLE_EQ(opt_infinity(jobs, all_ids(jobs)).value,
                     brute_opt_infinity(jobs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptInfinityVsBrute,
                         ::testing::Values(21, 22, 23, 24));

TEST(OptZero, SimpleCases) {
  JobSet jobs;
  jobs.add({0, 4, 4, 1.0});
  jobs.add({0, 8, 4, 2.0});
  const SubsetSolution s = opt_zero(jobs, all_ids(jobs));
  EXPECT_DOUBLE_EQ(s.value, 3.0);  // sequential: [0,4) then [4,8)
}

TEST(OptZero, RespectsReleases) {
  JobSet jobs;
  jobs.add({4, 8, 4, 1.0});
  jobs.add({1, 8, 4, 1.0});
  // Job 0 must occupy exactly [4,8); job 1 cannot finish before 5 nor start
  // after 4 — they collide, so only one fits.
  const SubsetSolution s = opt_zero(jobs, all_ids(jobs));
  EXPECT_DOUBLE_EQ(s.value, 1.0);
}

class OptZeroVsBrute : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptZeroVsBrute, MatchesPermutationEnumeration) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    JobGenConfig config;
    config.n = 7;
    config.min_length = 1;
    config.max_length = 16;
    config.max_laxity = 4.0;
    config.horizon = 100;
    const JobSet jobs = random_jobs(config, rng);
    EXPECT_DOUBLE_EQ(opt_zero(jobs, all_ids(jobs)).value,
                     brute_opt_zero(jobs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptZeroVsBrute,
                         ::testing::Values(31, 32, 33, 34));

TEST(OptKSlots, MatchesOptZeroAtKZero) {
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    JobGenConfig config;
    config.n = 4;
    config.min_length = 1;
    config.max_length = 4;
    config.max_laxity = 3.0;
    config.horizon = 24;
    const JobSet jobs = random_jobs(config, rng);
    const auto slots = opt_k_slots(jobs, 0);
    ASSERT_TRUE(slots.has_value());
    EXPECT_DOUBLE_EQ(*slots, opt_zero(jobs, all_ids(jobs)).value);
  }
}

TEST(OptKSlots, MatchesOptInfinityForLargeK) {
  Rng rng(6);
  for (int trial = 0; trial < 6; ++trial) {
    JobGenConfig config;
    config.n = 4;
    config.min_length = 1;
    config.max_length = 4;
    config.max_laxity = 3.0;
    config.horizon = 24;
    const JobSet jobs = random_jobs(config, rng);
    // k = 30 ≥ horizon: effectively unbounded preemption.  The default
    // state-space guard is a conservative product bound, so raise it — the
    // reachable set is far smaller.
    const auto slots = opt_k_slots(jobs, 30, std::size_t{1} << 34);
    ASSERT_TRUE(slots.has_value());
    EXPECT_DOUBLE_EQ(*slots, opt_infinity(jobs, all_ids(jobs)).value);
  }
}

TEST(OptKSlots, MonotoneInK) {
  Rng rng(7);
  JobGenConfig config;
  config.n = 4;
  config.min_length = 2;
  config.max_length = 5;
  config.max_laxity = 3.0;
  config.horizon = 30;
  const JobSet jobs = random_jobs(config, rng);
  Value previous = 0;
  for (const std::size_t k : {0u, 1u, 2u, 3u}) {
    const auto v = opt_k_slots(jobs, k, std::size_t{1} << 34);
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, previous);
    previous = *v;
  }
}

// The slot DP spans [earliest release, horizon), so its answer and its
// state space depend only on relative timing: shifting every tick, even
// below 0, changes neither.
TEST(OptKSlots, InvariantUnderTimeShift) {
  for (const Time shift : {Time{0}, Time{-1000000}, Time{1000000}}) {
    JobSet jobs;
    jobs.add({shift, shift + 4, 2, 1.0});
    jobs.add({shift, shift + 4, 2, 2.0});
    const auto v = opt_k_slots(jobs, 1, std::size_t{1} << 24);
    ASSERT_TRUE(v.has_value()) << "shift " << shift;
    EXPECT_DOUBLE_EQ(*v, 3.0) << "shift " << shift;
  }
}

TEST(OptKSlots, RefusesHugeStateSpaces) {
  JobSet jobs;
  for (int i = 0; i < 20; ++i) jobs.add({0, 1 << 20, 1 << 10, 1.0});
  EXPECT_FALSE(opt_k_slots(jobs, 1).has_value());
}

TEST(GreedyInfinity, FeasibleAndDominatedByExact) {
  Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    JobGenConfig config;
    config.n = 14;
    config.max_length = 32;
    config.horizon = 300;
    config.max_laxity = 3.0;
    const JobSet jobs = random_jobs(config, rng);
    const MachineSchedule greedy = greedy_infinity(jobs, all_ids(jobs));
    const auto check = validate_machine(jobs, greedy);
    EXPECT_TRUE(check) << check.error;
    EXPECT_LE(greedy.total_value(jobs),
              opt_infinity(jobs, all_ids(jobs)).value + 1e-9);
  }
}

TEST(GreedyInfinityMulti, NonMigrativeAndMonotone) {
  Rng rng(9);
  JobGenConfig config;
  config.n = 40;
  config.max_length = 64;
  config.horizon = 500;  // congested
  config.max_laxity = 2.5;
  const JobSet jobs = random_jobs(config, rng);
  Value previous = 0;
  for (const std::size_t m : {1u, 2u, 3u}) {
    const Schedule s = greedy_infinity_multi(jobs, all_ids(jobs), m);
    const auto check = validate(jobs, s);
    ASSERT_TRUE(check) << check.error;
    EXPECT_GE(s.total_value(jobs), previous * (1 - 1e-12));
    previous = s.total_value(jobs);
  }
}

// The multi-machine seed sorts its candidates once, and every machine pass
// reads the residual in that order.  The reference re-sorts the residual
// on each pass by running greedy_infinity on it.  Candidates arrive
// shuffled, and kProportional values give many equal densities, so the
// sort and its id tie-break both matter.
TEST(GreedyInfinityMulti, SortedOnceMatchesPerPassSortedReference) {
  Rng rng(10);
  const JobGenConfig::ValueMode modes[] = {
      JobGenConfig::ValueMode::kUniform, JobGenConfig::ValueMode::kProportional,
      JobGenConfig::ValueMode::kRandomDensity};
  for (int trial = 0; trial < 300; ++trial) {
    JobGenConfig config;
    config.n = static_cast<std::size_t>(20 + trial % 41);
    config.max_length = 64;
    config.max_laxity = 1.5 + trial % 6;
    config.horizon = 450 + 20 * (trial % 25);
    config.value_mode = modes[trial % 3];
    const JobSet jobs = random_jobs(config, rng);
    std::vector<JobId> ids = all_ids(jobs);
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
    }
    for (const std::size_t machines : {2u, 3u, 5u}) {
      const Schedule got = greedy_infinity_multi(jobs, ids, machines);
      std::vector<JobId> residual = ids;
      for (std::size_t m = 0; m < machines; ++m) {
        const MachineSchedule want = greedy_infinity(jobs, residual);
        const auto x = got.machine(m).assignments();
        const auto y = want.assignments();
        ASSERT_EQ(x.size(), y.size()) << "trial " << trial << " m " << m;
        for (std::size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(x[i].job, y[i].job) << "trial " << trial << " m " << m;
          ASSERT_EQ(x[i].segments, y[i].segments)
              << "trial " << trial << " m " << m;
        }
        std::erase_if(residual, [&](JobId id) { return want.contains(id); });
      }
    }
  }
}

}  // namespace
}  // namespace pobp
