// Tests for the EDF simulator and the interval feasibility condition, and
// the equivalence between them (the classic witness theorem the solvers
// rely on).  The simulator is also checked against its earlier loop, kept
// here as an oracle: same verdicts, and bit-identical segment lists and
// run logs, over families that cross the sorted ready set's cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
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
  MachineSchedule out;
  EXPECT_FALSE(edf_schedule_into(jobs, all_ids(jobs), scratch, out));
  EXPECT_FALSE(preemptive_feasible(jobs, all_ids(jobs)));
  for (const JobId id : all_ids(jobs)) {
    const std::vector<JobId> alone{id};
    EXPECT_TRUE(edf_schedule_into(jobs, alone, scratch, out));
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
  EXPECT_TRUE(preemptive_feasible(jobs, all_ids(jobs)));
  EXPECT_TRUE(edf_schedule(jobs, all_ids(jobs)));
  jobs.add({2, kMax, 2, 1.0});  // now one tick too many after 0
  EXPECT_FALSE(preemptive_feasible(jobs, all_ids(jobs)));
  EXPECT_FALSE(edf_schedule(jobs, all_ids(jobs)));
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

// ------------------------------------------- the earlier loop, frozen ----

constexpr Time kMaxTime = std::numeric_limits<Time>::max();

/// What the earlier loop did with one subset.
struct OracleRun {
  bool feasible = true;
  std::vector<std::pair<JobId, Segment>> runs;  ///< merged, in time order
  std::size_t peak_ready = 0;                   ///< most jobs ready at once
};

/// `ids` in (release, id) order.
std::vector<JobId> release_order(const JobSet& jobs, std::vector<JobId> ids) {
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return jobs[a].release != jobs[b].release
               ? jobs[a].release < jobs[b].release
               : a < b;
  });
  return ids;
}

/// The EDF loop before window-local columns: a comparator release sort, a
/// job-id-indexed remaining array and a (deadline, id) min-heap of pairs.
OracleRun oracle_edf(const JobSet& jobs, const std::vector<JobId>& ids) {
  const std::vector<JobId> subset = release_order(jobs, ids);
  std::vector<Duration> remaining(jobs.size(), 0);
  for (const JobId id : subset) remaining[id] = jobs[id].length;
  std::vector<std::pair<Time, JobId>> ready;
  OracleRun out;
  std::size_t next = 0;
  Time now = subset.empty() ? 0 : jobs[subset.front()].release;
  while (next < subset.size() || !ready.empty()) {
    while (next < subset.size() && jobs[subset[next]].release <= now) {
      const JobId id = subset[next++];
      ready.emplace_back(jobs[id].deadline, id);
      std::push_heap(ready.begin(), ready.end(), std::greater<>{});
    }
    out.peak_ready = std::max(out.peak_ready, ready.size());
    if (ready.empty()) {
      now = jobs[subset[next]].release;
      continue;
    }
    const JobId top = ready.front().second;
    __int128 until = static_cast<__int128>(now) + remaining[top];
    if (until > kMaxTime) {  // past every representable deadline
      out.feasible = false;
      return out;
    }
    if (next < subset.size()) {
      until = std::min<__int128>(until, jobs[subset[next]].release);
    }
    const Segment run{now, static_cast<Time>(until)};
    if (!out.runs.empty() && out.runs.back().first == top &&
        out.runs.back().second.end == now) {
      out.runs.back().second.end = run.end;
    } else {
      out.runs.emplace_back(top, run);
    }
    remaining[top] -= run.end - now;
    now = run.end;
    if (now > jobs[top].deadline) {
      out.feasible = false;
      return out;
    }
    if (remaining[top] == 0) {
      std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
      ready.pop_back();
    }
  }
  return out;
}

struct OracleCoverage {
  std::size_t subsets = 0;
  std::size_t feasible_past_cap = 0;    ///< feasible, crossed the cap
  std::size_t infeasible_past_cap = 0;  ///< infeasible, crossed it
};

/// edf_schedule_into on `subset`, as given and in (release, id) order (the
/// sort and the presorted path), against the oracle: the same verdict, the
/// same ready-set form, and on success the same run log and the same
/// per-job segment lists in release order.
void expect_matches_oracle(const JobSet& jobs,
                           const std::vector<JobId>& subset,
                           EdfScratch& scratch, OracleCoverage& coverage) {
  ++coverage.subsets;
  const OracleRun want = oracle_edf(jobs, subset);
  const bool heaped = want.peak_ready > kEdfSortedReadyCap;
  if (heaped) {
    ++(want.feasible ? coverage.feasible_past_cap
                     : coverage.infeasible_past_cap);
  }
  const std::vector<JobId> sorted = release_order(jobs, subset);
  for (const auto& ids : {subset, sorted}) {
    MachineSchedule got;
    ASSERT_EQ(edf_schedule_into(jobs, ids, scratch, got), want.feasible);
    ASSERT_EQ(scratch.ready_heaped, heaped);
    if (!want.feasible) {
      ASSERT_TRUE(got.empty());
      continue;
    }
    ASSERT_EQ(scratch.runs.size(), want.runs.size());
    for (std::size_t i = 0; i < want.runs.size(); ++i) {
      ASSERT_EQ(scratch.id[scratch.runs[i].slot], want.runs[i].first)
          << "run " << i;
      ASSERT_EQ(scratch.runs[i].segment, want.runs[i].second) << "run " << i;
    }
    ASSERT_EQ(got.job_count(), sorted.size());
    std::size_t slot = 0;
    for (const Assignment& a : got.assignments()) {
      ASSERT_EQ(a.job, sorted[slot++]);
      std::vector<Segment> segments;
      for (const auto& [job, segment] : want.runs) {
        if (job == a.job) segments.push_back(segment);
      }
      ASSERT_TRUE(std::ranges::equal(a.segments, segments)) << "job " << a.job;
    }
  }
}

/// `count` random subsets of instances drawn from `family`, each shuffled.
OracleCoverage run_oracle_family(const std::function<JobSet(Rng&)>& family,
                                 std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  EdfScratch scratch;
  OracleCoverage coverage;
  for (std::size_t i = 0; i < count; ++i) {
    const JobSet jobs = family(rng);
    std::vector<JobId> subset;
    const double keep = rng.uniform_real(0.3, 1.0);
    for (JobId id = 0; id < jobs.size(); ++id) {
      if (rng.bernoulli(keep)) subset.push_back(id);
    }
    for (std::size_t k = subset.size(); k > 1; --k) {
      std::swap(subset[k - 1],
                subset[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
    }
    expect_matches_oracle(jobs, subset, scratch, coverage);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "instance " << i << " of seed " << seed;
      break;
    }
  }
  return coverage;
}

TEST(EdfOracle, RandomSubsetsMatchTheEarlierLoop) {
  const OracleCoverage c = run_oracle_family(
      [](Rng& rng) {
        JobGenConfig config;
        config.n = static_cast<std::size_t>(rng.uniform_int(1, 200));
        config.max_length = Duration{1} << rng.uniform_int(0, 10);
        config.min_laxity = 1.0;
        config.max_laxity = 1.0 + rng.uniform_real(0.0, 8.0);
        config.horizon = std::max<Time>(
            Time{1} << rng.uniform_int(4, 16),
            static_cast<Time>(static_cast<double>(config.max_length) *
                              (config.max_laxity + 1)));
        const JobSet base = random_jobs(config, rng);
        const Time offset = rng.bernoulli(0.3) ? -rng.uniform_int(0, 1 << 20)
                                               : 0;
        JobSet jobs;
        for (const Job& j : base) {
          jobs.add({j.release + offset, j.deadline + offset, j.length,
                    j.value});
        }
        return jobs;
      },
      1717, 400);
  EXPECT_EQ(c.subsets, 400u);
  EXPECT_GT(c.feasible_past_cap + c.infeasible_past_cap, 0u);
}

TEST(EdfOracle, CrowdedReadySetsCrossTheSortedCap) {
  // 17–120 jobs released within 3 ticks, deadlines drawn from three values
  // and the ids shuffled against the releases: more than kEdfSortedReadyCap
  // jobs are ready at once, and runs of equal deadlines, ordered by id,
  // sit on both sides of the switch from the sorted array to the heap.
  // Work of about 3.5 ticks per job against deadlines of n, 2n or 3n
  // ticks makes the larger subsets infeasible and the smaller ones not.
  const OracleCoverage c = run_oracle_family(
      [](Rng& rng) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniform_int(17, 120));
        const Time unit = static_cast<Time>(n);
        JobSet jobs;
        for (std::size_t i = 0; i < n; ++i) {
          const Time r = rng.uniform_int(0, 2);
          const Duration p = rng.uniform_int(1, 6);
          const Time d = std::max<Time>(r + p, unit * rng.uniform_int(1, 3));
          jobs.add({r, d, p, 1.0});
        }
        return jobs;
      },
      1818, 300);
  EXPECT_GT(c.feasible_past_cap, 10u);
  EXPECT_GT(c.infeasible_past_cap, 10u);
}

TEST(EdfOracle, TicksNearTheInt64LimitsMatchTheEarlierLoop) {
  // Lengths of 2^55–2^60 released near 0 or near INT64_MIN: completions
  // run past INT64_MAX.
  const OracleCoverage c = run_oracle_family(
      [](Rng& rng) {
        JobSet jobs;
        const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 24));
        for (std::size_t i = 0; i < n; ++i) {
          const Duration p = rng.uniform_int(1, 4) << rng.uniform_int(55, 60);
          const Time r = rng.bernoulli(0.5)
                             ? rng.uniform_int(0, Time{1} << 60)
                             : std::numeric_limits<Time>::min() +
                                   rng.uniform_int(0, Time{1} << 60);
          const Time slack = kMaxTime - p - std::max<Time>(r, 0);
          jobs.add({r, r + p + rng.uniform_int(0, slack), p, 1.0});
        }
        return jobs;
      },
      1919, 300);
  EXPECT_EQ(c.subsets, 300u);
}

TEST(EdfDeath, DuplicateIdAborts) {
  JobSet jobs;
  jobs.add({0, 10, 1, 1.0});
  jobs.add({0, 10, 1, 1.0});
  EdfScratch scratch;
  MachineSchedule out;
  // Out of order (the sort path) and in (release, id) order otherwise.
  for (const std::vector<JobId>& twice :
       {std::vector<JobId>{1, 0, 1}, std::vector<JobId>{0, 1, 1}}) {
    EXPECT_DEATH((void)edf_schedule_into(jobs, twice, scratch, out),
                 "duplicate job id");
  }
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
