// Tests for LSA / LSA_CS (Algorithm 2, Lemma 4.10–4.12, §5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "pobp/gen/random_jobs.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/schedule/metrics.hpp"
#include "pobp/schedule/timeline.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

TEST(LengthClass, FactorKPlusOneClasses) {
  EXPECT_EQ(length_class(1, 2), 0u);
  EXPECT_EQ(length_class(2, 2), 1u);
  EXPECT_EQ(length_class(3, 2), 1u);
  EXPECT_EQ(length_class(4, 2), 2u);
  EXPECT_EQ(length_class(9, 3), 2u);
  EXPECT_EQ(length_class(8, 3), 1u);
}

TEST(Lsa, SchedulesEverythingWhenRoomIsAmple) {
  JobSet jobs;
  jobs.add({0, 100, 5, 1.0});
  jobs.add({0, 100, 5, 2.0});
  jobs.add({0, 100, 5, 3.0});
  const LsaResult r = lsa(jobs, all_ids(jobs), 1);
  EXPECT_EQ(r.scheduled.size(), 3u);
  EXPECT_TRUE(r.rejected.empty());
  EXPECT_TRUE(validate_machine(jobs, r.schedule, 1));
}

TEST(Lsa, DensityOrderWins) {
  // Two jobs competing for the same tight window: the denser one is placed.
  JobSet jobs;
  jobs.add({0, 4, 4, 4.0});   // density 1
  jobs.add({0, 4, 4, 8.0});   // density 2
  const LsaResult r = lsa(jobs, all_ids(jobs), 1);
  ASSERT_EQ(r.scheduled.size(), 1u);
  EXPECT_EQ(r.scheduled[0], 1u);
  EXPECT_EQ(r.rejected[0], 0u);
}

TEST(Lsa, DensityOrderIsExactWhereRoundedProductsTie) {
  // The triple of DensityOrder.RoundedProductCycleIsOrdered: its rounded
  // cross-products cycle (a before b before c before a), so a comparator on
  // them breaks std::sort's precondition.  Exactly, b is the densest, then
  // c, then a.  With room for all three, LSA places each leftmost in its
  // consideration order, so the start times show that order.
  JobSet jobs;
  const JobId a = jobs.add({0, 10'000, 764, 1148.9508510505807});
  const JobId b = jobs.add({0, 10'000, 169, 254.15274061197402});
  const JobId c = jobs.add({0, 10'000, 876, 1317.3834365449068});
  const LsaResult r = lsa(jobs, all_ids(jobs), 1);
  EXPECT_EQ(r.scheduled, (std::vector<JobId>{b, c, a}));
  ASSERT_TRUE(r.schedule.find(a) && r.schedule.find(b) && r.schedule.find(c));
  EXPECT_EQ(r.schedule.find(b)->segments.front().begin, 0);
  EXPECT_EQ(r.schedule.find(c)->segments.front().begin, 169);
  EXPECT_EQ(r.schedule.find(a)->segments.front().begin, 169 + 876);
}

TEST(Lsa, UsesUpToKPlusOneSegments) {
  // Window [0,12) with two 2-tick obstacles; a 6-tick job needs 3 idle
  // segments — allowed for k = 2, impossible for k = 1 given the obstacles.
  JobSet jobs;
  jobs.add({2, 4, 2, 100.0});   // obstacle 1 (denser: placed first)
  jobs.add({6, 8, 2, 100.0});   // obstacle 2
  jobs.add({0, 10, 6, 6.0});    // the split job
  const LsaResult r2 = lsa(jobs, all_ids(jobs), 2);
  EXPECT_EQ(r2.scheduled.size(), 3u);
  EXPECT_TRUE(validate_machine(jobs, r2.schedule, 2));
  const Assignment* a = r2.schedule.find(2);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->segments.size(), 3u);  // [0,2) [4,6) [8,10)

  const LsaResult r1 = lsa(jobs, all_ids(jobs), 1);
  EXPECT_EQ(r1.scheduled.size(), 2u);  // the split job no longer fits
}

TEST(Lsa, LeftmostPlacement) {
  JobSet jobs;
  jobs.add({0, 100, 4, 1.0});
  const LsaResult r = lsa(jobs, all_ids(jobs), 3);
  EXPECT_EQ(r.schedule.find(0)->segments[0], (Segment{0, 4}));
}

TEST(Lsa, KZeroIsEnBloc) {
  JobSet jobs;
  jobs.add({2, 4, 2, 100.0});  // obstacle
  jobs.add({0, 7, 4, 4.0});    // must fit en bloc → only [4,...] has... no
  const LsaResult r = lsa(jobs, all_ids(jobs), 0);
  // Idle segments in [0,7): [0,2) and [4,7); the 4-tick job fits nowhere
  // as one block except... [4,7) is 3 ticks, [0,2) is 2 — rejected.
  EXPECT_EQ(r.scheduled.size(), 1u);
  EXPECT_EQ(r.rejected.size(), 1u);
  EXPECT_EQ(r.rejected[0], 1u);
}

TEST(Lsa, SwapShortestForNextFindsLaterFit) {
  // The leftmost k+1 idle segments do not fit, but swapping the shortest
  // for the next one does (the inner repeat-loop of Alg. 2).
  JobSet jobs;
  jobs.add({1, 3, 2, 100.0});    // obstacle splitting [0,1) | [3,...)
  jobs.add({0, 20, 10, 10.0});   // k=1: {[0,1),[3,20)} → reject [0,1)? sum=18 fits!
  const LsaResult r = lsa(jobs, all_ids(jobs), 1);
  EXPECT_EQ(r.scheduled.size(), 2u);
  const Assignment* a = r.schedule.find(1);
  ASSERT_NE(a, nullptr);
  // Leftmost placement: [0,1) then 9 more ticks from [3,20).
  EXPECT_EQ(a->segments[0], (Segment{0, 1}));
  EXPECT_EQ(a->segments[1], (Segment{3, 12}));
}

TEST(LsaCs, ReturnsBestClassOnly) {
  // Two length classes for k=1 (base 2): lengths 1 vs 8.  Both classes fit
  // alone; the valuable class must win.
  JobSet jobs;
  jobs.add({0, 4, 1, 1.0});
  jobs.add({0, 64, 8, 50.0});
  const LsaResult r = lsa_cs(jobs, all_ids(jobs), 1);
  EXPECT_EQ(r.scheduled.size(), 1u);
  EXPECT_EQ(r.scheduled[0], 1u);
  // The loser class lands in `rejected`.
  ASSERT_EQ(r.rejected.size(), 1u);
  EXPECT_EQ(r.rejected[0], 0u);
}

TEST(LsaCs, EmptyInput) {
  JobSet jobs;
  jobs.add({0, 4, 1, 1.0});
  const std::vector<JobId> none;
  const LsaResult r = lsa_cs(jobs, none, 1);
  EXPECT_TRUE(r.schedule.empty());
}

// Lemma 4.11: every maximal busy run in an LSA schedule is at least as long
// as the shortest job in the class.
class LsaBusyRuns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LsaBusyRuns, BusyRunsAtLeastShortestJob) {
  Rng rng(GetParam());
  JobGenConfig config;
  config.n = 60;
  config.min_length = 4;
  config.max_length = 7;  // one length class for k = 1 (base 2: [4,8))
  config.min_laxity = 2.0;
  config.max_laxity = 6.0;
  config.horizon = 300;  // congested
  const JobSet jobs = random_jobs(config, rng);
  const LsaResult r = lsa(jobs, all_ids(jobs), 1);
  ASSERT_FALSE(r.scheduled.empty());

  IdleTimeline timeline;
  for (const auto& a : r.schedule.assignments()) {
    for (const Segment& s : a.segments) timeline.occupy(s);
  }
  const Duration shortest = jobs.min_length();
  for (const Segment& run :
       timeline.busy_in({0, jobs.horizon() + 1})) {
    EXPECT_GE(run.length(), shortest);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsaBusyRuns,
                         ::testing::Values(5, 6, 7, 8, 9));

// Feasibility sweep: LSA output always validates with bound k.
class LsaFeasibility
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(LsaFeasibility, OutputAlwaysValidates) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    JobGenConfig config;
    config.n = 80;
    config.min_length = 1;
    config.max_length = 512;
    config.min_laxity = static_cast<double>(k + 1);  // lax population
    config.max_laxity = static_cast<double>(4 * (k + 1));
    config.horizon = 1 << 14;
    config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
    const JobSet jobs = random_jobs(config, rng);

    const LsaResult plain = lsa(jobs, all_ids(jobs), k);
    const auto c1 = validate_machine(jobs, plain.schedule, k);
    EXPECT_TRUE(c1) << c1.error;
    EXPECT_EQ(plain.scheduled.size() + plain.rejected.size(), jobs.size());

    const LsaResult cs = lsa_cs(jobs, all_ids(jobs), k);
    const auto c2 = validate_machine(jobs, cs.schedule, k);
    EXPECT_TRUE(c2) << c2.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, LsaFeasibility,
    ::testing::Combine(::testing::Values(31u, 32u, 33u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{5})));

// Lemma 4.10: on lax jobs, LSA_CS ≥ OPT∞ / (6·log_{k+1} P) — checked
// against the exact B&B optimum on small congested instances.
class Lemma410
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(Lemma410, LsaCsWithinBoundOfExactOptimum) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    JobGenConfig config;
    config.n = 16;
    config.min_length = 1;
    config.max_length = 64;
    config.min_laxity = static_cast<double>(k + 1);
    config.max_laxity = static_cast<double>(3 * (k + 1));
    config.horizon = 600;  // congested enough that OPT rejects jobs
    config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
    const JobSet jobs = random_jobs(config, rng);

    const SubsetSolution opt = opt_infinity(jobs, all_ids(jobs));
    const LsaResult r = lsa_cs(jobs, all_ids(jobs), k);
    const Value got = r.schedule.total_value(jobs);

    const double bound = 6.0 * log_k1(k, jobs.length_ratio_P().to_double());
    EXPECT_GE(got * bound, opt.value * (1 - 1e-9))
        << "k=" << k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, Lemma410,
    ::testing::Combine(::testing::Values(11u, 12u, 13u),
                       ::testing::Values(std::size_t{1}, std::size_t{2})));

// The §1.4 variants: value ordering and value/density classification.
TEST(LsaVariants, ValueOrderConsidersValuableJobsFirst) {
  JobSet jobs;
  jobs.add({0, 4, 4, 8.0});    // value 8, density 2
  jobs.add({0, 4, 1, 6.0});    // value 6, density 6
  // Same tight window: density order picks job 1 (and can still fit... it
  // cannot fit both), value order picks job 0.
  const LsaResult by_density = lsa(jobs, all_ids(jobs), 1);
  const LsaResult by_value = lsa(jobs, all_ids(jobs), 1, LsaOrder::kValue);
  ASSERT_EQ(by_density.scheduled.size(), 1u);
  EXPECT_EQ(by_density.scheduled[0], 1u);
  ASSERT_GE(by_value.scheduled.size(), 1u);
  EXPECT_EQ(by_value.scheduled[0], 0u);
}

TEST(LsaVariants, ValueClassesGroupByFactorTwo) {
  // Values 1 and 1000 are in different classes; only one class is returned.
  JobSet jobs;
  jobs.add({0, 8, 4, 1.0});
  jobs.add({0, 8, 4, 1.5});     // same class as job 0 (ratio < 2)
  jobs.add({8, 16, 4, 1000.0});
  const LsaResult r = lsa_cs(jobs, all_ids(jobs), 1, ClassifyBy::kValue);
  EXPECT_TRUE(r.schedule.contains(2));
  // Jobs 0/1 are in the losing class even though they'd fit alongside.
  EXPECT_FALSE(r.schedule.contains(0));
}

TEST(LsaVariants, DensityClassesGroupByFactorTwo) {
  JobSet jobs;
  jobs.add({0, 8, 4, 4.0});      // density 1
  jobs.add({8, 16, 4, 4000.0});  // density 1000
  const LsaResult r = lsa_cs(jobs, all_ids(jobs), 1, ClassifyBy::kDensity);
  EXPECT_EQ(r.schedule.job_count(), 1u);
  EXPECT_TRUE(r.schedule.contains(1));
}

class LsaVariantsFeasibility
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(LsaVariantsFeasibility, AllVariantsValidate) {
  const auto [seed, variant] = GetParam();
  Rng rng(seed);
  JobGenConfig config;
  config.n = 120;
  config.min_length = 1;
  config.max_length = 256;
  config.min_laxity = 2.0;
  config.max_laxity = 8.0;
  config.horizon = 1 << 13;
  config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
  const JobSet jobs = random_jobs(config, rng);
  for (const std::size_t k : {0u, 1u, 3u}) {
    const ClassifyBy by = variant == 0   ? ClassifyBy::kLength
                          : variant == 1 ? ClassifyBy::kValue
                                         : ClassifyBy::kDensity;
    const LsaOrder order =
        variant == 3 ? LsaOrder::kValue : LsaOrder::kDensity;
    const LsaResult r = lsa_cs(jobs, all_ids(jobs), k, by, order);
    const auto check = validate_machine(jobs, r.schedule, k);
    EXPECT_TRUE(check) << check.error;
    EXPECT_EQ(r.schedule.job_count() + r.rejected.size(), jobs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndVariant, LsaVariantsFeasibility,
    ::testing::Combine(::testing::Values(51u, 52u, 53u),
                       ::testing::Values(0, 1, 2, 3)));

// Multi-machine LSA_CS: feasible, non-migrative, value non-decreasing in m.
TEST(LsaCsMulti, MoreMachinesNeverHurt) {
  Rng rng(77);
  JobGenConfig config;
  config.n = 60;
  config.max_length = 128;
  config.min_laxity = 2.0;
  config.max_laxity = 8.0;
  config.horizon = 2000;  // heavy congestion
  const JobSet jobs = random_jobs(config, rng);

  Value previous = 0;
  for (const std::size_t m : {1u, 2u, 4u, 8u}) {
    const Schedule s = lsa_cs_multi(jobs, all_ids(jobs), 1, m);
    const auto check = validate(jobs, s, 1);
    ASSERT_TRUE(check) << check.error;
    const Value v = s.total_value(jobs);
    EXPECT_GE(v, previous * (1 - 1e-12));
    previous = v;
  }
}


// ---- lsa_classify against a stable sort -----------------------------------

using Grouping = std::vector<std::pair<std::size_t, JobId>>;

/// What lsa_classify must produce: the (class, id) pairs of `candidates`,
/// stable-sorted by class.
template <typename ClassOf>
Grouping stable_grouping(const std::vector<JobId>& candidates,
                         ClassOf&& class_of) {
  Grouping out;
  for (const JobId id : candidates) out.emplace_back(class_of(id), id);
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

std::size_t distinct_classes(const Grouping& grouped) {
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < grouped.size(); ++i) {
    if (i == 0 || grouped[i].first != grouped[i - 1].first) ++distinct;
  }
  return distinct;
}

/// Ids 0..m-1 in a shuffled order, so a grouping that lost the candidates'
/// order within a class shows.
std::vector<JobId> shuffled_ids(std::size_t m, Rng& rng) {
  std::vector<JobId> ids(m);
  for (std::size_t i = 0; i < m; ++i) ids[i] = static_cast<JobId>(i);
  std::shuffle(ids.begin(), ids.end(), rng);
  return ids;
}

constexpr std::size_t kClassifySizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4093};

// Lengths at base^c − 1, base^c and base^c + 1 for every power of the class
// base up to INT64_MAX, and INT64_MAX itself: both sides of every class
// boundary.  m 0–9 and 4093 cover every remainder of a short table count.
TEST(LsaClassify, LengthClassesMatchAStableSortByLengthClass) {
  constexpr Duration kMax = std::numeric_limits<Duration>::max();
  Rng rng(2401);
  LsaScratch scratch;
  for (std::size_t k = 0; k <= 3; ++k) {
    const std::size_t base = std::max<std::size_t>(k + 1, 2);
    const auto b = static_cast<Duration>(base);
    std::vector<Duration> lengths{1, kMax - 1, kMax};
    for (Duration p = b;; p *= b) {
      lengths.insert(lengths.end(), {p - 1, p, p + 1});
      if (p > kMax / b) break;  // the next power exceeds INT64_MAX
    }
    for (const std::size_t m : kClassifySizes) {
      JobSet jobs;
      for (std::size_t i = 0; i < m; ++i) {
        const Duration len =
            m >= lengths.size()
                ? lengths[i % lengths.size()]
                : lengths[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(lengths.size()) - 1))];
        jobs.add({0, kMax, len, 1.0});
      }
      const std::vector<JobId> ids = shuffled_ids(m, rng);
      const Grouping expected = stable_grouping(
          ids, [&](JobId id) { return length_class(jobs[id].length, base); });
      EXPECT_EQ(lsa_classify(jobs, ids, k, ClassifyBy::kLength, scratch),
                distinct_classes(expected))
          << "k=" << k << " m=" << m;
      EXPECT_EQ(scratch.classes, expected) << "k=" << k << " m=" << m;
    }
  }
}

// Values from the smallest subnormal to DBL_MAX: every power of two with
// its neighbours on both sides, so every factor-2 class boundary, the
// clamp to class 0 below 2^-99 and the subnormal range are crossed.  The
// ratio-2 class of x is max(0, ilogb(x) − ilogb(1e-30)), ilogb(1e-30) =
// −100.
TEST(LsaClassify, ValueAndDensityClassesMatchAStableSortByRatio2Class) {
  const auto ratio2_class = [](double x) {
    return static_cast<std::size_t>(std::max(0, std::ilogb(x) + 100));
  };
  constexpr double kMaxValue = std::numeric_limits<double>::max();
  std::vector<double> values{std::numeric_limits<double>::denorm_min(),
                             kMaxValue};
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double x : {std::nextafter(p, 0.0), p,
                           std::nextafter(p, kMaxValue)}) {
      if (x > 0) values.push_back(x);
    }
  }
  Rng rng(2402);
  LsaScratch scratch;
  for (const ClassifyBy by : {ClassifyBy::kValue, ClassifyBy::kDensity}) {
    std::vector<std::size_t> sizes(std::begin(kClassifySizes),
                                   std::end(kClassifySizes));
    sizes.push_back(values.size());  // every value once
    for (const std::size_t m : sizes) {
      JobSet jobs;
      for (std::size_t i = 0; i < m; ++i) {
        const double value =
            m == values.size()
                ? values[i]
                : values[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(values.size()) - 1))];
        // Lengths above 1 only where the density stays positive.
        const Duration length =
            value >= std::numeric_limits<double>::min()
                ? rng.uniform_int(1, 1000)
                : 1;
        jobs.add({0, 1000, length, value});
      }
      const std::vector<JobId> ids = shuffled_ids(m, rng);
      const Grouping expected = stable_grouping(ids, [&](JobId id) {
        const Job job = jobs[id];
        return ratio2_class(by == ClassifyBy::kValue ? job.value
                                                     : job.density());
      });
      const char* name = by == ClassifyBy::kValue ? "value" : "density";
      EXPECT_EQ(lsa_classify(jobs, ids, 0, by, scratch),
                distinct_classes(expected))
          << name << " m=" << m;
      EXPECT_EQ(scratch.classes, expected) << name << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace pobp
