// Tests for the schedule-forest construction (§4.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/reduction/schedule_forest.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

TEST(ScheduleForest, SequentialJobsBecomeRoots) {
  JobSet jobs;
  jobs.add({0, 3, 3, 1.0});
  jobs.add({3, 7, 4, 2.0});
  MachineSchedule ms;
  ms.add({0, {{0, 3}}});
  ms.add({1, {{3, 7}}});
  const ScheduleForest sf = build_schedule_forest(jobs, ms);
  EXPECT_EQ(sf.size(), 2u);
  EXPECT_EQ(sf.forest.roots().size(), 2u);
}

TEST(ScheduleForest, NestedJobBecomesChild) {
  JobSet jobs;
  jobs.add({0, 10, 4, 1.0});
  jobs.add({2, 8, 6, 2.0});
  MachineSchedule ms;
  ms.add({0, {{0, 2}, {8, 10}}});
  ms.add({1, {{2, 8}}});
  const ScheduleForest sf = build_schedule_forest(jobs, ms);
  ASSERT_EQ(sf.size(), 2u);
  // Node 0 = job 0 (first segment first); node 1 = job 1, child of node 0.
  EXPECT_EQ(sf.node_job[0], 0u);
  EXPECT_EQ(sf.node_job[1], 1u);
  EXPECT_EQ(sf.forest.parent(1), 0u);
  EXPECT_DOUBLE_EQ(sf.forest.value(1), 2.0);
  EXPECT_EQ(sf.node_span[1], (Segment{2, 8}));
  EXPECT_EQ(sf.node_span[0], (Segment{0, 10}));
}

TEST(ScheduleForest, TwoChildrenInOneGapAreSiblings) {
  JobSet jobs;
  jobs.add({0, 10, 2, 1.0});
  jobs.add({0, 10, 4, 2.0});
  jobs.add({0, 10, 4, 3.0});
  MachineSchedule ms;
  ms.add({0, {{0, 1}, {9, 10}}});
  ms.add({1, {{1, 5}}});
  ms.add({2, {{5, 9}}});
  const ScheduleForest sf = build_schedule_forest(jobs, ms);
  EXPECT_EQ(sf.forest.degree(0), 2u);
  EXPECT_EQ(sf.forest.parent(1), 0u);
  EXPECT_EQ(sf.forest.parent(2), 0u);
}

TEST(ScheduleForest, DeepNestingChain) {
  JobSet jobs;
  jobs.add({0, 10, 2, 1.0});
  jobs.add({1, 9, 2, 1.0});
  jobs.add({2, 8, 2, 1.0});
  jobs.add({3, 7, 4, 1.0});
  MachineSchedule ms;
  ms.add({0, {{0, 1}, {9, 10}}});
  ms.add({1, {{1, 2}, {8, 9}}});
  ms.add({2, {{2, 3}, {7, 8}}});
  ms.add({3, {{3, 7}}});
  const ScheduleForest sf = build_schedule_forest(jobs, ms);
  EXPECT_EQ(sf.forest.parent(1), 0u);
  EXPECT_EQ(sf.forest.parent(2), 1u);
  EXPECT_EQ(sf.forest.parent(3), 2u);
  EXPECT_EQ(sf.forest.depth(3), 3u);
}

TEST(ScheduleForestDeath, RejectsNonLaminarInput) {
  JobSet jobs;
  jobs.add({0, 5, 2, 1.0});
  jobs.add({1, 8, 6, 1.0});
  MachineSchedule ms;
  ms.add({0, {{0, 1}, {4, 5}}});
  ms.add({1, {{1, 4}, {5, 8}}});
  EXPECT_DEATH(build_schedule_forest(jobs, ms), "laminar");
}

TEST(ScheduleForestDeath, RejectsIdleInsideSpan) {
  JobSet jobs;
  jobs.add({0, 10, 2, 1.0});
  MachineSchedule ms;
  ms.add({0, {{0, 1}, {5, 6}}});  // idle [1,5) while job 0 is open
  EXPECT_DEATH(build_schedule_forest(jobs, ms), "idles inside");
}

TEST(ScheduleForest, IdleBetweenRootsIsAllowed) {
  JobSet jobs;
  jobs.add({0, 3, 3, 1.0});
  jobs.add({10, 14, 4, 2.0});
  MachineSchedule ms;
  ms.add({0, {{0, 3}}});
  ms.add({1, {{10, 14}}});
  const ScheduleForest sf = build_schedule_forest(jobs, ms);
  EXPECT_EQ(sf.forest.roots().size(), 2u);
}

/// The forest builder before its radix timeline, kept as the oracle: a
/// comparator-sorted timeline of (segment, job) records and a per-node
/// lookup of the job's assignment.
struct ReferenceForest {
  std::vector<JobId> node_job;
  std::vector<NodeId> parent;
  std::vector<std::uint32_t> seg_offsets;
  std::vector<Segment> seg_data;
  std::vector<Segment> node_span;
};

ReferenceForest reference_forest(const JobSet& jobs,
                                 const MachineSchedule& ms) {
  struct Tagged {
    Segment segment;
    JobId job;
  };
  std::vector<Tagged> timeline;
  for (const Assignment& a : ms.assignments()) {
    for (const Segment& seg : a.segments) timeline.push_back({seg, a.job});
  }
  std::sort(timeline.begin(), timeline.end(),
            [](const Tagged& a, const Tagged& b) {
              return a.segment.begin < b.segment.begin;
            });
  std::vector<std::uint32_t> remaining(jobs.size(), 0);
  std::vector<NodeId> node_of(jobs.size(), kNoNode);
  for (const Tagged& t : timeline) ++remaining[t.job];
  ReferenceForest out;
  std::vector<NodeId> stack;
  for (const Tagged& t : timeline) {
    while (!stack.empty() && remaining[out.node_job[stack.back()]] == 0) {
      stack.pop_back();
    }
    if (node_of[t.job] == kNoNode) {
      node_of[t.job] = static_cast<NodeId>(out.node_job.size());
      out.parent.push_back(stack.empty() ? kNoNode : stack.back());
      out.node_job.push_back(t.job);
      stack.push_back(node_of[t.job]);
    }
    --remaining[t.job];
  }
  for (std::size_t v = 0; v < out.node_job.size(); ++v) {
    const Assignment* a = ms.find(out.node_job[v]);
    out.seg_offsets.push_back(static_cast<std::uint32_t>(out.seg_data.size()));
    out.seg_data.insert(out.seg_data.end(), a->segments.begin(),
                        a->segments.end());
    out.node_span.push_back({a->segments.front().begin,
                             a->segments.back().end});
  }
  out.seg_offsets.push_back(static_cast<std::uint32_t>(out.seg_data.size()));
  for (std::size_t v = out.node_job.size(); v-- > 0;) {
    const NodeId p = out.parent[v];
    if (p == kNoNode) continue;
    out.node_span[p].begin =
        std::min(out.node_span[p].begin, out.node_span[v].begin);
    out.node_span[p].end = std::max(out.node_span[p].end, out.node_span[v].end);
  }
  return out;
}

/// The instance with every time t mapped to offset + scale·t (lengths
/// scaled too) and its assignments added in a shuffled order, so that an
/// assignment's position is neither its job id nor its place in time.
LaminarInstance moved(const LaminarInstance& base, Time offset, Time scale,
                      Rng& rng) {
  const auto at = [&](Time t) { return offset + scale * t; };
  LaminarInstance out;
  for (const Job& j : base.jobs) {
    out.jobs.add({at(j.release), at(j.deadline), scale * j.length, j.value});
  }
  std::vector<Assignment> assignments(base.schedule.assignments().begin(),
                                      base.schedule.assignments().end());
  for (std::size_t i = assignments.size(); i > 1; --i) {
    std::swap(assignments[i - 1],
              assignments[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (Assignment& a : assignments) {
    for (Segment& seg : a.segments) seg = {at(seg.begin), at(seg.end)};
    out.schedule.add(a);
  }
  return out;
}

void expect_matches_reference(const LaminarInstance& inst,
                              ScheduleForest& sf,
                              ForestBuildScratch& scratch) {
  build_schedule_forest(inst.jobs, inst.schedule, sf, scratch);
  const ReferenceForest want = reference_forest(inst.jobs, inst.schedule);
  ASSERT_EQ(sf.size(), want.node_job.size());
  EXPECT_EQ(sf.node_job, want.node_job);
  std::vector<NodeId> parents;
  for (NodeId v = 0; v < sf.size(); ++v) {
    parents.push_back(sf.forest.parent(v));
    EXPECT_EQ(sf.forest.value(v), inst.jobs[want.node_job[v]].value);
  }
  EXPECT_EQ(parents, want.parent);
  EXPECT_EQ(sf.seg_offsets, want.seg_offsets);
  EXPECT_EQ(sf.seg_data, want.seg_data);
  EXPECT_EQ(sf.node_span, want.node_span);
}

TEST(ScheduleForest, MatchesTheComparatorBuilderOnEveryTimeAxis) {
  // Generated laminar schedules and greedy-seed EDF schedules, as
  // generated, with negative begins, next to INT64_MIN and INT64_MAX, and
  // stretched so that their begins span more than 2^32 ticks; one warm
  // scratch and forest build them all.
  constexpr Time kMin = std::numeric_limits<Time>::min();
  constexpr Time kMax = std::numeric_limits<Time>::max();
  constexpr Time kStretch = Time{1} << 24;
  Rng rng(6161);
  ScheduleForest sf;
  ForestBuildScratch scratch;
  for (int round = 0; round < 24; ++round) {
    LaminarInstance base;
    if (round % 2 == 0) {
      LaminarGenConfig config;
      config.target_jobs = static_cast<std::size_t>(rng.uniform_int(1, 200));
      base = random_laminar_instance(config, rng);
    } else {
      JobGenConfig config;
      config.n = static_cast<std::size_t>(rng.uniform_int(1, 300));
      config.max_length = 256;
      config.horizon = 1 << 12;
      base.jobs = random_jobs(config, rng);
      base.schedule = greedy_infinity(base.jobs, all_ids(base.jobs));
    }
    Time horizon = 0;
    for (const Job& j : base.jobs) horizon = std::max(horizon, j.deadline);
    ASSERT_LT(horizon, Time{1} << 30);
    for (const auto& [offset, scale] :
         std::vector<std::pair<Time, Time>>{
             {0, 1},
             {-horizon - 11, 1},
             {kMin + 5, 1},
             {kMax - horizon - 5, 1},
             {-(horizon / 2) * kStretch, kStretch},
             {kMin + 5, kStretch}}) {
      SCOPED_TRACE("round " + std::to_string(round) + ", offset " +
                   std::to_string(offset) + ", scale " +
                   std::to_string(scale));
      expect_matches_reference(moved(base, offset, scale, rng), sf, scratch);
      ASSERT_FALSE(HasFailure());
    }
  }
}

class ScheduleForestProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ScheduleForestProperty, GeneratorInstancesRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    LaminarGenConfig config;
    config.target_jobs = 150;
    const LaminarInstance inst = random_laminar_instance(config, rng);
    ASSERT_TRUE(is_laminar(inst.schedule));

    const ScheduleForest sf = build_schedule_forest(inst.jobs, inst.schedule);
    EXPECT_EQ(sf.size(), inst.jobs.size());

    // Forest value equals schedule value.
    EXPECT_NEAR(sf.forest.total_value(), inst.jobs.total_value(), 1e-6);

    // Parent-child relation is consistent with spans: child span inside the
    // parent's span.
    for (NodeId v = 0; v < sf.size(); ++v) {
      const NodeId p = sf.forest.parent(v);
      if (p == kNoNode) continue;
      EXPECT_TRUE(sf.node_span[p].contains(sf.node_span[v]))
          << "node " << v << " span not inside parent";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleForestProperty,
                         ::testing::Values(61, 62, 63, 64));

}  // namespace
}  // namespace pobp
