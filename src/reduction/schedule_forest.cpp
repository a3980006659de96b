#include "pobp/reduction/schedule_forest.hpp"

#include <algorithm>
#include <limits>

#include "pobp/util/assert.hpp"

namespace pobp {

void build_schedule_forest(const JobSet& jobs, const MachineSchedule& ms,
                           ScheduleForest& out, ForestBuildScratch& scratch) {
  out.clear();
  const std::span<const Assignment> assignments = ms.assignments();
  const std::size_t m = assignments.size();
  POBP_ASSERT(m <= std::numeric_limits<std::uint32_t>::max());

  // The segment timeline, sorted by begin: each entry carries its
  // assignment's position, and an assignment's segments are normalized —
  // sorted and disjoint — so the stable sort meets them in their own
  // order, and the i-th entry of a position is its i-th segment.
  Time earliest = std::numeric_limits<Time>::max();
  std::size_t seg_total = 0;
  for (const Assignment& a : assignments) {
    earliest = std::min(earliest, a.segments.front().begin);
    seg_total += a.segments.size();
  }
  auto& timeline = scratch.timeline.entries;
  timeline.resize(seg_total);
  scratch.remaining.resize(m);
  std::size_t fill = 0;
  for (std::uint32_t pos = 0; pos < m; ++pos) {
    const auto& segments = assignments[pos].segments;
    scratch.remaining[pos] = static_cast<std::uint32_t>(segments.size());
    for (const Segment& s : segments) {
      timeline[fill++] = {.key = radix_offset(s.begin, earliest),
                          .payload = pos};
    }
  }
  scratch.timeline.sort();

  scratch.node_of.assign(m, kNoNode);
  auto& stack = scratch.stack;  // open assignments, outermost first
  stack.clear();

  // Every assignment becomes one node, its CSR segments and span written
  // where it first appears.
  out.seg_offsets.resize(m + 1);
  out.seg_data.resize(seg_total);
  out.node_span.resize(m);
  std::uint32_t offset = 0;
  Time prev_end = kNoTime;
  for (const RadixEntry& entry : timeline) {
    const std::uint32_t pos = entry.payload;
    const Assignment& a = assignments[pos];
    const Segment& seg =
        a.segments[a.segments.size() - scratch.remaining[pos]];
    POBP_DASSERT(radix_offset(seg.begin, earliest) == entry.key);
    // Close finished jobs.
    while (!stack.empty() && scratch.remaining[stack.back()] == 0) {
      stack.pop_back();
    }
    // Non-idling-inside-spans precondition: if some job is still open, the
    // machine must not have been idle since the previous segment.
    if (!stack.empty() && prev_end != kNoTime) {
      POBP_ASSERT_MSG(seg.begin == prev_end,
                      "schedule idles inside an open job's span; laminarize() "
                      "(EDF) input required");
    }

    if (scratch.node_of[pos] == kNoNode) {
      // First segment of this job: its parent is the innermost open job.
      const NodeId parent =
          stack.empty() ? kNoNode : scratch.node_of[stack.back()];
      const NodeId node = out.forest.add(jobs[a.job].value, parent);
      POBP_ASSERT(node == out.node_job.size());
      out.node_job.push_back(a.job);
      scratch.node_of[pos] = node;
      stack.push_back(pos);
      out.seg_offsets[node] = offset;
      for (const Segment& s : a.segments) out.seg_data[offset++] = s;
      out.node_span[node] = {a.segments.front().begin, a.segments.back().end};
    } else {
      // A resumed job must be the innermost open one — laminarity.
      POBP_ASSERT_MSG(!stack.empty() && stack.back() == pos,
                      "schedule is not laminar; run laminarize() first");
    }
    --scratch.remaining[pos];
    prev_end = seg.end;
  }
  out.forest.finalize();
  out.seg_offsets[m] = offset;
  POBP_DASSERT(offset == seg_total);

  // Children precede nothing: ids are parents-first, so a reverse scan
  // accumulates subtree spans bottom-up.
  for (std::size_t i = m; i-- > 0;) {
    const NodeId v = static_cast<NodeId>(i);
    const NodeId p = out.forest.parent(v);
    if (p != kNoNode) {
      out.node_span[p].begin =
          std::min(out.node_span[p].begin, out.node_span[v].begin);
      out.node_span[p].end =
          std::max(out.node_span[p].end, out.node_span[v].end);
    }
  }
}

ScheduleForest build_schedule_forest(const JobSet& jobs,
                                     const MachineSchedule& ms) {
  ScheduleForest out;
  ForestBuildScratch scratch;
  build_schedule_forest(jobs, ms, out, scratch);
  return out;
}

}  // namespace pobp
