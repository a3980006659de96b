// Schedule Forest construction (§4.1).
//
// Given a *laminar* single-machine schedule, the "preempts" relation — v is
// a child of u iff v's segments lie between two segments of u, with u
// innermost — forms a forest.  We build it with one sweep over the segment
// timeline, maintaining the stack of currently-open jobs: a job's parent is
// whatever is on top of the stack when its first segment starts.
//
// The reduction additionally assumes the schedule is *non-idling inside
// every job's span* (the machine is busy from a job's first segment to its
// last): that is what makes "the slots vacated by a pruned-down subtree"
// contiguous, which the left-merge of rebuild.hpp relies on.  EDF output —
// which is what laminarize() produces — always satisfies this, because EDF
// never idles while a job is pending.  build_schedule_forest aborts if
// either precondition is violated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pobp/forest/forest.hpp"
#include "pobp/schedule/schedule.hpp"
#include "pobp/util/radix.hpp"

namespace pobp {

/// The forest plus the node ↔ job correspondence and per-node layout data
/// the rebuild step needs.  Per-node segment lists live in one flat CSR
/// arena (offsets + data) rather than a vector-of-vectors, so the whole
/// structure can be rebuilt in place with zero steady-state allocations.
struct ScheduleForest {
  Forest forest;                      ///< node values = job values
  std::vector<JobId> node_job;        ///< forest node -> job id
  std::vector<std::uint32_t> seg_offsets;  ///< CSR offsets into seg_data
  std::vector<Segment> seg_data;      ///< all nodes' G_j, concatenated
  std::vector<Segment> node_span;     ///< [first begin, last end] of subtree

  /// Original segment list G_j of the job at node v.
  std::span<const Segment> segments(NodeId v) const {
    return {seg_data.data() + seg_offsets[v],
            seg_offsets[v + 1] - seg_offsets[v]};
  }

  std::size_t size() const { return forest.size(); }

  /// Drops all nodes but keeps every buffer's capacity.
  void clear() {
    forest.clear();
    node_job.clear();
    seg_offsets.clear();
    seg_data.clear();
    node_span.clear();
  }
};

/// Reusable buffers for the in-place builder.  Assignments are named by
/// their position in MachineSchedule::assignments().
struct ForestBuildScratch {
  /// The segment timeline: keyed by begin, each entry carrying its
  /// assignment's position.
  RadixSort timeline;
  std::vector<std::uint32_t> remaining;  ///< per assignment, segments left
  std::vector<NodeId> node_of;        ///< per assignment, kNoNode = unseen
  std::vector<std::uint32_t> stack;   ///< open assignments, outermost first
};

/// Builds the schedule forest of a laminar, span-compact machine schedule.
ScheduleForest build_schedule_forest(const JobSet& jobs,
                                     const MachineSchedule& ms);

/// In-place form (identical result): `out` is cleared and refilled, so a
/// warmed-up out + scratch pair makes the build allocation-free.
void build_schedule_forest(const JobSet& jobs, const MachineSchedule& ms,
                           ScheduleForest& out, ForestBuildScratch& scratch);

}  // namespace pobp
