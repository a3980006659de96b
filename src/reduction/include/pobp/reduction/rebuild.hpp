// Rebuilding a k-bounded schedule from a k-BAS of the schedule forest
// (§4.1, Lemma 4.1).
//
// For every retained job j: the segments of j that sit between two
// consecutive *retained* sub-jobs remain; where a sub-job (child subtree) is
// pruned-down, the slots it occupied are vacated and j's later work is
// merged to the left into them.  Equivalently — and this is how we
// implement it — j's p_j units of work are re-laid left-aligned into the
// union of (a) j's own original segments and (b) the spans of its
// pruned-down child subtrees.  Breaks in that union occur only at retained
// children, of which a k-BAS allows at most k, so j ends up with at most
// k+1 segments; all slots used were occupied by j or by now-discarded jobs,
// so feasibility is preserved (Lemma 4.1).
#pragma once

#include "pobp/bas/contraction.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/forest/bas.hpp"
#include "pobp/reduction/schedule_forest.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/util/timing.hpp"

namespace pobp {

/// Reusable buffers for the left-merge.
struct RebuildScratch {
  std::vector<Segment> available;  ///< candidate slots for one job
  std::vector<Segment> placed;     ///< left-aligned layout staging
};

/// Lays out the retained jobs of `sel` (a valid k-BAS of `sf.forest`) as a
/// k-bounded-preemptive schedule.  The result's value equals the k-BAS
/// value and it validates with preemption bound k.
MachineSchedule rebuild_schedule(const JobSet& jobs, const ScheduleForest& sf,
                                 const SubForest& sel);

/// Pooled form: writes into `out` (cleared first, slot storage recycled —
/// zero heap allocations once scratch and `out` are warmed).
void rebuild_schedule_into(const JobSet& jobs, const ScheduleForest& sf,
                           const SubForest& sel, RebuildScratch& scratch,
                           MachineSchedule& out);

/// All the state one §4.1/§4.2 reduction needs, pooled: laminarize (EDF),
/// forest build, TM / LevelledContraction pruning and left-merge each draw
/// from here, and the intermediate ScheduleForest + TmResult products are
/// rebuilt in place.  One per engine Session, reused across the batch.
struct ReductionScratch {
  LaminarScratch laminar;
  ForestBuildScratch forest_build;
  ScheduleForest sf;
  TmScratch tm;
  TmResult tm_result;
  ContractionScratch contraction;
  SubForest contraction_sel;
  RebuildScratch rebuild;
};

/// One-call §4.2 pipeline for a single machine: laminarize the given
/// ∞-preemptive schedule, build its schedule forest, prune it to an optimal
/// k-BAS with the TM dynamic program, and rebuild.  Guarantees
///   val(result) ≥ val(input) / log_{k+1} n        (Theorem 4.2).
struct ReductionResult {
  MachineSchedule bounded;    ///< the k-bounded schedule
  Value value = 0;            ///< val(bounded)
  std::size_t forest_size = 0;
};
ReductionResult reduce_to_k_preemptive(const JobSet& jobs,
                                       const MachineSchedule& unbounded,
                                       std::size_t k,
                                       PipelineTimings* timings = nullptr,
                                       ReductionScratch* scratch = nullptr);

}  // namespace pobp
