#include "pobp/reduction/rebuild.hpp"

#include <algorithm>

#include "pobp/bas/tm.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/faultinject.hpp"

namespace pobp {

void rebuild_schedule_into(const JobSet& jobs, const ScheduleForest& sf,
                           const SubForest& sel, RebuildScratch& scratch,
                           MachineSchedule& out) {
  POBP_FAULT_POINT(kLeftMerge);
  POBP_CHECK(sel.keep.size() == sf.size());
  out.clear();

  auto& available = scratch.available;
  auto& placed = scratch.placed;
  for (NodeId u = 0; u < sf.size(); ++u) {
    BudgetGuard::poll();  // one operation per forest node
    if (!sel.kept(u)) continue;
    const JobId job = sf.node_job[u];

    // Slots available to j: its own segments plus the spans vacated by
    // pruned-down child subtrees.  (In a valid k-BAS a non-kept child of a
    // kept node is pruned-down with its whole subtree — Obs. 3.8a — and the
    // non-idling precondition makes its span fully vacated.)
    const std::span<const Segment> own = sf.segments(u);
    available.assign(own.begin(), own.end());
    for (const NodeId c : sf.forest.children(u)) {
      if (!sel.kept(c)) available.push_back(sf.node_span[c]);
    }
    normalize_in_place(available);

    // Left-merge: fill p_j units left-aligned.
    Duration todo = jobs[job].length;
    placed.clear();
    for (const Segment& slot : available) {
      if (todo == 0) break;
      const Duration take = std::min(todo, slot.length());
      placed.push_back({slot.begin, slot.begin + take});
      todo -= take;
    }
    POBP_CHECK_MSG(todo == 0,
                   "available slots shorter than p_j — input schedule was "
                   "not feasible/span-compact");
    out.append_sorted(job, {placed.data(), placed.size()});
  }
}

MachineSchedule rebuild_schedule(const JobSet& jobs, const ScheduleForest& sf,
                                 const SubForest& sel) {
  RebuildScratch scratch;
  MachineSchedule out;
  rebuild_schedule_into(jobs, sf, sel, scratch, out);
  return out;
}

ReductionResult reduce_to_k_preemptive(const JobSet& jobs,
                                       const MachineSchedule& unbounded,
                                       std::size_t k,
                                       PipelineTimings* timings,
                                       ReductionScratch* scratch) {
  ReductionResult result;
  if (unbounded.empty()) return result;
  ReductionScratch local;
  ReductionScratch& s = scratch != nullptr ? *scratch : local;

  Stopwatch sw;
  MachineSchedule laminar;
  laminarize_into(jobs, unbounded, s.laminar, laminar);
  if (timings) timings->laminarize_s += sw.lap();
  build_schedule_forest(jobs, laminar, s.sf, s.forest_build);
  if (timings) timings->forest_s += sw.lap();
  tm_optimal_bas(s.sf.forest, k, s.tm, s.tm_result);
  if (timings) timings->prune_s += sw.lap();
  rebuild_schedule_into(jobs, s.sf, s.tm_result.selection, s.rebuild,
                        result.bounded);
  if (timings) timings->merge_s += sw.lap();
  result.value = result.bounded.total_value(jobs);
  result.forest_size = s.sf.size();
  return result;
}

}  // namespace pobp
