#include <algorithm>
#include <vector>

#include "pobp/bas/contraction.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/core/pobp.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/diag/registry.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/reduction/rebuild.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/faultinject.hpp"

namespace pobp {

void seed_unbounded_schedule_into(const JobSet& jobs,
                                  const ScheduleOptions& options,
                                  std::span<const JobId> ids,
                                  SolveScratch& scratch, Schedule& out) {
  if (options.seed == ScheduleOptions::Seed::kGreedyDensity) {
    greedy_infinity_multi_into(jobs, ids, options.machine_count,
                               scratch.greedy, out);
    return;
  }
  // Exact B&B seed — a cold path (n ≤ kExactSeedJobLimit): the output is
  // pooled, but the solver's own allocations are not worth chasing.
  out.reset(options.machine_count);
  auto& remaining = scratch.remaining;
  remaining.assign(ids.begin(), ids.end());
  for (std::size_t m = 0; m < options.machine_count && !remaining.empty();
       ++m) {
    BudgetGuard::poll();
    const SubsetSolution sol = opt_infinity(jobs, remaining);
    if (!sol.members.empty()) {
      POBP_CHECK_MSG(laminar_edf_schedule_into(jobs, sol.members,
                                               scratch.greedy.laminar,
                                               out.machine(m)),
                     "B&B returned an infeasible subset");
    }
    std::erase_if(remaining,
                  [&](JobId id) { return out.machine(m).contains(id); });
  }
}

diag::Report check_schedule_options(const JobSet& jobs,
                                    const ScheduleOptions& options) {
  diag::Report report;
  if (options.machine_count == 0) {
    report
        .add(std::string(diag::rules::kOptMachineCount),
             "machine_count must be at least 1")
        .with("machine_count", options.machine_count);
  }
  if (options.seed == ScheduleOptions::Seed::kExact &&
      jobs.size() > kExactSeedJobLimit) {
    report
        .add(std::string(diag::rules::kOptExactSeedLimit),
             "exact B&B seed is exponential in n; use the greedy seed for "
             "this instance")
        .with("n", jobs.size())
        .with("limit", kExactSeedJobLimit);
  }
  return report;
}

namespace {

/// λ_j ≥ k + 1 (Def. 4.4) in integers: d − r ≥ (k+1)·p.  The window d − r
/// fits an int64 (a well-formed job), and a product past INT64_MAX
/// exceeds every window.
bool is_lax(const JobSetView& jobs, JobId id, std::size_t k) {
  std::int64_t need = 0;
  if (__builtin_mul_overflow(k + 1, jobs.length[id], &need)) return false;
  return jobs.deadline[id] - jobs.release[id] >= need;
}

/// True when `ms` is exactly the EDF schedule of its own job set — the
/// schedule laminarize_into would rebuild from it.  Debug builds check
/// every seed machine the full-reduction branch reads as laminar.
bool is_edf_schedule_of_its_jobs(const JobSet& jobs, const MachineSchedule& ms,
                                 LaminarScratch& scratch,
                                 MachineSchedule& edf) {
  scratch.ids.clear();
  for (const Assignment& a : ms.assignments()) scratch.ids.push_back(a.job);
  return edf_schedule_into(jobs, scratch.ids, scratch.edf, edf) &&
         std::ranges::equal(ms.assignments(), edf.assignments(),
                            [](const Assignment& a, const Assignment& b) {
                              return a.job == b.job &&
                                     a.segments == b.segments;
                            });
}

/// True when machine `m` of the current seed is stage-for-stage identical
/// to the delta neighbor's: same assignments (job ids, segment lists, in
/// order) and no job on it with changed attributes.  Under that condition
/// every per-machine reduction stage sees byte-identical inputs, so the
/// neighbor's branch output for the machine can be reused verbatim.
bool delta_machine_reusable(const MachineSchedule& cur,
                            const MachineSchedule& prev,
                            const std::uint8_t* changed) {
  if (cur.job_count() != prev.job_count()) return false;
  const std::span<const Assignment> ca = cur.assignments();
  const std::span<const Assignment> pa = prev.assignments();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (ca[i].job != pa[i].job) return false;
    if (changed[ca[i].job] != 0) return false;
    if (ca[i].segments != pa[i].segments) return false;
  }
  return true;
}

/// Validates hint shape once per solve: a malformed hint (machine-count
/// mismatch) disables reuse rather than corrupting the solve.
bool delta_usable(const SolveDeltaHint* delta, std::size_t machines) {
  return delta != nullptr && delta->seed != nullptr &&
         delta->strict_sched != nullptr && delta->full_sched != nullptr &&
         delta->job_changed != nullptr &&
         delta->seed->machine_count() == machines &&
         delta->strict_sched->machine_count() == machines &&
         delta->full_sched->machine_count() == machines;
}

}  // namespace

CombinedMultiValues k_preemption_combined_multi_into(
    const JobSet& jobs, const Schedule& unbounded,
    const CombinedOptions& options, PipelineTimings* timings,
    SolveScratch& s, Schedule& out, const SolveDeltaHint* delta) {
  CombinedMultiValues values;
  const std::size_t machines = unbounded.machine_count();
  ReductionScratch& rs = s.reduction;
  if (!delta_usable(delta, machines)) delta = nullptr;

  // Strict branch: reduce each machine's restriction separately.  The
  // restriction itself is never materialized — the laminar rearrangement is
  // a pure function of the strict job subset (see laminarize_subset_into).
  Stopwatch sw;
  Schedule& strict_schedule = s.strict_sched;
  strict_schedule.reset(machines);
  auto& lax_ids = s.lax_ids;
  lax_ids.clear();
  for (std::size_t m = 0; m < machines; ++m) {
    BudgetGuard::poll();
    auto& strict_ids = s.strict_ids;
    strict_ids.clear();
    for (const Assignment& a : unbounded.machine(m).assignments()) {
      (is_lax(jobs, a.job, options.k) ? lax_ids : strict_ids)
          .push_back(a.job);
    }
    if (strict_ids.empty()) continue;
    if (delta != nullptr &&
        delta_machine_reusable(unbounded.machine(m), delta->seed->machine(m),
                               delta->job_changed)) {
      strict_schedule.machine(m).assign_from(delta->strict_sched->machine(m));
      continue;
    }
    sw.lap();
    laminarize_subset_into(jobs, strict_ids, rs.laminar, s.laminar_stage);
    if (timings) timings->laminarize_s += sw.lap();
    build_schedule_forest(jobs, s.laminar_stage, rs.sf, rs.forest_build);
    if (timings) timings->forest_s += sw.lap();
    const SubForest* sel;
    if (options.use_tm) {
      tm_optimal_bas_forked(rs.sf.forest, options.k, rs.tm, rs.tm_result,
                            options.tm_fork_min_nodes);
      sel = &rs.tm_result.selection;
    } else {
      levelled_contraction_select(rs.sf.forest, options.k, rs.contraction,
                                  rs.contraction_sel);
      sel = &rs.contraction_sel;
    }
    if (timings) timings->prune_s += sw.lap();
    rebuild_schedule_into(jobs, rs.sf, *sel, rs.rebuild,
                          strict_schedule.machine(m));
    if (timings) timings->merge_s += sw.lap();
  }
  values.strict_value = strict_schedule.total_value(jobs);

  // Lax branch: iterative multi-machine LSA_CS on all lax jobs.
  sw.lap();
  Schedule& lax_schedule = s.lax_sched;
  lsa_cs_multi_into(jobs, lax_ids, options.k, machines, s.lsa, lax_schedule);
  if (timings) timings->lsa_s += sw.lap();
  values.lax_value = lax_schedule.total_value(jobs);

  // Full-reduction branch (Theorem 4.2, per machine): the same four stages
  // as the strict branch on each machine's whole job set, always pruned
  // with the exact TM DP (mirrors reduce_to_k_preemptive, pooled).  The
  // seed machine is already the schedule laminarize_into would rebuild —
  // the EDF schedule of the same job set in the same (deadline, id) order,
  // checked laminar where the seed built it — so the forest is built from
  // it directly; the stage keeps its fault site and budget poll.
  Schedule& full_schedule = s.full_sched;
  full_schedule.reset(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    const MachineSchedule& input = unbounded.machine(m);
    if (input.empty()) continue;
    POBP_DASSERT(is_edf_schedule_of_its_jobs(jobs, input, rs.laminar,
                                             s.laminar_stage));
    if (delta != nullptr &&
        delta_machine_reusable(input, delta->seed->machine(m),
                               delta->job_changed)) {
      full_schedule.machine(m).assign_from(delta->full_sched->machine(m));
      continue;
    }
    sw.lap();
    POBP_FAULT_POINT(kLaminarize);
    BudgetGuard::poll();
    if (timings) timings->laminarize_s += sw.lap();
    build_schedule_forest(jobs, input, rs.sf, rs.forest_build);
    if (timings) timings->forest_s += sw.lap();
    tm_optimal_bas_forked(rs.sf.forest, options.k, rs.tm, rs.tm_result,
                          options.tm_fork_min_nodes);
    if (timings) timings->prune_s += sw.lap();
    rebuild_schedule_into(jobs, rs.sf, rs.tm_result.selection, rs.rebuild,
                          full_schedule.machine(m));
    if (timings) timings->merge_s += sw.lap();
  }
  const Value full_value = full_schedule.total_value(jobs);

  if (full_value >= values.strict_value && full_value >= values.lax_value) {
    out.assign_from(full_schedule);
    values.value = full_value;
  } else if (values.strict_value >= values.lax_value) {
    out.assign_from(strict_schedule);
    values.value = values.strict_value;
  } else {
    out.assign_from(lax_schedule);
    values.value = values.lax_value;
  }
  return values;
}

}  // namespace pobp
