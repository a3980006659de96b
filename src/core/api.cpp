#include <algorithm>
#include <array>
#include <functional>
#include <span>
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
  // pooled, but the solver's own allocations are not worth chasing.  It
  // makes no admission probes.
  scratch.greedy.probes = {};
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
/// mismatch) disables reuse rather than corrupting the solve.  A neighbor
/// that settled its strict branch carries no strict schedule.
bool delta_usable(const SolveDeltaHint* delta, std::size_t machines) {
  return delta != nullptr && delta->seed != nullptr &&
         delta->full_sched != nullptr && delta->job_changed != nullptr &&
         delta->seed->machine_count() == machines &&
         (delta->strict_sched == nullptr ||
          delta->strict_sched->machine_count() == machines) &&
         delta->full_sched->machine_count() == machines;
}

/// What the two losing branches could at most report, before inflation.
struct BranchTotals {
  Value strict = 0;  ///< Σ val over the strict jobs
  Value lax = 0;     ///< Σ of the M largest length-class totals of lax jobs
};

/// Length classes a lax job can be in: base ≥ 2 and p < 2^63.
constexpr std::size_t kMaxLengthClasses = 64;

/// Splits the seed into strict jobs (s.strict_ids, machine m's at
/// [strict_begin[m], strict_begin[m+1])) and lax jobs (s.lax_ids, in
/// machine then assignment order — the order LSA_CS receives them), and
/// totals their values.  LSA_CS places each machine's jobs from a single
/// length class, and several machines on one class share that class's
/// jobs, so M machines place at most the M largest class totals.  The
/// classes come from lsa_classify, the classification LSA_CS runs.
BranchTotals split_seed(const JobSetView& jobs, const Schedule& unbounded,
                        std::size_t k, SolveScratch& s) {
  BranchTotals totals;
  s.strict_ids.clear();
  s.strict_begin.clear();
  s.lax_ids.clear();
  for (const MachineSchedule& ms : unbounded.machines()) {
    s.strict_begin.push_back(s.strict_ids.size());
    for (const Assignment& a : ms.assignments()) {
      if (is_lax(jobs, a.job, k)) {
        s.lax_ids.push_back(a.job);
      } else {
        s.strict_ids.push_back(a.job);
        totals.strict += jobs.value[a.job];
      }
    }
  }
  s.strict_begin.push_back(s.strict_ids.size());
  if (s.lax_ids.empty()) return totals;

  lsa_classify(jobs, s.lax_ids, k, ClassifyBy::kLength, s.lsa);
  std::array<Value, kMaxLengthClasses> class_total{};
  for (std::size_t i = 0; i < s.lax_ids.size(); ++i) {
    class_total[s.lsa.class_of[i]] += jobs.value[s.lax_ids[i]];
  }
  const auto top = static_cast<std::ptrdiff_t>(
      std::min(unbounded.machine_count(), kMaxLengthClasses));
  std::partial_sort(class_total.begin(), class_total.begin() + top,
                    class_total.end(), std::greater<>());
  for (std::ptrdiff_t c = 0; c < top; ++c) totals.lax += class_total[c];
  return totals;
}

/// The bound a losing branch is settled against: `total` (a sum of the
/// values the branch may place) scaled by 1 + (4N+4)·2^-53, N = n + M.  It
/// dominates the double the branch would report from any subset of those
/// values summed with at most N roundings per value, subnormals and sums
/// that overflow to +inf included (docs/PERF.md, "Algorithm 3: settled
/// branches").  4N + 4 < 2^53 is exact, scaling it by 2^-53 is exact, and
/// 1 + x rounds by at most 2^-53, so the factor is at least 1 + (4N+3)·2^-53.
Value settled_branch_bound(Value total, std::size_t n, std::size_t machines) {
  const auto terms = static_cast<double>(n + machines);
  return total * (1.0 + (4.0 * terms + 4.0) * 0x1p-53);
}

/// Prunes the forest in `rs.sf` to a k-BAS with the pruner `options.use_tm`
/// picks, and returns the kept subforest (owned by `rs`).
const SubForest& prune_forest(ReductionScratch& rs,
                              const CombinedOptions& options) {
  if (!options.use_tm) {
    levelled_contraction_select(rs.sf.forest, options.k, rs.contraction,
                                rs.contraction_sel);
    return rs.contraction_sel;
  }
  tm_optimal_bas_forked(rs.sf.forest, options.k, rs.tm, rs.tm_result,
                        options.tm_fork_min_nodes);
  return rs.tm_result.selection;
}

}  // namespace

CombinedMultiValues k_preemption_combined_multi_into(
    const JobSet& jobs, const Schedule& unbounded,
    const CombinedOptions& options, PipelineTimings* timings,
    SolveScratch& s, Schedule& out, const SolveDeltaHint* delta) {
  POBP_ASSERT_MSG(options.k >= 1, "use schedule_nonpreemptive for k = 0");
  CombinedMultiValues values;
  const std::size_t machines = unbounded.machine_count();
  ReductionScratch& rs = s.reduction;
  if (!delta_usable(delta, machines)) delta = nullptr;
  const BranchTotals totals = split_seed(jobs, unbounded, options.k, s);
  values.strict_jobs = s.strict_ids.size();
  values.lax_jobs = s.lax_ids.size();

  // Full-reduction branch (Theorem 4.2, per machine), first: the branch
  // that wins ties, and the value the other two are settled against.  The
  // §4.1 stages on each machine's whole job set, pruned with the pruner
  // `use_tm` picks (reduce_to_k_preemptive, pooled).  The seed machine is
  // already the schedule laminarize_into would rebuild — the EDF schedule
  // of the same job set in the same (deadline, id) order, checked laminar
  // where the seed built it — so the forest is built from it directly;
  // the stage keeps its fault site and budget poll.
  Stopwatch sw;
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
    const SubForest& sel = prune_forest(rs, options);
    if (timings) timings->prune_s += sw.lap();
    rebuild_schedule_into(jobs, rs.sf, sel, rs.rebuild,
                          full_schedule.machine(m));
    if (timings) timings->merge_s += sw.lap();
  }
  values.full_value = full_schedule.total_value(jobs);
  const Value full_value = values.full_value;

  // Strict branch: reduce each machine's restriction separately, unless
  // the full value already reaches the strict jobs' total.  The
  // restriction itself is never materialized — the laminar rearrangement
  // is a pure function of the strict job subset (see
  // laminarize_subset_into).  On a machine whose seed jobs are all strict
  // that subset's EDF schedule is the seed machine itself, so the stages
  // repeat the full branch's exactly and its machine is copied.
  const Value strict_bound =
      settled_branch_bound(totals.strict, jobs.size(), machines);
  Schedule& strict_schedule = s.strict_sched;
  if (full_value >= strict_bound) {
    values.strict_settled = true;
    values.strict_value = strict_bound;
  } else {
    strict_schedule.reset(machines);
    for (std::size_t m = 0; m < machines; ++m) {
      BudgetGuard::poll();
      const std::span<const JobId> strict_ids(
          s.strict_ids.data() + s.strict_begin[m],
          s.strict_begin[m + 1] - s.strict_begin[m]);
      if (strict_ids.empty()) continue;
      if (strict_ids.size() == unbounded.machine(m).job_count()) {
        strict_schedule.machine(m).assign_from(full_schedule.machine(m));
        ++values.strict_machines_copied;
        continue;
      }
      if (delta != nullptr && delta->strict_sched != nullptr &&
          delta_machine_reusable(unbounded.machine(m),
                                 delta->seed->machine(m),
                                 delta->job_changed)) {
        strict_schedule.machine(m).assign_from(
            delta->strict_sched->machine(m));
        continue;
      }
      sw.lap();
      laminarize_subset_into(jobs, strict_ids, rs.laminar, s.laminar_stage);
      if (timings) timings->laminarize_s += sw.lap();
      build_schedule_forest(jobs, s.laminar_stage, rs.sf, rs.forest_build);
      if (timings) timings->forest_s += sw.lap();
      const SubForest& sel = prune_forest(rs, options);
      if (timings) timings->prune_s += sw.lap();
      rebuild_schedule_into(jobs, rs.sf, sel, rs.rebuild,
                            strict_schedule.machine(m));
      if (timings) timings->merge_s += sw.lap();
    }
    values.strict_value = strict_schedule.total_value(jobs);
  }

  // Lax branch: iterative multi-machine LSA_CS on all lax jobs, unless the
  // full value already reaches the M largest lax length-class totals.
  const Value lax_bound = settled_branch_bound(totals.lax, jobs.size(),
                                               machines);
  Schedule& lax_schedule = s.lax_sched;
  if (full_value >= lax_bound) {
    values.lax_settled = true;
    values.lax_value = lax_bound;
  } else {
    sw.lap();
    lsa_cs_multi_into(jobs, s.lax_ids, options.k, machines, s.lsa,
                      lax_schedule);
    if (timings) timings->lsa_s += sw.lap();
    values.lax_value = lax_schedule.total_value(jobs);
  }

  // A settled branch's bound is at most full_value, so it never wins here.
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

Value schedule_nonpreemptive_into(const JobSet& jobs,
                                  std::span<const JobId> candidates,
                                  PipelineTimings* timings,
                                  LsaScratch& scratch, MachineSchedule& out) {
  out.clear();
  if (candidates.empty()) return 0;

  // Branch (a): LSA_CS with k = 0 (en-bloc placement, length classes of
  // ratio ≤ 2 — §5's adjustment of Alg. 2).  cs_best is the scratch's
  // pooled staging result (lsa_cs_into itself stages through
  // scratch.attempt, so the two never alias).
  Stopwatch sw;
  LsaResult& cs = scratch.cs_best;
  lsa_cs_into(jobs, candidates, /*k=*/0, ClassifyBy::kLength,
              LsaOrder::kDensity, scratch, cs);
  if (timings) timings->lsa_s += sw.lap();
  const Value cs_value = cs.schedule.total_value(jobs);

  // Branch (b): the single most valuable job — a feasible non-preemptive
  // schedule on its own, and the witness of the price ≤ n upper bound.
  const JobId best_single = *std::max_element(
      candidates.begin(), candidates.end(),
      [&](JobId a, JobId b) { return jobs[a].value < jobs[b].value; });

  if (cs_value >= jobs[best_single].value) {
    out.assign_from(cs.schedule);
    return cs_value;
  }
  const Job& j = jobs[best_single];
  out.add_block(best_single, j.release, j.length);
  return j.value;
}

NonPreemptiveResult schedule_nonpreemptive(const JobSet& jobs,
                                           std::span<const JobId> candidates,
                                           PipelineTimings* timings,
                                           LsaScratch* scratch) {
  NonPreemptiveResult result;
  LsaScratch local;
  result.value = schedule_nonpreemptive_into(
      jobs, candidates, timings, scratch != nullptr ? *scratch : local,
      result.schedule);
  return result;
}

}  // namespace pobp
