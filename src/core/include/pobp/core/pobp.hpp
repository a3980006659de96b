// pobp — The Price of Bounded Preemption (Alon, Azar, Berlin; SPAA'18).
//
// One-call solve API.  Most applications should include the curated
// umbrella "pobp/pobp.hpp" instead, which re-exports this header together
// with the batch engine (pobp/engine/engine.hpp) and the common IO /
// rendering helpers; the per-module headers under pobp/<module>/ are the
// internal pipeline surface.
//
// Quick start (see examples/quickstart.cpp and examples/batch_service.cpp):
//
//   pobp::JobSet jobs;
//   jobs.add({.release = 0, .deadline = 10, .length = 4, .value = 5.0});
//   ...
//   auto result = pobp::try_schedule_bounded(jobs, {.k = 1});
//   if (result) {
//     // result->schedule is a feasible schedule where no job is preempted
//     // more than once, within O(log_{k+1} min{n, P}) of the unbounded
//     // optimum's value.
//   }
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "pobp/core/combined.hpp"
#include "pobp/diag/diagnostic.hpp"
#include "pobp/schedule/job.hpp"
#include "pobp/schedule/schedule.hpp"
#include "pobp/util/expected.hpp"
#include "pobp/util/timing.hpp"

namespace pobp {

/// Options for the one-call entry points and the engine.
struct ScheduleOptions {
  std::size_t k = 1;             ///< preemption bound (0 = non-preemptive)
  std::size_t machine_count = 1; ///< non-migrative identical machines

  /// How the reference ∞-preemptive schedule is obtained before bounding:
  enum class Seed {
    kGreedyDensity,  ///< density-greedy + EDF check — fast, any n (default)
    kExact,          ///< branch-and-bound OPT∞ — exponential, n ≲ 26
  };
  Seed seed = Seed::kGreedyDensity;

  bool use_tm = true;  ///< see CombinedOptions::use_tm

  /// See CombinedOptions::tm_fork_min_nodes: minimum schedule-forest size
  /// for the TM DP to fork per root tree across idle threads (0 disables).
  /// Results are bit-identical regardless of this knob.
  std::size_t tm_fork_min_nodes = kDefaultTmForkMinNodes;
};

/// Largest instance the checked entry points accept with Seed::kExact
/// (rule POBP-OPT-002): the B&B seed is exponential in n.
inline constexpr std::size_t kExactSeedJobLimit = 32;

struct ScheduleResult {
  Schedule schedule;          ///< feasible k-preemptive schedule
  Value value = 0;            ///< val(schedule)
  Value unbounded_value = 0;  ///< value of the seed ∞-preemptive schedule

  /// True when the solve exceeded its SolveBudget and the engine fell
  /// back to the approximate greedy + LSA_CS path (DegradePolicy::
  /// kApproximate) instead of the exact pipeline.  Degraded results are
  /// still feasible k-preemptive schedules; only the price guarantee of
  /// the full pipeline is forfeited.
  bool degraded = false;
  /// unbounded_value / value — the empirically paid price; the paper
  /// guarantees O(log_{k+1} min{n, P}).  Degenerate cases: 1 when both
  /// values are 0 (nothing to lose), +inf when value == 0 but the seed
  /// scheduled something (total loss).
  [[nodiscard]] double price() const {
    if (value > 0) return unbounded_value / value;
    return unbounded_value > 0 ? std::numeric_limits<double>::infinity()
                               : 1.0;
  }
};

/// Rule-tagged validation of the solve options against an instance
/// (POBP-OPT-*).  Empty report ⟺ the options are accepted.
[[nodiscard]] diag::Report check_schedule_options(
    const JobSet& jobs, const ScheduleOptions& options);

/// One-call pipeline: build an ∞-preemptive reference schedule, then bound
/// its preemptions with Algorithm 3 (k ≥ 1) or the §5 non-preemptive
/// algorithm (k = 0), per machine.  Bad options are reported as a
/// diag::Report tagged with POBP-OPT-* rule ids instead of being thrown.
///
/// Runs on the process-wide default Engine (pobp/engine/engine.hpp);
/// construct a dedicated pobp::Engine for batch workloads or custom
/// worker/metrics configuration.
[[nodiscard]] Expected<ScheduleResult, diag::Report> try_schedule_bounded(
    const JobSet& jobs, const ScheduleOptions& options = {});

/// Every reusable buffer a pipeline solve needs (see pobp/core/scratch.hpp).
struct SolveScratch;

/// Seed ∞-preemptive schedule across machines (stage 1 of the pipeline):
/// the density-greedy heuristic or the exact B&B applied iteratively to the
/// residual set, per ScheduleOptions::seed.  Each machine of `out` is the
/// EDF schedule of its own jobs, checked laminar where it is built — the
/// form k_preemption_combined_multi_into requires.  `ids` must be all job
/// ids [0, n).  Writes into `out` (reset first, segment capacity retained);
/// allocation-free once the scratch and `out` are warmed (greedy seed; the
/// exact B&B seed is a cold path and still allocates internally).  `out`
/// must not alias a schedule owned by `scratch`.
void seed_unbounded_schedule_into(const JobSet& jobs,
                                  const ScheduleOptions& options,
                                  std::span<const JobId> ids,
                                  SolveScratch& scratch, Schedule& out);

/// Branch values and provenance of a pooled Algorithm-3 run (the winning
/// schedule itself goes to the caller's `out`).  A losing branch is either
/// run or *settled*: skipped because the full-reduction branch's value
/// already reaches a bound on what that branch could report (docs/PERF.md,
/// "Algorithm 3: settled branches").  A settled branch's value field holds
/// the bound that settled it, which is at least the value the branch would
/// have reported and at most `value`.
struct CombinedMultiValues {
  Value value = 0;         ///< val(out) — the winning branch
  Value strict_value = 0;  ///< strict (reduction) branch value, or its bound
  Value lax_value = 0;     ///< lax (LSA_CS) branch value, or its bound
  bool strict_settled = false;  ///< strict branch skipped by its bound
  bool lax_settled = false;     ///< lax branch skipped by its bound
  /// Strict-branch machines copied from the full branch: machines whose
  /// seed jobs are all strict, where both branches reduce the same EDF
  /// schedule with the TM DP (0 when the strict branch was settled).
  std::size_t strict_machines_copied = 0;
};

/// Neighbor-reuse hint for an incremental (delta) re-solve, produced by
/// the engine's content-addressed solve cache (docs/CACHE.md).  All
/// pointers describe one previously solved instance that differs from the
/// current one only in jobs with `job_changed[id] != 0` (same n, same
/// options).  The per-machine reduction stages are pure functions of
/// (that machine's seed assignments, the attributes of the jobs on it),
/// so any machine whose seed assignments match the neighbor's and hosts
/// no changed job can reuse the neighbor's branch schedule verbatim —
/// skipping laminarize → forest → TM DP → left-merge for that root forest
/// — with a bit-identical outcome.  Machines that fail the check (a
/// changed job landed there, or the greedy seed rearranged it, which is
/// the "patch invalidates laminarity" case) fall back to the full stages.
/// `strict_sched` is null when the neighbor settled its strict branch and
/// so has no strict schedule; no strict machine is reused then.
struct SolveDeltaHint {
  const Schedule* seed = nullptr;          ///< neighbor's ∞-preemptive seed
  const Schedule* strict_sched = nullptr;  ///< neighbor's strict branch or null
  const Schedule* full_sched = nullptr;    ///< neighbor's full-reduction branch
  const std::uint8_t* job_changed = nullptr;  ///< size n, 1 = attrs differ
};

/// Multi-machine Algorithm 3: the strict branch reduces each machine of the
/// given ∞-preemptive schedule separately (§4.1 remark); the lax branch
/// runs the iterative multi-machine LSA_CS (§4.3.4); the full-reduction
/// branch (Theorem 4.2) reduces each machine's whole job set.  The best
/// branch wins, ties going to full, then strict.  Each machine of
/// `unbounded` must be the EDF schedule of its own jobs, as
/// seed_unbounded_schedule_into and greedy_infinity_multi produce: the
/// full-reduction branch reads it as its laminar form instead of re-running
/// EDF (debug builds check this).
///
/// The full branch runs first.  The strict and lax branches run only when
/// its value is below their value bounds: the strict jobs' total value, and
/// the M largest lax length-class totals, each scaled up by a proven
/// floating-point factor.  A settled branch cannot win, so the winner, its
/// schedule and `value` are bit-identical to running all three
/// (CombinedMultiValues says which branches ran).  When
/// the strict branch runs under `use_tm`, a machine whose seed jobs are
/// all strict copies the full branch's machine, which the same stages
/// built from the same EDF schedule.  The branches that ran are
/// materialized in the scratch's result arena (`full_sched`, `strict_sched`,
/// `lax_sched`; a settled branch's slot is left stale) and the winner is
/// deep-copied (pooled, capacity-retaining) into `out`.  Allocation-free
/// once scratch and `out` are warmed.  `out` must not alias a schedule
/// owned by `scratch` and `unbounded` may be `scratch.seed` (it is only
/// read).  A non-null `delta` enables per-machine neighbor reuse (see
/// SolveDeltaHint); the result is bit-identical with or without it.
CombinedMultiValues k_preemption_combined_multi_into(
    const JobSet& jobs, const Schedule& unbounded,
    const CombinedOptions& options, PipelineTimings* timings,
    SolveScratch& scratch, Schedule& out,
    const SolveDeltaHint* delta = nullptr);

}  // namespace pobp
