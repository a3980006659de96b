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
#include <span>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/schedule/job.hpp"
#include "pobp/schedule/schedule.hpp"
#include "pobp/util/expected.hpp"
#include "pobp/util/timing.hpp"

namespace pobp {

/// Default forest size above which the TM DP forks per root tree across
/// idle threads (see tm_optimal_bas_forked; results are bit-identical
/// either way, so this is purely a parallelism-overhead cutoff).
inline constexpr std::size_t kDefaultTmForkMinNodes = 1024;

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

/// Options of Algorithm 3 (k_preemption_combined_multi_into).
struct CombinedOptions {
  std::size_t k = 1;  ///< preemption bound

  /// The pruner of both reduction branches, full and strict: the optimal
  /// TM dynamic program (default) or LevelledContraction, the algorithm
  /// the paper's upper-bound proofs analyse — exposed so the benches can
  /// compare both.
  bool use_tm = true;

  /// Fork the TM DP per root tree across the global thread pool when the
  /// schedule forest has at least this many nodes; 0 disables intra-solve
  /// parallelism.  Bit-identical results either way.
  std::size_t tm_fork_min_nodes = kDefaultTmForkMinNodes;
};

/// The §5 algorithm for k = 0: the better of (a) LSA_CS with en-bloc
/// placement and factor-2 length classes and (b) the single job of maximum
/// value (which is what makes the price ≤ n tight).  Achieves
/// OPT∞ / O(min{n, log P}).
struct NonPreemptiveResult {
  MachineSchedule schedule;
  Value value = 0;
};
struct LsaScratch;
NonPreemptiveResult schedule_nonpreemptive(const JobSet& jobs,
                                           std::span<const JobId> candidates,
                                           PipelineTimings* timings = nullptr,
                                           LsaScratch* scratch = nullptr);

/// Pooled form of schedule_nonpreemptive: writes the winning branch into
/// `out` (cleared first, segment capacity retained) and returns its value.
/// Bit-identical to the allocating form; allocation-free once `scratch`
/// and `out` are warmed.  `out` must not alias a schedule owned by
/// `scratch`.
Value schedule_nonpreemptive_into(const JobSet& jobs,
                                  std::span<const JobId> candidates,
                                  PipelineTimings* timings,
                                  LsaScratch& scratch, MachineSchedule& out);

/// Branch values and provenance of a pooled Algorithm-3 run (the winning
/// schedule itself goes to the caller's `out`).  A losing branch is either
/// run or *settled*: skipped because the full-reduction branch's value
/// already reaches a bound on what that branch could report (docs/PERF.md,
/// "Algorithm 3: settled branches").  A settled branch's value field holds
/// the bound that settled it, which is at least the value the branch would
/// have reported and at most `value`.
struct CombinedMultiValues {
  Value value = 0;         ///< val(out) — the winning branch
  Value full_value = 0;    ///< full-reduction branch value (always run)
  Value strict_value = 0;  ///< strict (reduction) branch value, or its bound
  Value lax_value = 0;     ///< lax (LSA_CS) branch value, or its bound
  bool strict_settled = false;  ///< strict branch skipped by its bound
  bool lax_settled = false;     ///< lax branch skipped by its bound
  std::size_t strict_jobs = 0;  ///< seed jobs with λ_j < k + 1
  std::size_t lax_jobs = 0;     ///< seed jobs with λ_j ≥ k + 1
  /// Strict-branch machines copied from the full branch: machines whose
  /// seed jobs are all strict, where both branches reduce the same EDF
  /// schedule with the same pruner (0 when the strict branch was settled).
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

/// Algorithm 3 (§4.3.3, k-PreemptionCombined) on M machines.  The seed
/// jobs are split by relative laxity: strict jobs (λ_j < k+1) go through
/// the §4.1 reduction — laminarize, build the schedule forest, prune to a
/// k-BAS, rebuild — losing at most a log_{k+1} P factor (Lemma 4.6); lax
/// jobs (λ_j ≥ k+1) go through LSA_CS, losing at most 6·log_{k+1} P
/// (Lemma 4.10).  A third branch reduces each machine's whole job set,
/// which is what Theorem 4.2's log_{k+1} n bound is proved about, so the
/// result is within both bounds (Theorems 4.2 and 4.5).  The strict branch
/// reduces each machine separately (§4.1 remark) and the lax branch runs
/// the iterative multi-machine LSA_CS (§4.3.4).  The best branch wins, ties
/// going to full, then strict.  Requires k ≥ 1 (schedule_nonpreemptive
/// handles k = 0).  Each machine of `unbounded` must be the EDF schedule of
/// its own jobs, as seed_unbounded_schedule_into, greedy_infinity_multi and
/// laminarize produce: the full-reduction branch reads it as its laminar
/// form instead of re-running EDF (debug builds check this).  A caller
/// holding any other feasible ∞-preemptive machine schedule `ms` passes
/// Schedule(laminarize(jobs, ms)).
///
/// The full branch runs first.  The strict and lax branches run only when
/// its value is below their value bounds: the strict jobs' total value, and
/// the M largest lax length-class totals, each scaled up by a proven
/// floating-point factor.  A settled branch cannot win, so the winner, its
/// schedule and `value` are bit-identical to running all three
/// (CombinedMultiValues says which branches ran).  When the strict branch
/// runs, a machine whose seed jobs are all strict copies the full branch's
/// machine, which the same stages and the same pruner built from the same
/// EDF schedule.  The branches that ran are materialized in the scratch's
/// result arena (`full_sched`, `strict_sched`, `lax_sched`; a settled
/// branch's slot is left stale) and the winner is deep-copied (pooled,
/// capacity-retaining) into `out`.  Allocation-free once scratch and `out`
/// are warmed.  `out` must not alias a schedule owned by `scratch` and
/// `unbounded` may be `scratch.seed` (it is only read).  A non-null `delta`
/// enables per-machine neighbor reuse (see SolveDeltaHint); the result is
/// bit-identical with or without it.
CombinedMultiValues k_preemption_combined_multi_into(
    const JobSet& jobs, const Schedule& unbounded,
    const CombinedOptions& options, PipelineTimings* timings,
    SolveScratch& scratch, Schedule& out,
    const SolveDeltaHint* delta = nullptr);

}  // namespace pobp
