// Preemptive Earliest-Deadline-First simulation on a single machine.
//
// EDF is the witness algorithm for the interval feasibility condition: a
// subset is ∞-preemptive-feasible iff EDF completes every job by its
// deadline.  With a strict total tie order (deadline, then job id) the
// schedule EDF produces is *laminar* — no two jobs interleave as
// a₁ ≺ b₁ ≺ a₂ ≺ b₂ — which is exactly the normal form the paper's
// reduction (§4.1, Fig. 1) requires.  See laminar.hpp.
//
// One simulation loop serves three entry points:
//   * edf_feasible  — yes/no for an arbitrary subset, records nothing.
//   * edf_schedule  — the full laminar schedule.
//   * EdfAdmission  — yes/no for "admitted set plus one job", the greedy
//     seed's trial acceptance.  It keeps the admitted set release-sorted
//     with its busy periods, finds the one window the new job can change,
//     and simulates it only when two deadline bounds leave the answer open
//     (docs/PERF.md, "Greedy seed: busy-window admission").
// All read the jobs through a JobSetView — a JobSet converts to one in
// place, without a copy — take an EdfScratch, and perform zero heap
// allocations once it (and the admission's own buffers) have warmed up to
// the largest instance seen; the engine's per-worker sessions keep them
// alive across a batch.
//
// Arithmetic is exact: a completion time past INT64_MAX misses every
// representable deadline, so it is reported as infeasible, never wrapped.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pobp/schedule/schedule.hpp"

namespace pobp {

/// Reusable buffers for the EDF simulator.  All job-indexed arrays are
/// maintained sparsely: every entry a simulation touches is restored before
/// it returns, so the same scratch serves instances of any size without a
/// full reset.
struct EdfScratch {
  /// One maximal run of one job on the machine, in machine-time order.
  /// Adjacent runs of the same job are merged, so the run log is exactly
  /// the sorted segment timeline of the resulting schedule.
  struct Run {
    Segment segment;
    JobId job;
  };

  std::vector<JobId> by_release;              ///< subset, release-sorted
  std::vector<Duration> remaining;            ///< per job id, sparse
  std::vector<std::pair<Time, JobId>> ready;  ///< (deadline, id) min-heap
  std::vector<Run> runs;                      ///< recorded timeline
  std::vector<std::uint32_t> seg_count;       ///< per job id, sparse
  std::vector<Segment> seg_buf;               ///< run-bucketing staging
  std::vector<std::uint32_t> seg_cursor;      ///< per subset slot
  std::vector<std::uint32_t> slot;            ///< per job id, sparse
  std::vector<std::uint64_t> keys;            ///< packed (release, id) keys
  std::vector<std::uint64_t> keys_tmp;        ///< radix-sort scatter buffer
  std::vector<Time> rel_sorted;   ///< releases aligned with by_release
};

/// True iff EDF completes every job of `subset` by its deadline, i.e. the
/// subset is ∞-preemptive-feasible.  Records no schedule.
bool edf_feasible(const JobSetView& jobs, std::span<const JobId> subset,
                  EdfScratch& scratch);

/// An EDF-feasible job set that grows one job at a time.
///
/// Busy periods depend only on releases and lengths.  Adding job c changes
/// the EDF run only inside one window: from the start of the busy period
/// holding r_c (or r_c itself, if the machine is idle then) to the point
/// where that period, grown by p_c and by every later period it reaches,
/// drains.  Before the window nothing is pending, and from its end on the
/// run is the feasible one without c.  Inside it the machine never idles,
/// so the window's last job completes exactly at its end, and two bounds
/// decide most probes without simulating:
///   * end > the latest deadline among the window's jobs and c: reject —
///     whichever job completes at the end is late;
///   * end ≤ d_c: accept — c and every job EDF ranks below it (deadline
///     ≥ d_c) complete by the end, and the jobs ranked above c run exactly
///     as they did without it.
/// Only a window with d_c < end ≤ latest is simulated: the admitted jobs
/// released inside it plus c, already in release order.
class EdfAdmission {
 public:
  /// Forgets every admitted job; keeps the buffers' capacity.
  void clear();

  /// True iff EDF meets every deadline of admitted ∪ {id} — exactly
  /// edf_feasible(jobs, admitted ∪ {id}) — and if so admits `id`.  `jobs`
  /// must be the view of every earlier call since clear().  `id` must not
  /// be admitted yet; a repeat aborts, whichever way the probe is decided.
  bool try_admit(const JobSetView& jobs, JobId id, EdfScratch& scratch);

  /// The admitted set in (release, id) order.
  std::span<const JobId> admitted() const { return ids_; }

 private:
  struct BusyPeriod {
    Time start;   ///< release of its first job
    Time end;     ///< start + Σ p over its jobs (exclusive)
    Time latest;  ///< latest deadline among its jobs
  };

  std::vector<JobId> ids_;           ///< admitted, (release, id) order
  std::vector<Time> rel_;            ///< releases aligned with ids_
  std::vector<BusyPeriod> periods_;  ///< disjoint, ascending
};

/// Simulates preemptive EDF of `subset` on one machine.
///
/// Returns the resulting schedule if every job completes by its deadline,
/// std::nullopt otherwise.  O(n log n): events are releases and completions.
std::optional<MachineSchedule> edf_schedule(const JobSetView& jobs,
                                            std::span<const JobId> subset);

/// Pooled form: writes the schedule into `out` (cleared first, slot storage
/// recycled — zero heap allocations once both scratch and `out` are warmed).
/// Returns false, leaving `out` empty, when the subset is infeasible.  On
/// success `scratch.runs` additionally holds the schedule's segment
/// timeline in machine-time order (valid until the next simulation).
bool edf_schedule_into(const JobSetView& jobs, std::span<const JobId> subset,
                       EdfScratch& scratch, MachineSchedule& out);

}  // namespace pobp
