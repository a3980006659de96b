// Preemptive Earliest-Deadline-First simulation on a single machine.
//
// EDF is the witness algorithm for the interval feasibility condition: a
// subset is ∞-preemptive-feasible iff EDF completes every job by its
// deadline.  With a strict total tie order (deadline, then job id) the
// schedule EDF produces is *laminar* — no two jobs interleave as
// a₁ ≺ b₁ ≺ a₂ ≺ b₂ — which is exactly the normal form the paper's
// reduction (§4.1, Fig. 1) requires.  See laminar.hpp.
//
// One simulation loop serves two entry points:
//   * edf_schedule  — the full laminar schedule, or "infeasible".
//   * EdfAdmission  — yes/no for "admitted set plus one job", the greedy
//     seed's trial acceptance.  It ranks a fixed candidate pool once by
//     (release, id), keeps the admitted set and its busy periods as
//     bitsets over those ranks, finds the one window the new job can
//     change by word scans, rejects or accepts it from deadline bounds
//     where they decide, and simulates only what they leave open
//     (docs/PERF.md, "Greedy seed").
// The loop runs over window-local columns, one slot per job in (release,
// id) order: release, deadline, remaining work and id.  Its ready set is a
// slot array kept sorted by (deadline, id), earliest at the back, while at
// most kEdfSortedReadyCap jobs are ready — nearly every admission window —
// and a binary heap in the same order past that.  The order is total, so
// the schedule is the same either way.  A subset already in (release, id)
// order (the admitted set, a laminar machine's jobs) is loaded without a
// sort, and an admission window is gathered straight from the rank
// columns.  Both read the jobs through a JobSetView — a JobSet converts to
// one in place, without a copy — take an EdfScratch, and perform zero heap
// allocations once it (and the admission's own buffers) have warmed up to
// the largest instance seen; the engine's per-worker sessions keep them
// alive across a batch.
//
// Arithmetic is exact: a completion time past INT64_MAX misses every
// representable deadline, so it is reported as infeasible, never wrapped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pobp/schedule/schedule.hpp"
#include "pobp/util/radix.hpp"

namespace pobp {

/// Most ready jobs the EDF loop keeps in a sorted array; one more turns the
/// array into a binary heap until the ready set next drains.
inline constexpr std::size_t kEdfSortedReadyCap = 16;

/// Reusable buffers for the EDF simulator.  The window columns hold one
/// entry per simulated job (slot), in (release, id) order; every array is
/// sized by the subset simulated, never by the instance, so nothing needs
/// resetting between simulations.
struct EdfScratch {
  /// One maximal run of one job on the machine, in machine-time order.
  /// Adjacent runs of the same job are merged, so the run log is exactly
  /// the sorted segment timeline of the resulting schedule.
  struct Run {
    Segment segment;
    std::uint32_t slot;  ///< the job's window slot; its id is id[slot]
  };

  std::vector<Time> release;         ///< per slot
  std::vector<Time> deadline;        ///< per slot
  std::vector<Duration> remaining;   ///< per slot, work left
  std::vector<JobId> id;             ///< per slot
  std::vector<std::uint32_t> ready;  ///< ready slots, sorted or a heap
  std::vector<Run> runs;             ///< recorded timeline
  std::vector<Segment> seg_buf;      ///< run-bucketing staging
  std::vector<std::uint32_t> seg_cursor;  ///< per slot
  /// Whether the last simulation's ready set outgrew kEdfSortedReadyCap.
  bool ready_heaped = false;
};

/// How an EdfAdmission settled its probes since clear() (docs/PERF.md,
/// "Greedy seed").  Every probe lands in exactly one of the first three;
/// the fourth counts the simulated windows whose ready set outgrew
/// kEdfSortedReadyCap.
struct AdmissionCounts {
  std::size_t bound_rejected = 0;  ///< a window stage overran its deadlines
  std::size_t bound_accepted = 0;  ///< the window ends by d of the candidate
  std::size_t simulated = 0;       ///< the window's EDF run decided
  std::size_t past_sorted_cap = 0;

  std::size_t probes() const {
    return bound_rejected + bound_accepted + simulated;
  }
  AdmissionCounts& operator+=(const AdmissionCounts& other) {
    bound_rejected += other.bound_rejected;
    bound_accepted += other.bound_accepted;
    simulated += other.simulated;
    past_sorted_cap += other.past_sorted_cap;
    return *this;
  }
  bool operator==(const AdmissionCounts&) const = default;
};

/// An EDF-feasible job set that grows one job at a time, drawn from a
/// candidate pool ranked once by (release, id).
///
/// Busy periods depend only on releases and lengths.  Adding job c changes
/// the EDF run only inside one window: from the start of the busy period
/// holding r_c (or r_c itself, if the machine is idle then) to the point
/// where that period, grown by p_c and by every later period it reaches,
/// drains.  Before the window nothing is pending, and from its end on the
/// run is the feasible one without c.  The window grows in stages — the
/// holding period plus c, then one absorbed period at a time — and the
/// jobs of the stages so far are all released at or after the window's
/// start, so the last of them completes no earlier than the running end.
/// Two bounds decide most probes without simulating:
///   * some stage's running end > the latest deadline among the stages so
///     far: reject — one of their jobs is late, whatever runs first;
///   * end ≤ d_c: accept — c and every job EDF ranks below it (deadline
///     ≥ d_c) complete by the end, and the jobs ranked above c run exactly
///     as they did without it.
/// Only a window no bound decides is simulated: the admitted jobs released
/// inside it plus c, gathered straight from the rank columns.
///
/// Rank space: the admitted set is a bitset over ranks, and each busy
/// period is keyed by its first admitted rank — a second bitset marks
/// period starts, and the period's end and latest deadline sit at that
/// rank.  Busy periods are contiguous in release order, so a window's
/// admitted jobs are exactly the admitted ranks from its first period's
/// first rank up to the first unabsorbed period's, and a commit sets and
/// clears bits.
class EdfAdmission {
 public:
  using Rank = std::uint32_t;

  /// Ranks `candidates` by (release, id) — their order in every later call
  /// — forgets every admitted job and zeroes counts().  The ranking is a
  /// radix sort in `sort`, whose entries it leaves unspecified.  A repeated
  /// id aborts.
  void rank(const JobSetView& jobs, std::span<const JobId> candidates,
            RadixSort& sort);

  /// Forgets every admitted job and zeroes counts(); keeps the ranking and
  /// the buffers' capacity.
  void clear();

  /// The number of ranked candidates.
  std::size_t size() const { return id_.size(); }

  /// The job at rank `r`.
  JobId id(Rank r) const { return id_[r]; }

  /// The ranked jobs, rank order.
  std::span<const JobId> ids() const { return id_; }

  /// Whether rank `r` is admitted.
  bool admitted(Rank r) const { return (admitted_[r >> 6] >> (r & 63)) & 1; }

  /// True iff EDF meets every deadline of the admitted jobs plus rank
  /// `r`'s — exactly edf_schedule_into's verdict on that set — and if so
  /// admits it.  `r` must not be admitted yet; a repeat aborts, whichever
  /// way the probe is decided.
  bool try_admit(Rank r, EdfScratch& scratch);

  /// The admitted jobs' ids in (release, id) order, written to `out`.
  void admitted_ids(std::vector<JobId>& out) const;

  /// How the probes since rank() or clear() were decided.
  const AdmissionCounts& counts() const { return counts_; }

 private:
  struct Period {
    Time end;     ///< start + Σ p over its jobs (exclusive)
    Time latest;  ///< latest deadline among its jobs
  };

  /// Loads the admitted ranks in [first, last) plus `c` into the window
  /// columns, in rank order.
  void gather_window(Rank c, std::size_t first, std::size_t last,
                     EdfScratch& scratch) const;

  // One entry per rank: what a probe reads of the candidate pool.
  std::vector<Time> release_;
  std::vector<Time> deadline_;
  std::vector<Duration> length_;
  std::vector<JobId> id_;
  std::vector<std::uint64_t> admitted_;  ///< bit per rank
  std::vector<std::uint64_t> starts_;    ///< bit per period's first rank
  std::vector<Period> periods_;          ///< valid at the starts_ bits
  AdmissionCounts counts_;
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
