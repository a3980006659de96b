// Laminar normal form of a single-machine schedule (§4.1, Fig. 1).
//
// Two jobs A, B *interleave* when segments appear as a₁ ≺ b₁ ≺ a₂ ≺ b₂.
// The paper observes any feasible schedule can be rearranged, with no loss
// of value, so that the "preempts" relation is laminar: a segment of B lies
// between two segments of A iff no segment of A lies between two segments
// of B.  Laminar schedules are exactly the ones whose preemption structure
// forms a forest (the Schedule Forest of §4.1).
//
// Implementation note: instead of performing Fig. 1's pairwise segment
// rearrangements, we re-run preemptive EDF on the scheduled job set.  The
// set is feasible (the input schedule witnesses it), EDF completes it, and
// EDF with a strict tie order never produces an interleaving: if A runs at
// a₁ and B at b₁ while A is pending, then B precedes A in EDF order; if A
// then runs at a₂ while B is pending (b₂ later), A precedes B — a
// contradiction.  Same jobs, same value, laminar output.
#pragma once

#include <optional>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/schedule/schedule.hpp"

namespace pobp {

/// True iff no two jobs of `ms` interleave (a₁ ≺ b₁ ≺ a₂ ≺ b₂).
/// O(S) over the segment timeline using a nesting stack.
bool is_laminar(const MachineSchedule& ms);

/// Reports every interleaving as rule POBP-LAM-001: one finding per
/// segment that resumes its job underneath a still-open other job, naming
/// the witness pair.  `machine` only decorates locations.
void diagnose_laminar(const MachineSchedule& ms, diag::Report& report,
                      std::optional<std::size_t> machine = std::nullopt);

/// Reusable buffers for the pooled laminarize forms: the EDF simulator
/// state plus the laminarity-check sweep state.
struct LaminarScratch {
  EdfScratch edf;
  std::vector<std::uint32_t> remaining;  ///< per window slot, sweep counter
  std::vector<char> on_stack;            ///< per window slot, sweep membership
  std::vector<std::uint32_t> stack;      ///< open slots, outermost first
  std::vector<JobId> ids;                ///< scheduled_jobs staging
};

/// The EDF schedule of the subset `ids`, written into `out` (cleared
/// first, slot storage recycled — zero allocations once warmed) and
/// checked laminar on its run log: the always-on defense against simulator
/// regressions (POBP_CHECK).  Every laminarize form below is this run; the
/// greedy seed builds its machines with it too, so the full-reduction
/// branch reads a seed machine as its laminar form directly.  Returns
/// false, leaving `out` empty, when the subset is infeasible.
bool laminar_edf_schedule_into(const JobSetView& jobs,
                               std::span<const JobId> ids,
                               LaminarScratch& scratch, MachineSchedule& out);

/// Rearranges `ms` into an equivalent laminar schedule of the same job set
/// (same value, still feasible).  Precondition: `ms` validates against
/// `jobs` with unbounded k.
MachineSchedule laminarize(const JobSet& jobs, const MachineSchedule& ms);

/// Laminar schedule of a bare (feasible) job subset, written into `out`
/// (cleared first, slot storage recycled — zero allocations once warmed):
/// exactly what laminarize produces from any schedule of the subset `ids` —
/// the laminar rearrangement never looks at the input schedule's segments,
/// only at its job set — without materializing such a schedule first.
/// `out` must not alias a schedule the job set is read from.
void laminarize_subset_into(const JobSet& jobs, std::span<const JobId> ids,
                            LaminarScratch& scratch, MachineSchedule& out);

/// Pooled form of laminarize(); `out` must not alias `ms`.
void laminarize_into(const JobSet& jobs, const MachineSchedule& ms,
                     LaminarScratch& scratch, MachineSchedule& out);

}  // namespace pobp
