// Ground-truth solvers.
//
// The paper's price is a ratio against OPT∞ (and, for §5, implicitly
// against OPT_0); these solvers provide the exact and heuristic reference
// values the tests and benches compare against.
//
//  * opt_infinity      — exact max-value ∞-preemptive subset on one machine,
//                        branch-and-bound over the interval feasibility
//                        condition (a subset is feasible iff every window
//                        [r, d] has enough room — see interval_condition.hpp).
//                        Exponential worst case; intended for n ≤ ~26.
//  * opt_zero          — exact max-value *non-preemptive* subset on one
//                        machine via bitmask DP over subsets (state: minimal
//                        completion time).  O(2^n · n); n ≤ 22.
//  * opt_k_slots       — exact max-value k-preemptive schedule for *tiny*
//                        integer-horizon instances by DP over unit time
//                        slots.  Exists purely as a cross-check oracle.
//  * greedy_infinity   — density-ordered greedy with an EDF admission
//                        check; a fast ∞-preemptive heuristic used to seed
//                        the pipeline on instances too large for B&B.
//                        Reads the jobs through a JobSetView (a JobSet
//                        converts in place); the pipeline calls the pooled
//                        greedy_infinity_multi_into.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "pobp/schedule/edf.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/schedule/schedule.hpp"

namespace pobp {

struct SubsetSolution {
  std::vector<JobId> members;
  Value value = 0;
};

/// Exact OPT∞(J) on one machine (B&B; the first two branching levels are
/// fanned out over the global thread pool).
SubsetSolution opt_infinity(const JobSet& jobs,
                            std::span<const JobId> candidates);

/// Exact OPT_0(J) on one machine (bitmask DP).
SubsetSolution opt_zero(const JobSet& jobs, std::span<const JobId> candidates);

/// Exact OPT_k by unit-slot DP.  Requires a small horizon; aborts when the
/// state space would exceed `max_states`.
std::optional<Value> opt_k_slots(const JobSet& jobs, std::size_t k,
                                 std::size_t max_states = 50'000'000);

/// Reusable buffers for the greedy seed.  A seed ranks its candidates once
/// by (release, id) and sorts those ranks once by density; every machine
/// pass reuses both orders.  Each candidate probe is one
/// EdfAdmission::try_admit, which settles most probes from two deadline
/// bounds and EDF-simulates only the busy window the rest touch — only the
/// final accepted set is materialized as a schedule, which is identical
/// because EDF is a pure function of the job set.  That schedule is built
/// by laminar_edf_schedule_into, so it leaves the seed checked laminar.
struct GreedyScratch {
  /// The ranks not yet placed, densest first (denser_first): the
  /// consideration order of every machine pass.
  std::vector<EdfAdmission::Rank> residual;
  /// The ranking's radix sort, then the density order: entry i's payload
  /// is the rank of the i-th densest candidate.
  RadixSort order;
  EdfAdmission admission;        ///< the ranking and one pass's accepted set
  std::vector<JobId> accepted;   ///< one pass's accepted ids, rank order
  LaminarScratch laminar;        ///< EDF probes and the final schedule
  /// How the last greedy_infinity_multi_into decided its probes, summed
  /// over its machine passes: one probe per candidate per pass.  The
  /// exact seed (seed_unbounded_schedule_into) zeroes it.
  AdmissionCounts probes;
};

/// Greedy ∞-preemptive heuristic: jobs in descending density order
/// (denser_first), each accepted iff the accepted set stays EDF-feasible.
/// Returns the EDF schedule of the accepted set.
MachineSchedule greedy_infinity(const JobSetView& jobs,
                                std::span<const JobId> candidates);

/// Multi-machine greedy: fills machine 0 with greedy_infinity, then machine
/// 1 with the residual, and so on.
Schedule greedy_infinity_multi(const JobSetView& jobs,
                               std::span<const JobId> candidates,
                               std::size_t machine_count);

/// Pooled form: writes into `out` (reset first, slot storage recycled —
/// zero heap allocations once scratch and `out` are warmed).
void greedy_infinity_multi_into(const JobSetView& jobs,
                                std::span<const JobId> candidates,
                                std::size_t machine_count,
                                GreedyScratch& scratch, Schedule& out);

}  // namespace pobp
