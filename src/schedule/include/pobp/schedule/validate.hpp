// Feasibility validation (Def. 2.1 a–c, plus the multi-machine extension).
//
// The validator is the single source of truth for "is this a feasible
// k-preemptive schedule"; every algorithm's output in tests and benches is
// pushed through it.  Checks emit structured diagnostics (stable rule ids,
// see pobp/diag/registry.hpp) through a diag::Report, reporting *every*
// violation; the historical first-failure ValidationResult interface is
// kept as a thin shim over the same engine.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/schedule/schedule.hpp"
#include "pobp/util/radix.hpp"

namespace pobp {

/// Preemption bound meaning "unbounded" (k = ∞).
inline constexpr std::size_t kUnboundedPreemptions =
    std::numeric_limits<std::size_t>::max();

struct ValidationResult {
  bool ok = true;
  std::string error;  // empty when ok

  explicit operator bool() const { return ok; }

  static ValidationResult failure(std::string why) {
    return {false, std::move(why)};
  }
};

// --- diagnostics engine -----------------------------------------------------

/// Checks one job's raw assignment (rules POBP-SCHED-001..007): known job
/// id, non-empty segment list, per-segment positive length, sortedness and
/// intra-job disjointness, window containment, exact processed length, and
/// the preemption budget.  Appends every violation to `report`; `machine`
/// only decorates locations.  Works on *raw* assignments — segments need
/// not be normalized — so lint can run it on untrusted CSV rows.
void diagnose_assignment(const JobSet& jobs, const Assignment& assignment,
                         std::size_t k, diag::Report& report,
                         std::optional<std::size_t> machine = std::nullopt);

/// Per-assignment checks for a whole machine plus machine exclusivity
/// (POBP-SCHED-008: no two jobs overlap).  Appends all violations.
void diagnose_machine(const JobSet& jobs, const MachineSchedule& ms,
                      std::size_t k, diag::Report& report,
                      std::optional<std::size_t> machine = std::nullopt);

/// Raw-span variant of diagnose_machine for unnormalized input (the lint
/// path): same rules, including cross-job overlap over all segments.
void diagnose_assignments(const JobSet& jobs,
                          std::span<const Assignment> assignments,
                          std::size_t k, diag::Report& report,
                          std::optional<std::size_t> machine = std::nullopt);

/// Multi-machine: every machine's checks plus non-migration
/// (POBP-SCHED-009).  Appends all violations across all machines.
void diagnose_schedule(const JobSet& jobs, const Schedule& schedule,
                       std::size_t k, diag::Report& report);

/// Raw multi-machine variant: one unnormalized assignment vector per
/// machine (io::group_schedule_rows output).  Same rules as
/// diagnose_schedule, including non-migration.
void diagnose_raw_schedule(const JobSet& jobs,
                           std::span<const std::vector<Assignment>> machines,
                           std::size_t k, diag::Report& report);

// --- first-failure shims ----------------------------------------------------

/// Checks that `ms` is a feasible k-preemptive schedule of a subset of
/// `jobs` on one machine:
///   * every segment lies in [r_j, d_j) and has positive length,
///   * each job's segments are pairwise disjoint and sum to exactly p_j,
///   * segments of different jobs do not overlap,
///   * no job has more than k preemptions (k+1 segments).
/// Reports the first violation found by the diagnostics engine.
ValidationResult validate_machine(const JobSet& jobs,
                                  const MachineSchedule& ms,
                                  std::size_t k = kUnboundedPreemptions);

/// Multi-machine version: each machine feasible, and no job appears on two
/// machines (non-migrative setting).
ValidationResult validate(const JobSet& jobs, const Schedule& schedule,
                          std::size_t k = kUnboundedPreemptions);

// --- allocation-free fast path ----------------------------------------------

/// Reusable buffers for validate_fast().  The per-job `seen` array is
/// maintained sparsely (entries touched are restored before returning), so
/// one scratch serves instances of any size without a full reset.
struct ValidateScratch {
  std::vector<std::uint8_t> seen;  ///< per job id: already placed on a machine
  std::vector<JobId> touched;      ///< seen[] entries to restore
  RadixSort sweep;                 ///< exclusivity sweep: (begin, index)
  std::vector<Time> sweep_end;     ///< segment ends by index
};

/// Verdict-only validator: true iff validate(jobs, schedule, k) would find
/// no violation.  Checks exactly the same predicates but builds no
/// diag::Report and performs zero heap allocations once `scratch` is
/// warmed — the engine's hot path runs this and defers Report (string)
/// construction to the error path.
bool validate_fast(const JobSet& jobs, const Schedule& schedule, std::size_t k,
                   ValidateScratch& scratch);

}  // namespace pobp
