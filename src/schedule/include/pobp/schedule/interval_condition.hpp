// The classic interval feasibility condition for preemptive single-machine
// scheduling with release times and deadlines:
//
//   a job set S is schedulable with unbounded preemption  ⟺
//   for every interval [r, d] with r a release time and d a deadline,
//       Σ_{j ∈ S : r ≤ r_j, d_j ≤ d} p_j  ≤  d − r.
//
// (⇒ is conservation of machine time; ⇐ is witnessed by EDF.)  The solvers
// use this as an O(n²) feasibility oracle, and the EDF simulator is tested
// to agree with it on random subsets.
#pragma once

#include <optional>
#include <span>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/schedule/job.hpp"

namespace pobp {

/// True iff `subset` of `jobs` is feasible on one machine with unbounded
/// preemption.  O(n log n + n²) worst case, n = |subset|.
bool preemptive_feasible(const JobSet& jobs, std::span<const JobId> subset);

/// Reports every overloaded interval as rule POBP-INT-001: for each release
/// point r whose demand overflows, one finding at the *first* deadline d
/// (in deadline order) where Σ p_j over jobs with windows inside [r, d]
/// exceeds d − r.  `severity` defaults to the registry's (error); pass
/// kWarning when linting whole instances, where "not all jobs fit" is
/// expected rather than a defect.
void diagnose_interval_condition(
    const JobSet& jobs, std::span<const JobId> subset, diag::Report& report,
    std::optional<diag::Severity> severity = std::nullopt);

/// Stack-shaped oracle for branch-and-bound: jobs are added one at a time
/// and popped in reverse.  Each try_add re-runs the full O(n²) sweep of
/// preemptive_feasible over the members plus the new job; at the B&B's
/// depths (n ≤ ~26) that is cheaper than keeping incremental state.
class FeasibilityOracle {
 public:
  explicit FeasibilityOracle(const JobSet& jobs) : jobs_(&jobs) {}

  /// True iff the current set plus `id` is feasible; if so, commits `id`.
  bool try_add(JobId id);

  /// Removes the most recently added job (stack discipline).
  void pop();

  std::size_t size() const { return members_.size(); }
  std::span<const JobId> members() const { return members_; }

 private:
  const JobSet* jobs_;
  std::vector<JobId> members_;
};

}  // namespace pobp
