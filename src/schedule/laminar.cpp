#include "pobp/schedule/laminar.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "pobp/diag/registry.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/faultinject.hpp"

namespace pobp {
namespace {

/// Timeline sweep shared by the predicate and the diagnoser.  Keeps a stack
/// of open jobs, outermost first; finished jobs are popped as soon as they
/// reach the top, so every non-top stack entry is open.  A segment whose
/// job already sits below the top therefore proves that some job above it
/// still has a future segment — exactly the pattern a₁ ≺ b₁ ≺ a₂ ≺ b₂.
/// `on_violation(resumed, witness)` is called once per violating segment
/// with the innermost still-open job above the resumed one; returning false
/// stops the sweep.
template <typename ViolationFn>
void laminar_sweep(const MachineSchedule& ms, ViolationFn&& on_violation) {
  const auto timeline = ms.timeline();

  // Remaining-segment counter and stack-membership flag per job.  Flat
  // arrays keyed by job id keep the sweep O(S) even when the nesting stack
  // is deep (a std::find over the stack would be quadratic on chains).
  JobId max_id = 0;
  for (const auto& ts : timeline) max_id = std::max(max_id, ts.job);
  std::vector<std::size_t> remaining(timeline.empty() ? 0 : max_id + 1, 0);
  std::vector<char> on_stack(remaining.size(), 0);
  for (const auto& ts : timeline) ++remaining[ts.job];

  std::vector<JobId> stack;
  for (const auto& ts : timeline) {
    while (!stack.empty() && remaining[stack.back()] == 0) {
      on_stack[stack.back()] = 0;
      stack.pop_back();
    }
    if (stack.empty() || stack.back() != ts.job) {
      if (on_stack[ts.job]) {
        // Resumed under an open job: interleaving.  Leave the stack as-is
        // (the job is already recorded) so the sweep stays consistent.
        if (!on_violation(ts, stack.back())) return;
      } else {
        stack.push_back(ts.job);
        on_stack[ts.job] = 1;
      }
    }
    --remaining[ts.job];
  }
}

/// Laminarity check over an EDF run log using scratch buffers only.  EDF
/// output is laminar by construction; this is the always-on defense against
/// simulator regressions, same as the is_laminar() check on the allocating
/// path.  The sweep state is indexed by the runs' window slots, so it is
/// sized by the subset and rebuilt on every call.
bool runs_are_laminar(std::span<const EdfScratch::Run> runs,
                      std::size_t slot_count, LaminarScratch& s) {
  s.remaining.assign(slot_count, 0);
  s.on_stack.assign(slot_count, 0);
  for (const auto& run : runs) ++s.remaining[run.slot];

  s.stack.clear();
  for (const auto& run : runs) {
    while (!s.stack.empty() && s.remaining[s.stack.back()] == 0) {
      s.on_stack[s.stack.back()] = 0;
      s.stack.pop_back();
    }
    if (s.stack.empty() || s.stack.back() != run.slot) {
      if (s.on_stack[run.slot]) return false;
      s.stack.push_back(run.slot);
      s.on_stack[run.slot] = 1;
    }
    --s.remaining[run.slot];
  }
  return true;
}

}  // namespace

bool is_laminar(const MachineSchedule& ms) {
  bool laminar = true;
  laminar_sweep(ms, [&](const MachineSchedule::TaggedSegment&, JobId) {
    laminar = false;
    return false;  // first violation settles the predicate
  });
  return laminar;
}

void diagnose_laminar(const MachineSchedule& ms, diag::Report& report,
                      std::optional<std::size_t> machine) {
  laminar_sweep(ms, [&](const MachineSchedule::TaggedSegment& ts,
                        JobId witness) {
    std::ostringstream os;
    os << "job#" << ts.job << " resumes at [" << ts.segment.begin << ", "
       << ts.segment.end << ") while job#" << witness
       << " is still open (interleaving a1 < b1 < a2 < b2)";
    diag::Location loc;
    loc.machine = machine;
    loc.job = ts.job;
    loc.begin = ts.segment.begin;
    loc.end = ts.segment.end;
    report.add(std::string(diag::rules::kLaminarInterleaving), os.str(), loc)
        .with("open_job", static_cast<std::int64_t>(witness));
    return true;  // keep sweeping: report every interleaving
  });
}

bool laminar_edf_schedule_into(const JobSetView& jobs,
                               std::span<const JobId> ids,
                               LaminarScratch& scratch, MachineSchedule& out) {
  if (!edf_schedule_into(jobs, ids, scratch.edf, out)) return false;
  POBP_CHECK(
      runs_are_laminar(scratch.edf.runs, scratch.edf.id.size(), scratch));
  return true;
}

void laminarize_subset_into(const JobSet& jobs, std::span<const JobId> ids,
                            LaminarScratch& scratch, MachineSchedule& out) {
  POBP_FAULT_POINT(kLaminarize);
  BudgetGuard::poll();
  POBP_CHECK_MSG(laminar_edf_schedule_into(jobs, ids, scratch, out),
                 "laminarize: input schedule's job set must be feasible");
}

void laminarize_into(const JobSet& jobs, const MachineSchedule& ms,
                     LaminarScratch& scratch, MachineSchedule& out) {
  POBP_ASSERT(&ms != &out);
  scratch.ids.clear();
  scratch.ids.reserve(ms.job_count());
  for (const Assignment& a : ms.assignments()) scratch.ids.push_back(a.job);
  laminarize_subset_into(jobs, scratch.ids, scratch, out);
}

MachineSchedule laminarize(const JobSet& jobs, const MachineSchedule& ms) {
  LaminarScratch scratch;
  MachineSchedule out;
  laminarize_into(jobs, ms, scratch, out);
  return out;
}

}  // namespace pobp
