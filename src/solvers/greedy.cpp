// Greedy ∞-preemptive heuristic (density order + EDF admission check).
#include <algorithm>

#include "pobp/schedule/laminar.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"

namespace pobp {

namespace {

/// One machine pass over the ranks in `scratch.residual`, densest first.
void greedy_pass_into(const JobSetView& jobs, GreedyScratch& scratch,
                      MachineSchedule& out) {
  // Trial acceptance needs only feasibility, and only inside the busy
  // window each candidate touches; the schedule of the final accepted set
  // is the same EDF run either way, so one materialization at the end
  // replaces one per accepted candidate.
  auto& admission = scratch.admission;
  admission.clear();
  for (const EdfAdmission::Rank r : scratch.residual) {
    BudgetGuard::poll();
    (void)admission.try_admit(r, scratch.laminar.edf);
  }
  scratch.probes += admission.counts();
  admission.admitted_ids(scratch.accepted);
  if (scratch.accepted.empty()) {
    out.clear();
    return;
  }
  POBP_CHECK_MSG(laminar_edf_schedule_into(jobs, scratch.accepted,
                                           scratch.laminar, out),
                 "greedy accepted set must be EDF-feasible");
}

}  // namespace

MachineSchedule greedy_infinity(const JobSetView& jobs,
                                std::span<const JobId> candidates) {
  GreedyScratch scratch;
  Schedule out(1);
  greedy_infinity_multi_into(jobs, candidates, 1, scratch, out);
  return std::move(out.machine(0));
}

void greedy_infinity_multi_into(const JobSetView& jobs,
                                std::span<const JobId> candidates,
                                std::size_t machine_count,
                                GreedyScratch& scratch, Schedule& out) {
  POBP_CHECK(machine_count >= 1);
  out.reset(machine_count);
  scratch.probes = {};
  // One ranking and one density sort serve every pass.  denser_first is a
  // strict total order and erase_if keeps the order of what it leaves, so
  // the residual stays densest first across the passes.
  auto& admission = scratch.admission;
  admission.rank(jobs, candidates, scratch.order);
  sort_denser_first(jobs, admission.ids(), scratch.order);
  auto& remaining = scratch.residual;
  remaining.resize(admission.size());
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    remaining[i] = scratch.order.entries[i].payload;  // a rank
  }
  for (std::size_t m = 0; m < machine_count && !remaining.empty(); ++m) {
    greedy_pass_into(jobs, scratch, out.machine(m));
    std::erase_if(remaining, [&](EdfAdmission::Rank r) {
      return admission.admitted(r);
    });
  }
}

Schedule greedy_infinity_multi(const JobSetView& jobs,
                               std::span<const JobId> candidates,
                               std::size_t machine_count) {
  GreedyScratch scratch;
  Schedule out(machine_count);
  greedy_infinity_multi_into(jobs, candidates, machine_count, scratch, out);
  return out;
}

}  // namespace pobp
