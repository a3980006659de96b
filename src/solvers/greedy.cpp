// Greedy ∞-preemptive heuristic (density order + EDF admission check).
#include <algorithm>

#include "pobp/schedule/laminar.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"

namespace pobp {

namespace {

/// Copies `candidates` into `scratch.residual`, sorted by denser_first.
void sort_densest_first(const JobSetView& jobs,
                        std::span<const JobId> candidates,
                        GreedyScratch& scratch) {
  auto& order = scratch.residual;
  order.assign(candidates.begin(), candidates.end());
  std::sort(order.begin(), order.end(),
            [&](JobId a, JobId b) { return denser_first(jobs, a, b); });
}

/// One machine pass over `order`, which is sorted by denser_first.
void greedy_pass_into(const JobSetView& jobs, std::span<const JobId> order,
                      GreedyScratch& scratch, MachineSchedule& out) {
  // Trial acceptance needs only feasibility, and only inside the busy
  // window each candidate touches; the schedule of the final accepted set
  // is the same EDF run either way, so one materialization at the end
  // replaces one per accepted candidate.
  auto& admission = scratch.admission;
  admission.clear();
  for (const JobId id : order) {
    BudgetGuard::poll();
    (void)admission.try_admit(jobs, id, scratch.laminar.edf);
  }
  scratch.probes += admission.counts();
  if (admission.admitted().empty()) {
    out.clear();
    return;
  }
  POBP_CHECK_MSG(laminar_edf_schedule_into(jobs, admission.admitted(),
                                           scratch.laminar, out),
                 "greedy accepted set must be EDF-feasible");
}

}  // namespace

MachineSchedule greedy_infinity(const JobSetView& jobs,
                                std::span<const JobId> candidates) {
  GreedyScratch scratch;
  MachineSchedule out;
  sort_densest_first(jobs, candidates, scratch);
  greedy_pass_into(jobs, scratch.residual, scratch, out);
  return out;
}

void greedy_infinity_multi_into(const JobSetView& jobs,
                                std::span<const JobId> candidates,
                                std::size_t machine_count,
                                GreedyScratch& scratch, Schedule& out) {
  POBP_CHECK(machine_count >= 1);
  out.reset(machine_count);
  scratch.probes = {};
  // denser_first is a strict total order and erase_if keeps the order of
  // what it leaves, so the residual stays sorted across the passes.
  sort_densest_first(jobs, candidates, scratch);
  auto& remaining = scratch.residual;
  for (std::size_t m = 0; m < machine_count && !remaining.empty(); ++m) {
    greedy_pass_into(jobs, remaining, scratch, out.machine(m));
    std::erase_if(remaining,
                  [&](JobId id) { return out.machine(m).contains(id); });
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
