// Greedy ∞-preemptive heuristic (density order + EDF admission check).
#include <algorithm>
#include <cmath>

#include "pobp/schedule/laminar.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"

namespace pobp {

namespace {

/// Sign of x1·y1 − x2·y2, exactly, for finite x ≥ 0 and integer-valued
/// y ≥ 1 (a value and a length converted to double).
///
/// Rounding is monotone, so unequal rounded products already order the
/// exact ones.  Equal finite ones are told apart by their rounding errors,
/// which fma computes exactly: x·y is a multiple of the last bit of x
/// (≥ 2^-1074, y being an integer), so the error is a multiple of 2^-1074
/// holding at most 53 significant bits — and 0 when the product rounds
/// into the subnormal range, where half an ulp is below 2^-1074.  Two
/// products that both overflow to +inf have x ≥ 2^960 (y ≤ 2^63), so
/// scaling both x by 2^-64 is exact and brings both products back into
/// range.
int compare_products(double x1, double y1, double x2, double y2) {
  double p1 = x1 * y1;
  double p2 = x2 * y2;
  if (p1 == p2 && std::isinf(p1)) {
    x1 = std::ldexp(x1, -64);
    x2 = std::ldexp(x2, -64);
    p1 = x1 * y1;
    p2 = x2 * y2;
  }
  if (p1 != p2) return p1 < p2 ? -1 : 1;
  const double e1 = std::fma(x1, y1, -p1);
  const double e2 = std::fma(x2, y2, -p2);
  return (e1 > e2) - (e1 < e2);
}

/// One machine pass over `candidates`.
void greedy_pass_into(const JobSetView& jobs, std::span<const JobId> candidates,
                      GreedyScratch& scratch, MachineSchedule& out) {
  auto& order = scratch.order;
  order.assign(candidates.begin(), candidates.end());
  std::sort(order.begin(), order.end(),
            [&](JobId a, JobId b) { return denser_first(jobs, a, b); });

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

bool denser_first(const JobSetView& jobs, JobId a, JobId b) {
  const int c = compare_products(
      jobs.value[a], static_cast<double>(jobs.length[b]), jobs.value[b],
      static_cast<double>(jobs.length[a]));
  return c != 0 ? c > 0 : a < b;
}

MachineSchedule greedy_infinity(const JobSetView& jobs,
                                std::span<const JobId> candidates) {
  GreedyScratch scratch;
  MachineSchedule out;
  greedy_pass_into(jobs, candidates, scratch, out);
  return out;
}

void greedy_infinity_multi_into(const JobSetView& jobs,
                                std::span<const JobId> candidates,
                                std::size_t machine_count,
                                GreedyScratch& scratch, Schedule& out) {
  POBP_CHECK(machine_count >= 1);
  out.reset(machine_count);
  scratch.probes = {};
  auto& remaining = scratch.residual;
  remaining.assign(candidates.begin(), candidates.end());
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
