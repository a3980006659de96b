// E4 — Fig. 4 / Appendix B / Theorems 4.3 & 4.13: the PoBP lower bound.
// Instantiates the Appendix-B job set with K = 2k for growing L, verifies
// OPT∞ = total value by running EDF over all jobs, runs the full bounded
// pipeline, and reports the realized price against log_{k+1} P and
// log_{k+1} n.  The paper's claim: price = Ω(log_{k+1} P) = Ω(log_{k+1} n)
// — the ratio column grows ~linearly in L while any k-bounded schedule
// stays below the Lemma-B.2 cap.
#include <cmath>

#include "bench_common.hpp"
#include "pobp/pobp.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/gen/lower_bounds.hpp"

namespace pobp {
namespace {

void run_for_k(std::size_t k) {
  const std::int64_t K = 2 * static_cast<std::int64_t>(k);
  const std::size_t max_L = pobp_lower_bound_max_L(K, 600'000);
  Table table(
      "Appendix-B instance, k=" + std::to_string(k) + ", K=" +
          std::to_string(K),
      {"L", "n", "P", "OPT_inf", "ALG_k", "LemmaB2 cap", "price", "log_{k+1}P",
       "price/log"});

  for (std::size_t L = 1; L <= max_L; ++L) {
    const PobpLowerBoundInstance inst = pobp_lower_bound_instance(k, K, L);

    // OPT∞ witness: EDF schedules every job.
    const auto witness = edf_schedule(inst.jobs, all_ids(inst.jobs));
    POBP_ASSERT_MSG(witness.has_value(),
                    "Appendix-B instance must be fully feasible");
    POBP_ASSERT(validate_machine(inst.jobs, *witness).ok);

    SolveScratch scratch;
    Schedule schedule;
    const CombinedMultiValues alg = k_preemption_combined_multi_into(
        inst.jobs, Schedule(*witness), {.k = k}, nullptr, scratch, schedule);
    POBP_ASSERT(validate(inst.jobs, schedule, k).ok);

    const double price = inst.total_value / alg.value;
    const double log_p = log_k1(k, inst.P);
    table.add_row(
        {Table::fmt(static_cast<std::int64_t>(L)),
         Table::fmt(static_cast<std::uint64_t>(inst.jobs.size())),
         Table::fmt(inst.P, 0), Table::fmt(inst.total_value, 0),
         Table::fmt(alg.value, 1), Table::fmt(inst.opt_k_upper, 1),
         Table::fmt(price, 3), Table::fmt(log_p, 3),
         Table::fmt(price / log_p, 4)});
  }
  bench::emit(table);
}

}  // namespace
}  // namespace pobp

int main() {
  pobp::bench::banner(
      "E4", "Fig. 4 + Appendix B (Theorems 4.3 / 4.13)",
      "on the K=2k instance every k-bounded schedule stays below the "
      "Lemma-B.2 cap while OPT∞ takes everything: the price grows "
      "Ω(log_{k+1} P) (price/log ~ constant)");
  for (const std::size_t k : {1, 2, 3}) pobp::run_for_k(k);
  return 0;
}
