// E6 — Theorem 4.5 / Lemma 4.10: the price as a function of P = p_max/p_min.
// Two regimes:
//   (a) small congested lax instances with the *exact* OPT∞ (B&B): LSA_CS
//       and the combined algorithm must stay within 6·log_{k+1} P;
//   (b) large lax instances (exact OPT out of reach): price measured
//       against the total-value upper bound on OPT∞ — an over-estimate,
//       so the reported price is itself an upper bound on the true one.
#include <mutex>

#include "bench_common.hpp"
#include "pobp/pobp.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/util/parallel.hpp"
#include "pobp/util/stats.hpp"

namespace pobp {
namespace {

JobGenConfig lax_config(std::size_t n, Duration max_len, std::size_t k) {
  JobGenConfig config;
  config.n = n;
  config.min_length = 1;
  config.max_length = max_len;
  config.min_laxity = static_cast<double>(k + 1);
  config.max_laxity = static_cast<double>(2 * (k + 1));
  config.horizon = static_cast<Time>(
      std::max<Duration>(2048, 8 * max_len * static_cast<Duration>(k + 1)));
  config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
  return config;
}

void exact_regime(std::size_t k) {
  Table table("exact regime (n=16, congested), k=" + std::to_string(k) +
                  " (10 seeds each)",
              {"P<=", "mean price", "max price", "6*log_{k+1}P", "bound ok"});
  for (const Duration max_len : {Duration{8}, Duration{64}, Duration{512},
                                 Duration{4096}}) {
    RunningStats price;
    std::mutex mu;
    parallel_for(0, 10, [&](std::size_t seed) {
      Rng rng(0xCAFE + seed);
      JobGenConfig config = lax_config(16, max_len, k);
      config.horizon = 40 * max_len;  // congested: OPT∞ must reject jobs
      const JobSet jobs = random_jobs(config, rng);

      const SubsetSolution opt = opt_infinity(jobs, all_ids(jobs));
      const auto seed_schedule = edf_schedule(jobs, opt.members);
      POBP_ASSERT(seed_schedule.has_value());
      SolveScratch scratch;
      Schedule schedule;
      const CombinedMultiValues alg = k_preemption_combined_multi_into(
          jobs, Schedule(*seed_schedule), {.k = k}, nullptr, scratch,
          schedule);

      std::lock_guard lock(mu);
      price.add(opt.value / alg.value);
    });
    const double bound = 6.0 * log_k1(k, static_cast<double>(max_len));
    table.add_row({Table::fmt(static_cast<std::int64_t>(max_len)),
                   Table::fmt(price.mean(), 3), Table::fmt(price.max(), 3),
                   Table::fmt(bound, 3),
                   price.max() <= bound ? "yes" : "NO"});
  }
  bench::emit(table);
}

void scale_regime(std::size_t k) {
  Table table("scale regime (n=4000, price vs total-value bound), k=" +
                  std::to_string(k) + " (6 seeds each)",
              {"P<=", "mean price<=", "max price<=", "6*log_{k+1}P"});
  for (const Duration max_len :
       {Duration{16}, Duration{256}, Duration{4096}, Duration{65536}}) {
    RunningStats price;
    std::mutex mu;
    parallel_for(0, 6, [&](std::size_t seed) {
      Rng rng(0xBEEF + seed);
      JobGenConfig config = lax_config(4000, max_len, k);
      const JobSet jobs = random_jobs(config, rng);
      const LsaResult alg = lsa_cs(jobs, all_ids(jobs), k);
      POBP_ASSERT(validate_machine(jobs, alg.schedule, k).ok);
      std::lock_guard lock(mu);
      price.add(jobs.total_value() / alg.schedule.total_value(jobs));
    });
    table.add_row({Table::fmt(static_cast<std::int64_t>(max_len)),
                   Table::fmt(price.mean(), 3), Table::fmt(price.max(), 3),
                   Table::fmt(6.0 * log_k1(k, static_cast<double>(max_len)),
                              3)});
  }
  bench::emit(table);
}

}  // namespace
}  // namespace pobp

int main() {
  using namespace pobp;
  bench::banner(
      "E6", "Theorem 4.5 + Lemma 4.10 (price vs P on lax workloads)",
      "LSA_CS/combined stay within 6·log_{k+1} P of OPT∞; the measured "
      "price grows much slower than the bound as P sweeps 4 decades");
  for (const std::size_t k : {1, 2}) {
    exact_regime(k);
    scale_regime(k);
  }
  return 0;
}
