// E5 — Theorem 4.2: the price as a function of n on random workloads.
// Random laminar ∞-schedules (OPT∞ = total value by construction) of
// growing size; the §4.2 reduction must stay within log_{k+1} n, and in
// practice pays far less.  Also ablates the forest pruner: optimal TM
// versus LevelledContraction (the algorithm the proof analyses).
#include <mutex>

#include "bench_common.hpp"
#include "pobp/pobp.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/util/parallel.hpp"
#include "pobp/util/stats.hpp"

namespace pobp {
namespace {

struct Row {
  RunningStats price_tm;
  RunningStats price_lc;
  RunningStats forest_depth_proxy;
};

Row sweep(std::size_t n, std::size_t k, std::size_t seeds) {
  Row row;
  std::mutex mu;
  parallel_for(0, seeds, [&](std::size_t seed) {
    Rng rng(0xF00D + seed);
    LaminarGenConfig config;
    config.target_jobs = n;
    config.max_children = 2 + seed % 5;
    config.value_dist = seed % 2 == 0
                            ? LaminarGenConfig::ValueDist::kUniform
                            : LaminarGenConfig::ValueDist::kDepthGrow;
    const LaminarInstance inst = random_laminar_instance(config, rng);
    const Value total = inst.jobs.total_value();

    const Schedule laminar(laminarize(inst.jobs, inst.schedule));
    SolveScratch scratch;
    Schedule tm_schedule;
    Schedule lc_schedule;
    const CombinedMultiValues tm = k_preemption_combined_multi_into(
        inst.jobs, laminar, {.k = k, .use_tm = true}, nullptr, scratch,
        tm_schedule);
    const CombinedMultiValues lc = k_preemption_combined_multi_into(
        inst.jobs, laminar, {.k = k, .use_tm = false}, nullptr, scratch,
        lc_schedule);
    POBP_ASSERT(validate(inst.jobs, tm_schedule, k).ok);
    POBP_ASSERT(validate(inst.jobs, lc_schedule, k).ok);

    std::lock_guard lock(mu);
    row.price_tm.add(total / tm.value);
    row.price_lc.add(total / lc.value);
  });
  return row;
}

}  // namespace
}  // namespace pobp

int main() {
  using namespace pobp;
  bench::banner(
      "E5", "Theorem 4.2 (price vs n on random ∞-schedules)",
      "price of the reduction ≤ log_{k+1} n on every instance; TM (optimal "
      "pruning) ≤ LevelledContraction (analyzed pruning)");

  for (const std::size_t k : {1, 2, 4}) {
    Table table("random laminar schedules, k=" + std::to_string(k) +
                    " (12 seeds each)",
                {"~n", "mean price(TM)", "max price(TM)", "mean price(LC)",
                 "max price(LC)", "log_{k+1} n", "bound ok"});
    for (const std::size_t n :
         {std::size_t{100}, std::size_t{1000}, std::size_t{10'000},
          std::size_t{50'000}}) {
      const Row row = sweep(n, k, 12);
      const double bound = log_k1(k, static_cast<double>(n));
      const bool ok = row.price_tm.max() <= bound && row.price_lc.max() <= bound;
      table.add_row({Table::fmt(static_cast<std::uint64_t>(n)),
                     Table::fmt(row.price_tm.mean(), 3),
                     Table::fmt(row.price_tm.max(), 3),
                     Table::fmt(row.price_lc.mean(), 3),
                     Table::fmt(row.price_lc.max(), 3), Table::fmt(bound, 3),
                     ok ? "yes" : "NO"});
    }
    bench::emit(table);
  }
  return 0;
}
