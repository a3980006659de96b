// Per-stage metrics for the batch-solve engine.
//
// Every Session accumulates one EngineMetrics shard while it solves;
// Engine::metrics() merges the shards into a snapshot.  The schema is
// documented in docs/ENGINE.md and is exported two ways: an ASCII table
// (to_table) for terminals and a single JSON object (to_json) for
// dashboards and CI artifacts.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "pobp/core/pobp.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/util/stats.hpp"
#include "pobp/util/timing.hpp"

namespace pobp {

/// The pipeline stages the engine times (order = report order).
enum class Stage : std::size_t {
  kSeed = 0,    ///< ∞-preemptive reference schedule
  kLaminarize,  ///< restrict + laminarize (§4.1)
  kForest,      ///< build_schedule_forest
  kPrune,       ///< TM / LevelledContraction k-BAS pruning
  kLsa,         ///< LSA_CS branches (whole §5 path when k = 0)
  kMerge,       ///< left-merge rebuild (Lemma 4.1)
  kValidate,    ///< Def. 2.1 validation of the result
};
inline constexpr std::size_t kStageCount = 7;

std::string_view to_string(Stage stage);

/// Fixed-edge histogram: counts_[0] = (-inf, edges[0]), counts_[i] =
/// [edges[i-1], edges[i]), counts_.back() = [edges.back(), +inf).
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void add(double x);
  void merge(const Histogram& other);  ///< edges must match

  const std::vector<double>& edges() const { return edges_; }
  const std::vector<std::size_t>& counts() const { return counts_; }
  std::size_t total() const;

  /// "[1.5, 2)" / "< 1" / ">= 10" — the i-th bucket's label.
  std::string bucket_label(std::size_t i) const;

 private:
  std::vector<double> edges_;          // ascending
  std::vector<std::size_t> counts_;    // edges_.size() + 1 buckets
};

/// Aggregated over every instance a Session / Engine solved.
struct EngineMetrics {
  EngineMetrics();

  std::size_t instances = 0;
  std::size_t validation_failures = 0;  ///< should stay 0
  std::size_t jobs_seen = 0;            ///< Σ n over instances
  std::size_t jobs_scheduled = 0;
  std::size_t preemptions = 0;          ///< Σ preemptions over all jobs
  std::size_t infinite_prices = 0;      ///< value == 0 < unbounded_value

  // Fault-containment counters (the try_solve paths; docs/ROBUSTNESS.md).
  std::size_t degraded_solves = 0;      ///< budget hit → approximate fallback
  std::size_t pipeline_faults = 0;      ///< POBP-RUN-001 reports
  std::size_t deadline_exceeded = 0;    ///< POBP-RUN-002 reports
  std::size_t budget_exhausted = 0;     ///< POBP-RUN-003 reports
  std::size_t retries = 0;              ///< pipeline re-attempts (retry policy)

  // Solve-cache counters (docs/CACHE.md).  Hits/misses are counted at the
  // session, not the cache, so a shared SolveCache still yields per-engine
  // numbers; every lookup is one hit or one miss, as in
  // SolveCache::stats().  delta_patches counts solves that reused a
  // near-duplicate neighbor's stage schedules.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_insertions = 0;
  std::size_t cache_evictions = 0;
  std::size_t cache_delta_patches = 0;

  // Algorithm-3 branch provenance (docs/PERF.md, "Algorithm 3: settled
  // branches"): exact k ≥ 1 solves that ran Algorithm 3, how many settled
  // their strict / lax branch from its value bound instead of running it,
  // and the strict-branch machines copied from the full branch.
  std::size_t alg3_runs = 0;
  std::size_t strict_settled = 0;
  std::size_t lax_settled = 0;
  std::size_t strict_machines_copied = 0;

  // How the greedy seeds' admission probes were decided, summed over every
  // seed stage that ran (docs/PERF.md, "Greedy seed"); the exact seed
  // makes none.
  AdmissionCounts seed_probes;

  Value value_bounded = 0;              ///< Σ val(schedule)
  Value value_unbounded = 0;            ///< Σ val(seed schedule)
  double batch_seconds = 0;             ///< wall time of solve_batch calls

  RunningStats solve_seconds;           ///< per-instance end-to-end
  RunningStats price;                   ///< finite prices only
  std::array<RunningStats, kStageCount> stage_seconds;

  Histogram price_histogram;
  Histogram value_histogram;            ///< per-instance bounded value

  /// Folds one solved instance into the accumulators.  `timings` is
  /// nullptr when no stage ran (a cache hit): `seconds` still counts
  /// toward solve_seconds, but no stage sample is added.
  void record(const JobSet& jobs, const ScheduleResult& result,
              const PipelineTimings* timings, double seconds, bool valid);

  /// Folds one Algorithm-3 run's provenance into the branch counters.
  void record_branches(const CombinedMultiValues& branches);

  void merge(const EngineMetrics& other);

  /// Instances per wall-clock second of batch time (0 when unknown).
  double instances_per_second() const;

  std::string to_table() const;
  std::string to_json() const;
};

}  // namespace pobp
