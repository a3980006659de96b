// Traced single-thread replay of one solve through the layers' public entry
// points, in the order Session::solve_pipeline_into and
// k_preemption_combined_multi_into call them, with a span around each call.
// The replay's ScheduleResult must be byte-identical to the engine's answer
// for the same request; that is what shows the spans timed the same work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common.hpp"
#include "pobp/core/pobp.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/engine/cache.hpp"
#include "pobp/engine/submit.hpp"

namespace perfbench {

/// Counts taken at the replay's call boundaries.
struct ReplayCounts {
  std::uint64_t solves = 0;
  std::uint64_t failed = 0;  ///< budget fired without a degrade policy
  std::uint64_t invalid = 0;  ///< validate_fast said no
  std::uint64_t seeds = 0;  ///< seed runs, budget-aborted ones included
  std::uint64_t edf_probes = 0;  ///< BudgetGuard polls during the seeds
  std::uint64_t prunes = 0;
  std::uint64_t fork_eligible = 0;  ///< forest >= tm_fork_min_nodes
  std::uint64_t forest_nodes = 0;
  std::uint64_t kept_nodes = 0;
  std::uint64_t lax_offered = 0;
  std::uint64_t lax_placed = 0;
  std::uint64_t combined = 0;  ///< Alg. 3 runs
  std::uint64_t win_full = 0;
  std::uint64_t win_strict = 0;
  std::uint64_t win_lax = 0;
  std::int64_t branch_ns = 0;
  std::int64_t losing_branch_ns = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t delta_found = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  // The Alg. 3 step of patched requests re-run untraced with and without
  // the neighbour hint.
  std::uint64_t delta_replays = 0;
  std::uint64_t delta_mismatch = 0;  ///< re-runs that changed the answer
  std::int64_t delta_with_ns = 0;
  std::int64_t delta_without_ns = 0;
  std::int64_t delta_solve_ns = 0;  ///< traced solves of patched requests
  std::vector<double> forest_sizes;  ///< nodes per forest build
};

/// One request as the engine saw it.
struct ReplayRequest {
  const pobp::JobSet* jobs = nullptr;
  pobp::ScheduleOptions options;
  std::optional<pobp::SolveBudget> budget;  ///< per-request override
  bool degrade = false;  ///< DegradePolicy::kApproximate on budget exhaustion
  pobp::CacheMode cache_mode = pobp::CacheMode::kReadWrite;
};

class Replayer {
 public:
  /// `cache` may be null (cache off); when set it must start in the state
  /// the engine's cache started in (empty) and see requests in order.
  Replayer(Tracer& tracer, pobp::SolveCache* cache);

  /// Replays one request.  Returns false when the engine would have
  /// answered with a report (no result); `out` is then reset.
  bool solve(std::uint32_t request, const ReplayRequest& req,
             pobp::ScheduleResult& out);

  ReplayCounts counts;

 private:
  bool run(std::uint32_t request, std::int32_t root, const ReplayRequest& req,
           pobp::ScheduleResult& out);
  void measure_delta(const ReplayRequest& req,
                     const pobp::ScheduleResult& answer);
  void pipeline(std::uint32_t request, std::int32_t root,
                const ReplayRequest& req, pobp::ScheduleResult& out);
  void degraded(std::uint32_t request, std::int32_t root,
                const ReplayRequest& req, pobp::ScheduleResult& out);
  /// The greedy ∞-preemptive seed into s_.seed: the exact pipeline's
  /// seed_unbounded_schedule_into, or the approximate path's
  /// greedy_infinity_multi_into.
  void seed(std::uint32_t request, std::int32_t parent,
            const pobp::JobSet& jobs, const pobp::ScheduleOptions& options,
            bool approximate);
  /// Mirror of k_preemption_combined_multi_into.
  void combined(std::uint32_t request, std::int32_t parent,
                const pobp::JobSet& jobs, const pobp::CombinedOptions& options,
                const pobp::SolveDeltaHint* delta, pobp::Schedule& out);
  pobp::CacheKey key(std::uint32_t request, std::int32_t parent,
                     const pobp::JobSet& jobs,
                     const pobp::ScheduleOptions& options, bool approximate,
                     std::uint64_t& params_sig);

  Tracer& tracer_;
  pobp::SolveCache* cache_;
  pobp::SolveScratch s_;
  pobp::SolveCache::DeltaNeighbor delta_;
  bool patched_ = false;  ///< the current request used a delta hint
};

/// Digest of a result's schedule (assignments in order, segment bounds)
/// and its value, unbounded value and degraded flag: equal digests mean
/// byte-identical results.
std::uint64_t result_digest(const pobp::ScheduleResult& result);

}  // namespace perfbench
