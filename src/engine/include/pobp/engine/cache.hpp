// Content-addressed solve cache with incremental delta re-solve
// (docs/CACHE.md).
//
// Serving streams are full of duplicate and near-duplicate instances: the
// same job set resubmitted by another tenant, or a set that differs from a
// recent one by a handful of jobs.  SolveCache memoizes finished
// ScheduleResults under a deterministic 128-bit structural hash of
// (jobs, solve parameters) so an exact duplicate is answered with one
// pooled copy-out instead of a pipeline run, and keeps enough per-entry
// state (the seed and per-branch stage schedules plus per-job sub-hashes)
// for the engine to *delta-solve* near-duplicates — re-running only the
// machines whose laminar forests the mutation actually touched (see
// SolveDeltaHint in pobp/core/pobp.hpp).
//
// Determinism contract: a solve result is a pure function of
// (jobs, options), so serving a memoized result is bit-identical to
// re-solving by construction — provided the cache never aliases two
// distinct inputs.  Three mechanisms enforce that:
//   * the key is a 128-bit mix with no std::hash dependence (POBP-SRC-010:
//     std::hash is implementation-defined and differs across libraries);
//   * a hit additionally verifies the stored job columns byte-for-byte, so
//     even a 128-bit collision cannot surface a wrong result;
//   * exact and approximate (degraded-path) results key under different
//     parameter signatures, so the Fu/Huo/Zhao-style sampled tier can
//     never alias an exact answer.
//
// Concurrency: the table is sharded (power-of-two shard count) with one
// annotated Mutex per shard; eviction is CLOCK/second-chance under a byte
// budget.  Entries are recycled in place (capacity-preserving), so a warm
// hit performs zero steady-state heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pobp/core/pobp.hpp"
#include "pobp/diag/diagnostic.hpp"
#include "pobp/schedule/job.hpp"
#include "pobp/util/thread_annotations.hpp"

namespace pobp {

struct SolveCacheOptions {
  /// Total byte budget across all shards.  Entries are CLOCK-evicted when
  /// a shard outgrows its share; an entry larger than a whole shard's
  /// share is simply not admitted.
  std::size_t max_bytes = std::size_t{64} << 20;

  /// Shard count, rounded up to a power of two (minimum 1).  Instances
  /// with the same (parameter signature, n) always map to the same shard
  /// so delta neighbors are found under a single lock.
  std::size_t shards = 8;

  /// Maximum number of mutated jobs for which a near-duplicate qualifies
  /// as a delta-solve neighbor (0 disables delta solving).
  std::size_t delta_max_jobs = 4;
};

/// The 128-bit structural key: an FNV/xxhash-style mix over the job
/// columns and the solve parameters (see SolveCache::instance_key).
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Point-in-time counters (aggregated across shards).
struct CacheStats {
  std::uint64_t hits = 0;         ///< exact-key copy-outs served
  std::uint64_t misses = 0;       ///< lookups that found nothing
  std::uint64_t insertions = 0;   ///< entries published
  std::uint64_t evictions = 0;    ///< entries CLOCK-evicted for space
  std::uint64_t delta_hits = 0;   ///< near-duplicate neighbors served
  std::uint64_t bytes = 0;        ///< resident entry bytes
  std::uint64_t entries = 0;      ///< live entries
};

class SolveCache {
 public:
  explicit SolveCache(SolveCacheOptions options = {});
  ~SolveCache();

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  // --- keying (allocation-free, no std::hash) -----------------------------

  /// Folds every result-affecting ScheduleOptions field (k, machine count,
  /// seed strategy, TM toggle) plus the exact/approximate tier into one
  /// signature.  tm_fork_min_nodes is deliberately excluded: results are
  /// bit-identical regardless of it.
  static std::uint64_t params_signature(const ScheduleOptions& options,
                                        bool approximate);

  /// Per-job 64-bit sub-hash of (release, deadline, length, value-bits):
  /// independent per job (vectorizable) and the unit of delta detection.
  /// `out` must have room for view.n values.
  static void job_subhashes(const JobSetView& view, std::uint64_t* out);

  /// The instance key: sub-hashes folded in canonical (job-id) order with
  /// positional mixing, then n and the parameter signature.  Job-id order
  /// *is* the canonical order here — JobIds are positional and results
  /// address jobs by id, so two attribute-wise equal sets in different
  /// orders have genuinely different (permuted) results and must not
  /// alias (docs/CACHE.md, "Canonicalization").
  static CacheKey instance_key(const JobSetView& view,
                               const std::uint64_t* subhashes,
                               std::uint64_t params_sig);

  // --- lookup / publish ----------------------------------------------------

  /// Exact hit: copies the memoized result into `out` via pooled
  /// assign_from (zero steady-state allocations) and returns true.  The
  /// stored job columns are verified byte-for-byte before serving, so a
  /// key collision degrades to a miss, never to a wrong result.
  bool try_get(const CacheKey& key, const JobSetView& jobs,
               std::uint64_t params_sig, ScheduleResult& out);

  /// Publishes a finished solve.  Pass the stage schedules (seed / strict
  /// branch / full-reduction branch) to make the entry a delta-solve
  /// neighbor for future near-duplicates; `strict_sched` may be nullptr
  /// when the solve settled its strict branch (the entry then carries the
  /// seed and full schedules only).  Pass nullptr seed and full (k = 0
  /// path, degraded path) for a result-only entry.  Idempotent on an
  /// existing key.  Returns the number of entries evicted to make room.
  std::size_t insert(const CacheKey& key, const JobSetView& jobs,
                     const std::uint64_t* subhashes, std::uint64_t params_sig,
                     const ScheduleResult& result, const Schedule* seed,
                     const Schedule* strict_sched, const Schedule* full_sched);

  // --- delta neighbors -----------------------------------------------------

  /// Pooled copy-out target for a delta neighbor (owned by the caller —
  /// one per engine Session — so nothing borrows cache memory outside the
  /// shard lock).
  struct DeltaNeighbor {
    Schedule seed{1};
    Schedule strict_sched{1};  ///< meaningful only when has_strict
    Schedule full_sched{1};
    std::vector<std::uint8_t> changed;  ///< per-job "attributes differ" mask
    std::size_t changed_count = 0;
    /// The neighbor ran its strict branch and published its schedule.
    /// When false, strict_sched is left as it was and must not be passed
    /// on as SolveDeltaHint::strict_sched.
    bool has_strict = false;
  };

  /// Finds a delta-capable entry with the same (params, n) differing from
  /// `jobs` in at most delta_max_jobs positions (pre-filtered on the
  /// per-job sub-hashes, confirmed on the columns themselves) and copies
  /// its stage schedules + changed mask into `out` (the strict schedule
  /// only when the entry has one; see DeltaNeighbor::has_strict).  False
  /// when delta solving is disabled or no neighbor qualifies.
  bool copy_delta_neighbor(const JobSetView& jobs,
                           const std::uint64_t* subhashes,
                           std::uint64_t params_sig, DeltaNeighbor& out);

  // --- introspection -------------------------------------------------------

  CacheStats stats() const;

  /// POBP-RUN-008 cache-pressure check: a non-empty report when the cache
  /// is thrashing (evictions keeping pace with insertions), meaning the
  /// byte budget is too small for the working set to ever get warm.
  [[nodiscard]] diag::Report check_pressure() const;

  /// Drops every entry (storage released; counters kept).
  void clear();

  const SolveCacheOptions& options() const { return options_; }
  std::size_t shard_count() const;
  bool delta_enabled() const { return options_.delta_max_jobs > 0; }

 private:
  struct Shard;

  Shard& shard_for(std::uint64_t params_sig, std::size_t n) const;

  SolveCacheOptions options_;
  std::size_t shard_mask_;        ///< shard count - 1 (power of two)
  std::size_t shard_budget_;      ///< max_bytes / shard count
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace pobp
