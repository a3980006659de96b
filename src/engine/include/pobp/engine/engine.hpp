// pobp::Engine — reusable pipeline sessions and the parallel batch-solve
// runtime.
//
// The engine is the serving-shaped entry point to the pipeline: construct
// one Engine from EngineOptions, then stream instances through it —
//
//   pobp::Engine engine({.schedule = {.k = 1}, .workers = 8});
//   pobp::SolveOutcome one = engine.try_solve(jobs);
//   std::vector<pobp::ScheduleResult> all = engine.solve_batch(instances, {});
//   std::vector<pobp::SolveOutcome> out =
//       engine.try_solve_batch(instances, pobp::SubmitOptions{
//           .budget = pobp::SolveBudget{.deadline_s = 0.5},
//           .degrade = pobp::DegradePolicy::kApproximate});
//   std::cout << engine.metrics().to_table();
//
// solve_batch hands the instance list to a dedicated pobp::ThreadPool (one
// Session per worker).  Workers claim whole instances from one atomic
// cursor over the batch ordered largest job count first, so the longest
// solves start earliest (see docs/PERF.md).  The results are identical for
// every worker count, because each instance's solve is a pure function of
// (jobs, options).
//
// Every solve, batch or streaming, goes through Session::run — the one
// solve path (docs/ENGINE.md).
//
// For long-lived online serving — a bounded submission queue, admission
// control, per-tenant quotas and futures per request — see
// pobp::StreamEngine (engine/serve.hpp, docs/SERVING.md), which feeds
// these workers from a pump thread.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pobp/core/pobp.hpp"
#include "pobp/engine/cache.hpp"
#include "pobp/engine/metrics.hpp"
#include "pobp/engine/resilience.hpp"
#include "pobp/engine/submit.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/thread_annotations.hpp"

namespace pobp {

class ThreadPool;

struct EngineOptions {
  ScheduleOptions schedule;  ///< pipeline options applied to every instance

  /// Worker threads for solve_batch (0 = hardware_concurrency).  Single
  /// try_solve() always runs inline.
  std::size_t workers = 0;

  /// Per-instance solve limits (default: unlimited).  A limit that fires
  /// is reported as POBP-RUN-002 / POBP-RUN-003 unless `degrade` absorbs
  /// it; Session::solve_into throws BudgetError instead.
  SolveBudget budget = {};

  /// Fallback when `budget` is exhausted mid-pipeline.
  DegradePolicy degrade = DegradePolicy::kNone;

  /// Retry discipline for contained pipeline faults (POBP-RUN-001):
  /// `max_attempts` full-pipeline attempts, those beyond the first after a
  /// deterministic capped-exponential backoff (jitter seeded by the
  /// instance id, so replay is byte-identical), all drawing from the
  /// *same* SolveBudget — retrying never spends beyond the request's
  /// limits.  Budget and deadline faults are never retried (they would
  /// fail identically or blow through the deadline again).
  RetryPolicy retry = {};

  /// Fault-injection trigger spec (see pobp/util/faultinject.hpp), armed
  /// process-wide at Engine construction.  Empty = arm from the
  /// POBP_FAULT_INJECT environment variable if set.
  std::string fault_injection = {};

  /// Content-addressed solve cache shared by every session of this engine
  /// (docs/CACHE.md).  nullptr disables caching entirely.  The cache is
  /// thread-safe and may be shared across engines.
  std::shared_ptr<SolveCache> cache = nullptr;

  /// Default cache discipline when `cache` is set; SubmitOptions::cache
  /// overrides it per request.
  CacheMode cache_mode = CacheMode::kReadWrite;
};

/// Per-instance outcome of the fault-contained solve paths: a result, or
/// the rule-tagged report (POBP-OPT-* / POBP-RUN-*) explaining why this
/// instance has none.
using SolveOutcome = Expected<ScheduleResult, diag::Report>;

/// One worker's reusable pipeline state: scratch id buffers pre-sized once
/// and reused across instances, plus a private metrics shard (so recording
/// is contention-free).  A Session is single-threaded; the Engine owns one
/// per worker.
class Session {
 public:
  /// `instance` for standalone solves (no batch index).
  static constexpr std::size_t kNoInstance = static_cast<std::size_t>(-1);

  explicit Session(EngineOptions options = {});
  ~Session();

  /// The one solve path.  Solves `jobs` into `out`, whose schedule storage
  /// is recycled (capacity-retaining reset) instead of freed: re-solving
  /// into the same ScheduleResult on a warmed session performs no
  /// steady-state heap allocations — the property the perf gate pins.
  ///
  /// The exact tier (default) runs Algorithm 3 (§5's loop when k = 0):
  /// seed → laminarize → forest → prune / LSA_CS → left-merge → validate.
  /// It runs under the request's SolveBudget, retries contained faults per
  /// EngineOptions::retry, and answers on the approximate tier when the
  /// budget fires under DegradePolicy::kApproximate (or, with
  /// retry.degrade_final_attempt, when every attempt faulted).
  /// `approximate` selects the approximate tier directly — §4.3's greedy
  /// seed + LSA_CS, result tagged degraded — as the streaming engine's
  /// overload tier does: it first asks the cache read-only for the exact
  /// answer, then solves without a budget guard.
  ///
  /// `submit` overrides the session's budget, degrade policy and cache
  /// mode for this call, and `submit.deadline_s` tightens (never widens)
  /// the budget deadline; `submit.on_error` is not invoked.  `instance`
  /// keys fault-injection triggers and retry jitter and lands in the
  /// report payload.
  ///
  /// Fault-contained: every pipeline exception, invariant failure or
  /// budget/deadline overrun is caught here.  Returns nullopt on success,
  /// otherwise the rule-tagged report (POBP-OPT-* for rejected options,
  /// POBP-RUN-001/002/003 for pipeline fault / deadline / budget) with
  /// `out` reset to the empty result.
  [[nodiscard]] std::optional<diag::Report> run(
      const JobSet& jobs, const ScheduleOptions& options,
      const SubmitOptions& submit, std::size_t instance, ScheduleResult& out,
      bool approximate = false);

  /// run() into a fresh result.
  [[nodiscard]] SolveOutcome try_solve(const JobSet& jobs,
                                       const ScheduleOptions& options,
                                       const SubmitOptions& submit = {},
                                       std::size_t instance = kNoInstance);

  /// run() with this session's options; a failure throws instead —
  /// BudgetError for POBP-RUN-002/003, InternalError for anything else.
  void solve_into(const JobSet& jobs, ScheduleResult& out);

  /// True when the most recent successful solve on this session was served
  /// from the cache (exact hit) rather than computed.
  bool last_solve_was_cache_hit() const { return last_cache_hit_; }

  const EngineOptions& options() const { return options_; }
  const EngineMetrics& metrics() const { return metrics_; }
  void reset_metrics() { metrics_ = EngineMetrics(); }

 private:
  /// The exact tier under the request's budget and retry policy, with the
  /// budget → degrade fallback.
  std::optional<diag::Report> run_exact(const JobSet& jobs,
                                        const ScheduleOptions& options,
                                        const SubmitOptions& submit,
                                        CacheMode cache_mode,
                                        std::size_t instance,
                                        ScheduleResult& out);
  /// The approximate tier, contained: any exception becomes POBP-RUN-001.
  std::optional<diag::Report> run_approximate(const JobSet& jobs,
                                              const ScheduleOptions& options,
                                              CacheMode cache_mode,
                                              bool exact_first,
                                              std::size_t instance,
                                              ScheduleResult& out);
  /// The one body behind both tiers: cache probe → stages → validate →
  /// metrics → publish.  With `exact_first` (the overload tier) the probe
  /// asks for the exact answer before the approximate one.  Throws on
  /// pipeline faults and budget overruns.
  void solve_tier(const JobSet& jobs, const ScheduleOptions& options,
                  CacheMode cache_mode, bool approximate, bool exact_first,
                  ScheduleResult& out);
  /// POBP-RUN-001 for the exception in flight (call from a catch handler).
  diag::Report fault_report(std::size_t instance);

  EngineOptions options_;
  /// Private metrics shard, cache-line aligned so two sessions' hot
  /// counters never share a line: recording during a batch is entirely
  /// contention-free, and Engine::metrics() merges the shards once per
  /// snapshot (docs/ENGINE.md).
  alignas(64) EngineMetrics metrics_;
  // Every reusable pipeline buffer (pobp/core/scratch.hpp), heap-held so
  // this header stays light.  Grows to the largest instance seen, then the
  // pipeline hot path performs no steady-state allocations.
  std::unique_ptr<SolveScratch> scratch_;
  /// Pooled staging for a delta-solve neighbor copied out of the cache
  /// (session-owned so nothing borrows cache memory past the shard lock).
  SolveCache::DeltaNeighbor delta_;
  bool last_cache_hit_ = false;
};

/// Thread-safe batch-solve runtime: a fixed option set, a lazily created
/// worker pool, and one Session per worker.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Solves every instance in parallel; results[i] corresponds to
  /// instances[i].  Deterministic: identical output for any worker count.
  /// Every instance solves under `submit`'s budget / degrade / deadline
  /// overrides, **fault-contained** — an instance that fails yields a
  /// default (empty, value 0) ScheduleResult in its slot and
  /// `submit.on_error(i, report)` is invoked for it (serialized, in
  /// instance order, after the batch).
  [[nodiscard]] std::vector<ScheduleResult> solve_batch(
      std::span<const JobSet> instances, const SubmitOptions& submit);

  /// Pooled batch: fills `results` (resized to instances.size()) in place.
  /// Re-running batches into the same vector recycles every result's
  /// schedule storage — the serving-loop harvest pattern: pop what you
  /// need out of `results`, then pass the vector back in.  Success costs
  /// no steady-state allocations (the perf-gated property); the error path
  /// allocates only for failed slots.
  void solve_batch_into(std::span<const JobSet> instances,
                        const SubmitOptions& submit,
                        std::vector<ScheduleResult>& results);

  /// Fault-contained batch: results[i] is either instance i's result or
  /// the diag::Report explaining its failure (POBP-RUN-*).  One poisoned
  /// instance never aborts the batch or the process, and the successful
  /// entries are bit-identical to a fault-free solve_batch for every
  /// worker count.  Budget / degrade / deadline come from `submit`
  /// (falling back to EngineOptions); `submit.on_error` fires for each
  /// failed instance (serialized, in instance order, after the batch).
  [[nodiscard]] std::vector<SolveOutcome> try_solve_batch(
      std::span<const JobSet> instances, const SubmitOptions& submit);

  /// Fault-contained single solve on the calling thread.
  [[nodiscard]] SolveOutcome try_solve(const JobSet& jobs);
  [[nodiscard]] SolveOutcome try_solve(const JobSet& jobs,
                                       const ScheduleOptions& options);

  /// Merged snapshot across the inline session and every worker session.
  [[nodiscard]] EngineMetrics metrics() const;
  void reset_metrics();

  const EngineOptions& options() const { return options_; }
  std::size_t worker_count() const { return workers_; }

  /// Process-wide default engine (what try_schedule_bounded runs on).
  static Engine& shared();

 private:
  /// The streaming front end pumps admitted requests into run_batch.
  friend class StreamEngine;
  /// Non-owning callable view over the batch lambdas.  A std::function
  /// here would heap-allocate once per batch (the capture lists outgrow
  /// the small-object buffer), which the steady-state allocation gate
  /// counts; the callee never outlives the caller's lambda, so a borrowed
  /// pointer pair is enough.
  template <typename Signature>
  class FnRef;
  template <typename R, typename... Args>
  class FnRef<R(Args...)> {
   public:
    template <typename F>
    FnRef(const F& fn)  // NOLINT(google-explicit-constructor)
        : ctx_(&fn), call_([](const void* ctx, Args... args) -> R {
            return (*static_cast<const F*>(ctx))(args...);
          }) {}
    R operator()(Args... args) const { return call_(ctx_, args...); }

   private:
    const void* ctx_;
    R (*call_)(const void*, Args...);
  };
  /// Drains instances [0, count) over the worker sessions.  Workers claim
  /// instances from one shared cursor, largest `job_count(i)` first (ties
  /// by index); a single active worker drains inline in index order.
  /// `work(session, i)` must handle instance i completely (including error
  /// capture — an exception escaping `work` on a pool thread is fatal by
  /// ThreadPool contract).
  void run_batch(std::size_t count, FnRef<std::size_t(std::size_t)> job_count,
                 FnRef<void(Session&, std::size_t)> work);

  EngineOptions options_;
  std::size_t workers_;

  /// Serializes batches and metrics access.
  mutable util::Mutex mutex_;
  /// Lazy, workers_ threads.
  std::unique_ptr<ThreadPool> pool_ POBP_GUARDED_BY(mutex_);
  /// One per worker, lazy.
  std::vector<std::unique_ptr<Session>> sessions_ POBP_GUARDED_BY(mutex_);
  /// The current batch's dispatch order as (job count, index) pairs,
  /// rebuilt by every multi-worker run_batch; kept so steady-state batches
  /// reuse its capacity.
  std::vector<std::pair<std::size_t, std::size_t>> order_
      POBP_GUARDED_BY(mutex_);
  /// Σ solve_batch wall time.
  double batch_seconds_ POBP_GUARDED_BY(mutex_) = 0;
  /// try_solve() state, serialized by its own lock so inline solves never
  /// contend with a running batch.
  mutable util::Mutex inline_mutex_;
  Session inline_session_ POBP_GUARDED_BY(inline_mutex_);
};

}  // namespace pobp
