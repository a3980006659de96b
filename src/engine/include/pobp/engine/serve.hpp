// pobp::StreamEngine — the long-lived streaming front end over the batch
// Engine (docs/SERVING.md).
//
// Admitted requests wait in one bounded FIFO guarded by a mutex; a single
// pump thread pops them in admission order, up to max_batch at a time, and
// hands each batch to the Engine's workers, fulfilling one
// std::future<SolveOutcome> per request.  Admission control happens at
// submit time, before anything touches the queue:
//
//   * full queue     → submit() blocks (backpressure); try_submit() sheds
//                      the request with a POBP-RUN-004 outcome instead.
//   * tenant quota   → StreamOptions::tenant_max_in_flight caps one
//                      tenant's queued+running requests; beyond it the
//                      request is rejected with POBP-RUN-005.
//   * overload tier  → with StreamOptions::overload_degrade ==
//                      DegradePolicy::kApproximate, requests admitted while
//                      the queue is ≥ ¾ full are solved on the degraded
//                      (greedy + LSA_CS) path instead of being shed.
//
// Determinism: every request's outcome is a pure function of (jobs,
// options) — worker count, queue depth and pump batching never change an
// answer, only its latency.  The request id (the admission index) doubles
// as the fault-injection instance, so fault placement is reproducible
// across runs and worker counts.  Admission *decisions* (shed / quota /
// degrade-tier) depend on queue occupancy and are therefore timing-
// dependent by nature; `pobp serve` keeps them disabled unless explicitly
// requested so replayed streams stay byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pobp/engine/engine.hpp"
#include "pobp/engine/resilience.hpp"
#include "pobp/engine/submit.hpp"

namespace pobp {

struct StreamOptions {
  /// Options for the embedded Engine (workers, schedule, budget, degrade,
  /// validation, fault injection).
  EngineOptions engine = {};

  /// Submission queue capacity (rounded up to a power of two, at least
  /// 2).  A full queue blocks submit() and sheds try_submit().
  std::size_t queue_capacity = 1024;

  /// Maximum requests the pump hands to one Engine batch.  Larger batches
  /// amortize scheduling; smaller ones bound per-request latency.
  std::size_t max_batch = 64;

  /// Per-tenant in-flight cap (queued + solving); 0 = unlimited.
  /// Exceeding it rejects the submission with POBP-RUN-005.
  std::size_t tenant_max_in_flight = 0;

  /// Overload tier: kApproximate solves requests admitted while the queue
  /// is ≥ ¾ full on the degraded path (value guarantee forfeited, request
  /// still answered).  kNone disables the tier.
  DegradePolicy overload_degrade = DegradePolicy::kNone;

  /// Default per-tenant admission rate (POBP-RUN-006); disabled by
  /// default so replayed streams stay byte-identical.  A tenant's first
  /// submission carrying SubmitOptions::rate_limit overrides this for
  /// that tenant.
  RateLimit tenant_rate = {};

  /// Per-tenant circuit breaker over contained pipeline faults
  /// (POBP-RUN-007); disabled by default.  (Retry/backoff for those same
  /// faults is configured on `engine.retry`.)
  BreakerPolicy breaker = {};

  /// Pump-progress watchdog: detects stalls (pending work without
  /// completion progress for >= stall_s) and degrades new admissions
  /// until progress resumes; disabled by default.
  WatchdogPolicy watchdog = {};
};

/// Per-tenant serving counters (monotonic since construction).
struct TenantStats {
  std::uint64_t submitted = 0;       ///< admission attempts
  std::uint64_t completed = 0;       ///< outcomes delivered (ok or report)
  std::uint64_t failed = 0;          ///< outcomes that carried a report
  std::uint64_t rejected_quota = 0;  ///< POBP-RUN-005 at admission
  std::uint64_t shed = 0;            ///< POBP-RUN-004 at admission
  std::uint64_t degraded = 0;        ///< solved on the degraded tier
  std::uint64_t cache_hits = 0;      ///< answered from the solve cache
  std::uint64_t rejected_rate = 0;   ///< POBP-RUN-006 at admission
  std::uint64_t rejected_breaker = 0;  ///< POBP-RUN-007 at admission
  std::uint64_t breaker_trips = 0;     ///< closed → open transitions
  BreakerState breaker_state = BreakerState::kClosed;
  LatencySnapshot latency = {};  ///< admission → completion, completed only
};

class StreamEngine {
 public:
  explicit StreamEngine(StreamOptions options = {});

  /// Drains every admitted request, then stops the pump.  Submitting
  /// concurrently with destruction is undefined; submissions racing a
  /// destructor would be shed anyway.
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Submits one instance; blocks while the queue is full (backpressure).
  /// The future resolves to the request's SolveOutcome.
  std::future<SolveOutcome> submit(JobSet jobs, SubmitOptions options = {});
  std::future<SolveOutcome> submit(JobSet jobs,
                                   const ScheduleOptions& schedule,
                                   SubmitOptions options = {});

  /// Non-blocking admission: a full queue sheds the request and the future
  /// resolves immediately to a POBP-RUN-004 report.
  std::future<SolveOutcome> try_submit(JobSet jobs,
                                       SubmitOptions options = {});
  std::future<SolveOutcome> try_submit(JobSet jobs,
                                       const ScheduleOptions& schedule,
                                       SubmitOptions options = {});

  /// Stops the pump from dispatching (admission continues until the queue
  /// fills) — deterministic overload for tests and drain-free maintenance.
  void pause();
  void resume();

  /// Blocks until every admitted request has completed.
  void drain();

  /// Merged engine metrics snapshot; safe between pump batches (drain()
  /// first for an exact read).
  [[nodiscard]] EngineMetrics metrics() const;

  /// Per-tenant counters, sorted by tenant name (deterministic order).
  [[nodiscard]] std::vector<std::pair<std::string, TenantStats>>
  tenant_stats() const;

  /// Watchdog health snapshot (kHealthy whenever the watchdog is
  /// disabled).
  [[nodiscard]] HealthState health() const;

  /// Stall episodes the watchdog has detected since construction.
  [[nodiscard]] std::uint64_t watchdog_stalls() const;

  /// Deterministic JSON rendering of health + tenant_stats() including
  /// the latency histograms — the `pobp serve --stats` dump.
  [[nodiscard]] std::string stats_json() const;

  /// Requests admitted and not yet handed to the workers.
  [[nodiscard]] std::size_t queue_depth() const;

  const StreamOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pobp
