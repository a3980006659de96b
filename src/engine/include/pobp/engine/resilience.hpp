// Resilience primitives for the serving stack (docs/ROBUSTNESS.md):
// deterministic retry backoff, per-tenant token-bucket rate limiting
// (POBP-RUN-006), per-tenant circuit breakers (POBP-RUN-007), watchdog
// health states, and the allocation-free latency histogram behind
// TenantStats.
//
// Everything here is mechanism, not policy: the types take explicit
// timestamps (seconds on the caller's monotonic clock) instead of reading
// a clock themselves, so unit tests drive them deterministically and the
// StreamEngine passes steady_clock time.  None of the classes allocate
// after construction; TokenBucket and CircuitBreaker serialize their tiny
// state transitions behind an internal mutex (they sit on the admission
// path, before the request enters the submission queue), while
// LatencyHistogram is a fixed array of relaxed atomic counters so workers
// record latencies contention-free.
//
// Determinism contract: with faults disarmed none of these mechanisms
// fires on the golden replay path — retry backoff only runs after a
// contained pipeline fault, a generously configured bucket never sheds,
// and a breaker only trips on consecutive POBP-RUN-001 failures — so
// replayed streams stay byte-identical across worker counts
// (docs/SERVING.md).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "pobp/util/thread_annotations.hpp"

namespace pobp {

// --- retry / backoff --------------------------------------------------------

/// Retry discipline for transient contained pipeline faults
/// (POBP-RUN-001).  Deadline / budget exhaustion is never retried — it
/// would fail identically — and every retry draws from the *same*
/// SolveBudget as the first attempt, so a budgeted request can never
/// spend beyond its limits no matter how many attempts the policy allows.
struct RetryPolicy {
  /// Total full-pipeline attempts (1 = no retry).
  std::size_t max_attempts = 1;

  /// Backoff before retry r (1-based) is
  /// min(base * 2^(r-1), max) * jitter, jitter uniform in
  /// [1 - jitter_frac, 1 + jitter_frac] from a PRNG seeded by the request
  /// id — deterministic per request, decorrelated across requests.
  double base_backoff_s = 0.0005;
  double max_backoff_s = 0.020;
  double jitter_frac = 0.5;

  /// Let the final attempt downgrade to the approximate path
  /// (DegradePolicy::kApproximate) when every full-pipeline attempt
  /// faulted: a persistent fault still gets an answer, tagged degraded.
  bool degrade_final_attempt = false;

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }
};

/// The backoff delay (seconds) before retry `attempt` (1-based: the first
/// retry is attempt 1) of request `seed`.  Pure function — replaying a
/// request reproduces its exact backoff schedule.
[[nodiscard]] double retry_backoff_s(const RetryPolicy& policy,
                                     std::size_t attempt, std::uint64_t seed);

// --- token-bucket rate limiting ---------------------------------------------

/// Per-tenant admission rate (POBP-RUN-006).  Disabled by default: rate
/// decisions depend on wall-clock arrival times, so `pobp serve` only
/// enables them on request (replay determinism, docs/SERVING.md).
struct RateLimit {
  double tokens_per_s = 0;  ///< sustained admissions/second (0 = disabled)
  double burst = 1;         ///< bucket depth (peak admissions in an instant)

  [[nodiscard]] bool enabled() const { return tokens_per_s > 0; }
};

/// A token bucket over an explicit clock: `try_acquire(now_s)` refills
/// `tokens_per_s * elapsed` (capped at `burst`) and spends one token.
/// Thread-safe; one instance per tenant.
class TokenBucket {
 public:
  /// (Re)configures the bucket and fills it to `burst` as of `now_s`.
  void configure(const RateLimit& limit, double now_s);

  /// Spends one token if available.  Always admits when unconfigured or
  /// the limit is disabled.
  [[nodiscard]] bool try_acquire(double now_s);

  /// Racy estimate of the current token count (refilled to `now_s`).
  [[nodiscard]] double available(double now_s) const;

  [[nodiscard]] bool enabled() const;

 private:
  mutable util::Mutex mutex_;
  RateLimit limit_ POBP_GUARDED_BY(mutex_);
  double tokens_ POBP_GUARDED_BY(mutex_) = 0;
  double refilled_at_s_ POBP_GUARDED_BY(mutex_) = 0;

  void refill(double now_s) POBP_REQUIRES(mutex_);
};

// --- circuit breaker --------------------------------------------------------

/// Per-tenant breaker over contained pipeline faults (POBP-RUN-007).
/// Closed → (failure_threshold consecutive POBP-RUN-001 outcomes) → open
/// (sheds for cooldown_s) → half-open (admits half_open_probes probes) →
/// success_to_close consecutive probe successes close it again; one probe
/// failure re-opens it.  Only POBP-RUN-001 counts as failure: budget /
/// deadline / admission rejections are the request's own verdicts, not
/// evidence the tenant's pipeline is unhealthy.
struct BreakerPolicy {
  std::size_t failure_threshold = 0;  ///< consecutive faults to trip (0 = off)
  double cooldown_s = 1.0;            ///< open → half-open delay
  std::size_t half_open_probes = 1;   ///< admissions allowed while half-open
  std::size_t success_to_close = 1;   ///< probe successes that close it

  [[nodiscard]] bool enabled() const { return failure_threshold > 0; }
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState state);

class CircuitBreaker {
 public:
  void configure(const BreakerPolicy& policy);

  /// Admission check at `now_s`.  In the open state this flips to
  /// half-open once the cooldown has elapsed; in half-open it admits up
  /// to `half_open_probes` probes and sheds the rest.  Always admits when
  /// disabled.
  [[nodiscard]] bool try_admit(double now_s);

  /// Returns an admitted-but-never-completed slot (the request was shed
  /// later in admission, e.g. queue-full), so half-open probe accounting
  /// cannot leak.
  void on_abandoned();

  /// Outcome feedback from completed requests.
  void on_success();
  void on_failure(double now_s);  ///< a contained POBP-RUN-001 outcome

  [[nodiscard]] BreakerState state(double now_s) const;
  [[nodiscard]] std::uint64_t trips() const;
  [[nodiscard]] bool enabled() const;

 private:
  mutable util::Mutex mutex_;
  BreakerPolicy policy_ POBP_GUARDED_BY(mutex_);
  BreakerState state_ POBP_GUARDED_BY(mutex_) = BreakerState::kClosed;
  std::size_t consecutive_failures_ POBP_GUARDED_BY(mutex_) = 0;
  std::size_t probes_issued_ POBP_GUARDED_BY(mutex_) = 0;
  std::size_t probe_successes_ POBP_GUARDED_BY(mutex_) = 0;
  double opened_at_s_ POBP_GUARDED_BY(mutex_) = 0;
  std::uint64_t trips_ POBP_GUARDED_BY(mutex_) = 0;

  void trip(double now_s) POBP_REQUIRES(mutex_);
  void maybe_half_open(double now_s) POBP_REQUIRES(mutex_);
};

// --- watchdog health --------------------------------------------------------

/// Pump-progress watchdog configuration.  Disabled by default
/// (poll_interval_s = 0): the watchdog thread only exists when asked for.
struct WatchdogPolicy {
  double poll_interval_s = 0;  ///< health poll cadence (0 = disabled)

  /// No completion progress while work is pending for this long marks the
  /// engine stalled: new admissions are solved on the degraded path until
  /// progress resumes (graceful degradation, docs/SERVING.md).
  double stall_s = 0.5;

  [[nodiscard]] bool enabled() const { return poll_interval_s > 0; }
};

enum class HealthState {
  kHealthy,   ///< completions keep pace with admissions
  kDegraded,  ///< recovering: progress resumed, backlog still draining
  kStalled,   ///< pending work without progress for >= stall_s
};

[[nodiscard]] std::string_view to_string(HealthState state);

// --- latency histogram ------------------------------------------------------

/// Fixed-shape snapshot of a LatencyHistogram: bucket `i` counts request
/// latencies in [2^i, 2^(i+1)) microseconds, plus the quantiles
/// interpolated from the bucket upper edges.
struct LatencySnapshot {
  static constexpr std::size_t kBuckets = 32;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// Allocation-free log-bucket latency recorder: 32 power-of-two
/// microsecond buckets of relaxed atomic counters.  Concurrent record()
/// calls never contend on anything but the counter itself.
class LatencyHistogram {
 public:
  void record(double seconds);

  [[nodiscard]] LatencySnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, LatencySnapshot::kBuckets> counts_{};
};

}  // namespace pobp
