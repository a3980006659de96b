// Tests for the resilience layer (docs/ROBUSTNESS.md): deterministic
// retry backoff, token-bucket rate limiting (POBP-RUN-006), circuit
// breakers (POBP-RUN-007), the watchdog health states, the latency
// histogram, and the end-to-end behaviour of Session retries and the
// resilient StreamEngine admission path.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "pobp/pobp.hpp"
#include "pobp/engine/resilience.hpp"
#include "pobp/engine/serve.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/diag/render.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

// --- retry backoff ----------------------------------------------------------

TEST(RetryBackoff, DeterministicCappedExponentialWithJitterBounds) {
  RetryPolicy policy;
  policy.base_backoff_s = 0.001;
  policy.max_backoff_s = 0.016;
  policy.jitter_frac = 0.5;

  // Pure function: byte-identical replays.
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, 1, 42),
                   retry_backoff_s(policy, 1, 42));
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, 3, 7), retry_backoff_s(policy, 3, 7));

  // Every delay lands in [base*2^(r-1)*(1-j), min(base*2^(r-1), max)*(1+j)]
  // and the uncapped schedule grows geometrically in expectation.
  for (std::size_t attempt = 1; attempt <= 10; ++attempt) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const double d = retry_backoff_s(policy, attempt, seed);
      const double nominal =
          std::min(policy.base_backoff_s * static_cast<double>(1u << (attempt - 1)),
                   policy.max_backoff_s);
      EXPECT_GE(d, nominal * (1 - policy.jitter_frac) - 1e-12);
      EXPECT_LE(d, nominal * (1 + policy.jitter_frac) + 1e-12);
    }
  }

  // Different seeds decorrelate (not all identical).
  EXPECT_NE(retry_backoff_s(policy, 2, 1), retry_backoff_s(policy, 2, 2));

  // Zero jitter reproduces the exact doubling schedule.
  policy.jitter_frac = 0;
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, 1, 9), 0.001);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, 2, 9), 0.002);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, 5, 9), 0.016);
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, 9, 9), 0.016);  // capped

  // Huge attempt numbers must not overflow the exponent.
  EXPECT_DOUBLE_EQ(retry_backoff_s(policy, 4000, 9), 0.016);
}

// --- token bucket -----------------------------------------------------------

TEST(TokenBucket, RefillsAtTheConfiguredRateOnAManualClock) {
  TokenBucket bucket;
  RateLimit limit;
  limit.tokens_per_s = 10;  // one token every 100 ms
  limit.burst = 2;
  bucket.configure(limit, 0.0);
  ASSERT_TRUE(bucket.enabled());

  // The bucket starts full: `burst` admissions back-to-back, then dry.
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.05));  // half a token: still dry

  EXPECT_TRUE(bucket.try_acquire(0.1));  // one token refilled
  EXPECT_FALSE(bucket.try_acquire(0.1));

  // A long quiet period refills to burst, never beyond.
  EXPECT_NEAR(bucket.available(100.0), 2.0, 1e-9);
  EXPECT_TRUE(bucket.try_acquire(100.0));
  EXPECT_TRUE(bucket.try_acquire(100.0));
  EXPECT_FALSE(bucket.try_acquire(100.0));

  // An unconfigured or disabled bucket always admits.
  TokenBucket open_bucket;
  EXPECT_FALSE(open_bucket.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(open_bucket.try_acquire(0.0));
}

// --- circuit breaker --------------------------------------------------------

TEST(Breaker, TripsOnConsecutiveFailuresAndRecoversThroughProbes) {
  CircuitBreaker breaker;
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.cooldown_s = 10.0;
  policy.half_open_probes = 2;
  policy.success_to_close = 2;
  breaker.configure(policy);

  // Closed: admits freely; non-consecutive failures never trip.
  EXPECT_TRUE(breaker.try_admit(0.0));
  breaker.on_failure(0.0);
  breaker.on_failure(0.0);
  breaker.on_success();  // breaks the streak
  breaker.on_failure(0.0);
  breaker.on_failure(0.0);
  EXPECT_EQ(breaker.state(0.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);

  breaker.on_failure(1.0);  // third consecutive: trip
  EXPECT_EQ(breaker.state(1.0), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.try_admit(2.0));  // cooldown not elapsed

  // Cooldown elapsed: half-open, `half_open_probes` admissions only.
  EXPECT_EQ(breaker.state(11.5), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.try_admit(11.5));
  EXPECT_TRUE(breaker.try_admit(11.5));
  EXPECT_FALSE(breaker.try_admit(11.5));  // probe budget spent

  // Both probes succeed: closed again, streak state reset.
  breaker.on_success();
  EXPECT_EQ(breaker.state(11.6), BreakerState::kHalfOpen);
  breaker.on_success();
  EXPECT_EQ(breaker.state(11.6), BreakerState::kClosed);
  EXPECT_TRUE(breaker.try_admit(11.6));
}

TEST(Breaker, ProbeFailureReopensAndAbandonedProbesReturnTheirSlot) {
  CircuitBreaker breaker;
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.cooldown_s = 5.0;
  policy.half_open_probes = 1;
  breaker.configure(policy);

  breaker.on_failure(0.0);  // threshold 1: trip immediately
  EXPECT_EQ(breaker.trips(), 1u);

  // A failed half-open probe re-opens (and restarts the cooldown).
  EXPECT_TRUE(breaker.try_admit(6.0));
  breaker.on_failure(6.0);
  EXPECT_EQ(breaker.state(6.1), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);

  // An admitted-then-shed probe returns its slot instead of leaking it.
  EXPECT_TRUE(breaker.try_admit(12.0));
  EXPECT_FALSE(breaker.try_admit(12.0));  // the only probe is out
  breaker.on_abandoned();
  EXPECT_TRUE(breaker.try_admit(12.0));  // slot returned

  // Disabled breakers always admit and never trip.
  CircuitBreaker off;
  EXPECT_FALSE(off.enabled());
  off.on_failure(0.0);
  off.on_failure(0.0);
  EXPECT_TRUE(off.try_admit(0.0));
  EXPECT_EQ(off.trips(), 0u);
}

// Concurrency soak for the TSan stage: producers hammering admission
// while completions feed outcomes back must stay race-free.
TEST(Breaker, ConcurrentAdmissionAndFeedbackIsRaceFree) {
  CircuitBreaker breaker;
  BreakerPolicy policy;
  policy.failure_threshold = 4;
  policy.cooldown_s = 0.0;  // immediate half-open: maximal state churn
  policy.half_open_probes = 2;
  breaker.configure(policy);
  TokenBucket bucket;
  bucket.configure({.tokens_per_s = 1e6, .burst = 64}, 0.0);
  LatencyHistogram latency;

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 20000; ++i) {
        const double now = static_cast<double>(i) * 1e-6;
        if (breaker.try_admit(now)) {
          if (rng.bernoulli(0.3)) {
            breaker.on_failure(now);
          } else if (rng.bernoulli(0.1)) {
            breaker.on_abandoned();
          } else {
            breaker.on_success();
          }
        }
        (void)bucket.try_acquire(now);
        (void)breaker.state(now);
        latency.record(rng.uniform01() * 0.01);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(latency.snapshot().count, 4u * 20000u);
}

// --- latency histogram ------------------------------------------------------

TEST(Latency, BucketsByPowerOfTwoMicrosecondsWithUpperEdgeQuantiles) {
  LatencyHistogram histogram;
  // 100 samples at ~3 µs (bucket [2,4)), 10 at ~1 ms, 1 at ~100 ms.
  for (int i = 0; i < 100; ++i) histogram.record(3e-6);
  for (int i = 0; i < 10; ++i) histogram.record(1e-3);
  histogram.record(0.1);

  const LatencySnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 111u);
  EXPECT_EQ(snap.buckets[1], 100u);  // [2,4) µs
  // Quantiles report the bucket's upper edge (conservative): p50 in the
  // 3 µs bucket, p95 and p99 in the 1 ms one.
  EXPECT_DOUBLE_EQ(snap.p50_ms, 0.004);
  EXPECT_DOUBLE_EQ(snap.p95_ms, 1.024);
  EXPECT_DOUBLE_EQ(snap.p99_ms, 1.024);

  // Degenerate inputs land in the extreme buckets instead of misbehaving.
  LatencyHistogram edge;
  edge.record(0);
  edge.record(-1);
  edge.record(1e9);
  EXPECT_EQ(edge.snapshot().count, 3u);

  // An empty histogram snapshots to all zeros.
  const LatencySnapshot empty = LatencyHistogram().snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99_ms, 0.0);
}

// --- session retry ----------------------------------------------------------

JobSet demo_jobs(std::uint64_t seed, std::size_t n = 16) {
  Rng rng(seed);
  JobGenConfig config;
  config.n = n;
  config.max_length = 1 << 6;
  config.horizon = 1 << 12;
  return random_jobs(config, rng);
}

/// Disarms process-wide fault-injection triggers on scope exit.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

TEST(SessionRetry, TransientFaultRecoversToTheFaultFreeResult) {
  const DisarmGuard disarm;
  const JobSet jobs = demo_jobs(91);

  Session clean{{}};
  const SolveOutcome expected = clean.try_solve(jobs, {}, {}, 0);
  ASSERT_TRUE(expected.has_value());

  EngineOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_backoff_s = 1e-5;
  fault::arm(fault::parse_spec("tm_dp@0:1"));
  Session session(options);
  const SolveOutcome recovered = session.try_solve(jobs, {}, {}, 0);
  ASSERT_TRUE(recovered.has_value())
      << diag::to_text(recovered.error());
  EXPECT_EQ(io::schedule_to_csv(recovered->schedule),
            io::schedule_to_csv(expected->schedule));
  EXPECT_DOUBLE_EQ(recovered->value, expected->value);
  EXPECT_FALSE(recovered->degraded);
  EXPECT_EQ(session.metrics().retries, 1u);
  EXPECT_EQ(session.metrics().pipeline_faults, 0u);
}

TEST(SessionRetry, PersistentFaultReportsOrDegradesOnTheFinalAttempt) {
  const DisarmGuard disarm;
  const JobSet jobs = demo_jobs(92);
  // Fault counters persist across attempts, so triggers 1..3 guarantee
  // every one of 3 attempts faults at its first tm_dp call.
  const char* spec = "tm_dp@0:1,tm_dp@0:2,tm_dp@0:3";

  {
    EngineOptions options;
    options.retry.max_attempts = 3;
    options.retry.base_backoff_s = 1e-5;
    fault::arm(fault::parse_spec(spec));
    Session session(options);
    const SolveOutcome outcome = session.try_solve(jobs, {}, {}, 0);
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().count("POBP-RUN-001"), 1u);
    EXPECT_EQ(session.metrics().retries, 2u);
    EXPECT_EQ(session.metrics().pipeline_faults, 1u);
  }
  {
    // Same persistent fault, but the policy lets the final attempt
    // downgrade: the degraded path skips tm_dp and answers.
    EngineOptions options;
    options.retry.max_attempts = 3;
    options.retry.base_backoff_s = 1e-5;
    options.retry.degrade_final_attempt = true;
    fault::arm(fault::parse_spec(spec));
    Session session(options);
    const SolveOutcome outcome = session.try_solve(jobs, {}, {}, 0);
    ASSERT_TRUE(outcome.has_value()) << diag::to_text(outcome.error());
    EXPECT_TRUE(outcome->degraded);
  }
}

TEST(SessionRetry, RetriesDrawFromTheRequestBudgetNeverBeyondIt) {
  const DisarmGuard disarm;
  const JobSet jobs = demo_jobs(93);

  EngineOptions options;
  options.retry.max_attempts = 8;
  // A backoff schedule that would far outlive the deadline if retries
  // were not clamped to the remaining budget.
  options.retry.base_backoff_s = 5.0;
  options.retry.max_backoff_s = 5.0;
  options.budget.deadline_s = 0.05;
  // Every attempt faults, so the request can only end in a contained
  // fault or a deadline verdict — never a success.
  std::string spec = "tm_dp@0:1";
  for (int t = 2; t <= 8; ++t) spec += ",tm_dp@0:" + std::to_string(t);
  fault::arm(fault::parse_spec(spec));
  Session session(options);
  const auto start = std::chrono::steady_clock::now();
  const SolveOutcome outcome = session.try_solve(jobs, {}, {}, 0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Each inter-attempt backoff is clamped to the remaining deadline, so
  // the whole request resolves in well under one nominal 5 s backoff —
  // as POBP-RUN-002 (deadline) or POBP-RUN-001 (final contained fault),
  // depending on which side of the deadline the last attempt lands.
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().count("POBP-RUN-002") +
                outcome.error().count("POBP-RUN-001"),
            1u);
  EXPECT_LT(elapsed, 2.0);
}

// A checker thread (e.g. the `pobp chaos` differential checks) can
// shield its own fault-instrumented calls without disarming the
// process-wide triggers aimed at the system under test.
TEST(SessionRetry, SuppressScopeShieldsTheCallingThreadOnly) {
  const DisarmGuard disarm;
  const JobSet jobs = demo_jobs(90);
  fault::arm(fault::parse_spec("tm_dp:1"));
  Session session{{}};
  {
    const fault::SuppressScope shield;
    EXPECT_TRUE(session.try_solve(jobs, {}, {}, 0).has_value());
  }
  // Out of scope the armed trigger fires again.
  EXPECT_FALSE(session.try_solve(jobs, {}, {}, 0).has_value());
}

// --- streaming admission ----------------------------------------------------

TEST(StreamResilience, RateLimitedTenantGetsRun006AndCountsIt) {
  StreamOptions options;
  options.engine.workers = 1;
  StreamEngine engine(options);

  // The tenant's first submission carries a nearly-zero rate: one burst
  // token, then every later admission is shed until the bucket refills
  // (which at 1e-9/s it effectively never does).
  SubmitOptions first;
  first.tenant = "limited";
  first.rate_limit = RateLimit{.tokens_per_s = 1e-9, .burst = 1};
  std::vector<std::future<SolveOutcome>> futures;
  futures.push_back(engine.submit(demo_jobs(95, 8), first));
  for (int i = 0; i < 3; ++i) {
    SubmitOptions more;
    more.tenant = "limited";
    futures.push_back(engine.submit(demo_jobs(95, 8), more));
  }
  // An unlimited tenant on the same engine is unaffected.
  SubmitOptions other;
  other.tenant = "open";
  futures.push_back(engine.submit(demo_jobs(95, 8), other));
  engine.drain();

  ASSERT_TRUE(futures[0].get().has_value());
  for (int i = 1; i < 4; ++i) {
    const SolveOutcome outcome = futures[i].get();
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().count("POBP-RUN-006"), 1u);
  }
  EXPECT_TRUE(futures[4].get().has_value());

  for (const auto& [tenant, stats] : engine.tenant_stats()) {
    if (tenant == "limited") {
      EXPECT_EQ(stats.submitted, 4u);
      EXPECT_EQ(stats.rejected_rate, 3u);
      EXPECT_EQ(stats.completed, 1u);
      EXPECT_EQ(stats.latency.count, 1u);
    } else {
      EXPECT_EQ(stats.rejected_rate, 0u);
    }
  }
}

TEST(StreamResilience, BreakerTripsShedsAndRecoversPerTenant) {
  const DisarmGuard disarm;
  StreamOptions options;
  options.engine.workers = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_s = 0.0;  // immediately half-open: deterministic
  options.breaker.half_open_probes = 1;
  options.breaker.success_to_close = 1;
  // Requests 0 and 1 fault once each (no retry configured), the rest are
  // clean.
  options.engine.fault_injection = "tm_dp@0:1,tm_dp@1:1";
  StreamEngine engine(options);

  SubmitOptions submit;
  submit.tenant = "flaky";
  const JobSet jobs = demo_jobs(96, 10);

  // Two consecutive contained faults trip the breaker...
  for (int i = 0; i < 2; ++i) {
    auto f = engine.submit(jobs, submit);
    engine.drain();
    const SolveOutcome outcome = f.get();
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().count("POBP-RUN-001"), 1u);
  }
  // ...and with a zero cooldown the next admission is the half-open
  // probe; it succeeds and closes the breaker again.
  auto probe = engine.submit(jobs, submit);
  engine.drain();
  ASSERT_TRUE(probe.get().has_value());
  auto after = engine.submit(jobs, submit);
  engine.drain();
  ASSERT_TRUE(after.get().has_value());

  for (const auto& [tenant, stats] : engine.tenant_stats()) {
    if (tenant != "flaky") continue;
    EXPECT_EQ(stats.breaker_trips, 1u);
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.breaker_state, BreakerState::kClosed);
  }
}

TEST(StreamResilience, OpenBreakerRejectsWithRun007) {
  const DisarmGuard disarm;
  StreamOptions options;
  options.engine.workers = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_s = 3600;  // stays open for the whole test
  options.engine.fault_injection = "tm_dp@0:1";
  StreamEngine engine(options);

  SubmitOptions submit;
  submit.tenant = "downed";
  const JobSet jobs = demo_jobs(97, 10);
  auto first = engine.submit(jobs, submit);
  engine.drain();
  ASSERT_FALSE(first.get().has_value());

  auto rejected = engine.submit(jobs, submit);
  const SolveOutcome outcome = rejected.get();  // resolved at admission
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().count("POBP-RUN-007"), 1u);

  engine.drain();
  for (const auto& [tenant, stats] : engine.tenant_stats()) {
    if (tenant != "downed") continue;
    EXPECT_EQ(stats.rejected_breaker, 1u);
    EXPECT_EQ(stats.breaker_trips, 1u);
    EXPECT_EQ(stats.breaker_state, BreakerState::kOpen);
  }
}

TEST(StreamResilience, WatchdogMarksStallsAndDegradesNewAdmissions) {
  StreamOptions options;
  options.engine.workers = 1;
  options.watchdog.poll_interval_s = 0.01;
  options.watchdog.stall_s = 0.05;
  StreamEngine engine(options);
  EXPECT_EQ(engine.health(), HealthState::kHealthy);

  // Pause the pump so admitted work cannot progress: the watchdog must
  // flag the stall.
  engine.pause();
  auto stuck = engine.submit(demo_jobs(98, 12));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.health() != HealthState::kStalled &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine.health(), HealthState::kStalled);
  EXPECT_GE(engine.watchdog_stalls(), 1u);

  // Admissions during the stall take the graceful-degradation tier.
  auto during = engine.submit(demo_jobs(99, 12));
  engine.resume();
  engine.drain();
  ASSERT_TRUE(stuck.get().has_value());
  const SolveOutcome degraded = during.get();
  ASSERT_TRUE(degraded.has_value());
  EXPECT_TRUE(degraded->degraded);

  // Progress resumed and the backlog drained: the health state leaves
  // kStalled (kHealthy once the watchdog polls an idle engine).
  const auto recover =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.health() == HealthState::kStalled &&
         std::chrono::steady_clock::now() < recover) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(engine.health(), HealthState::kStalled);
}

TEST(StreamResilience, StatsJsonCarriesHealthTenantsAndLatency) {
  StreamOptions options;
  options.engine.workers = 1;
  StreamEngine engine(options);
  SubmitOptions submit;
  submit.tenant = "acme";
  auto f = engine.submit(demo_jobs(100, 8), submit);
  engine.drain();
  ASSERT_TRUE(f.get().has_value());

  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"health\":\"healthy\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"acme\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"breaker_state\":\"closed\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{\"count\":1"), std::string::npos) << json;
}

TEST(StreamResilience, StatsJsonEscapesHostileTenantNames) {
  // Tenant ids come off the wire: a fuzzed frame can smuggle quotes,
  // backslashes and control bytes into the name.  stats_json() must
  // escape them or the whole document stops being valid JSON.
  StreamOptions options;
  options.engine.workers = 1;
  StreamEngine engine(options);
  SubmitOptions submit;
  submit.tenant = "ev\"il\\t\nenant";
  auto f = engine.submit(demo_jobs(101, 8), submit);
  engine.drain();
  ASSERT_TRUE(f.get().has_value());

  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"ev\\\"il\\\\t\\nenant\""), std::string::npos) << json;
  // The raw quote-backslash sequence must not leak through unescaped.
  EXPECT_EQ(json.find("ev\"il"), std::string::npos) << json;
}

}  // namespace
}  // namespace pobp
