#include "pobp/engine/serve.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "pobp/diag/registry.hpp"
#include "pobp/diag/render.hpp"

namespace pobp {
namespace {

constexpr const char* kDefaultTenant = "default";

/// StreamOptions::queue_capacity rounded up to a power of two, at least 2;
/// a request above the largest power of two gets that power.
std::size_t rounded_queue_capacity(std::size_t requested) {
  constexpr std::size_t kLargest =
      std::numeric_limits<std::size_t>::max() / 2 + 1;
  return std::bit_ceil(std::clamp<std::size_t>(requested, 2, kLargest));
}

/// An already-resolved rejection future: shed / quota outcomes use the
/// same future-of-outcome shape as real solves, so callers handle one
/// uniform frame type.
std::future<SolveOutcome> resolved(diag::Report report) {
  std::promise<SolveOutcome> promise;
  promise.set_value(Unexpected{std::move(report)});
  return promise.get_future();
}

/// Shortest deterministic rendering for the stats JSON (not a replay-
/// gated format, but kept stable anyway).
std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

struct StreamEngine::Impl {
  /// Per-tenant counters, cache-line aligned so two tenants hammering
  /// their own shards never false-share; merged into TenantStats at read
  /// time.
  struct alignas(64) Tenant {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> rejected_quota{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> in_flight{0};
    std::atomic<std::uint64_t> rejected_rate{0};     ///< POBP-RUN-006
    std::atomic<std::uint64_t> rejected_breaker{0};  ///< POBP-RUN-007
    /// First SubmitOptions::rate_limit override wins (sticky).
    std::atomic<bool> rate_overridden{false};
    TokenBucket bucket;
    CircuitBreaker breaker;
    LatencyHistogram latency;  ///< admission → completion
  };

  /// One admitted request, owned by the queue between push and pop.
  struct Request {
    JobSet jobs;
    ScheduleOptions schedule;
    SubmitOptions submit;
    std::promise<SolveOutcome> promise;
    Tenant* tenant = nullptr;
    std::uint64_t id = 0;          ///< admission index = fault instance
    bool degraded_tier = false;    ///< admitted into the overload tier
    std::chrono::steady_clock::time_point admitted{};
  };

  StreamOptions options;
  Engine engine;
  /// queue_capacity rounded up to a power of two, at least 2.
  const std::size_t capacity;

  /// Guards the queue and every field below it up to the condition
  /// variables, so each waiter's predicate reads state that changed under
  /// this same lock.
  std::mutex wait_mutex;
  /// Admitted requests in admission order, popped by the pump.
  std::deque<std::unique_ptr<Request>> queue;
  bool stopping = false;
  bool paused = false;
  std::uint64_t enqueued = 0;   ///< requests that entered the queue
  std::uint64_t completed = 0;  ///< requests whose batch has finished
  std::condition_variable pump_cv;   ///< pump sleeps when idle or paused
  std::condition_variable space_cv;  ///< producers sleep on a full queue
  std::condition_variable idle_cv;   ///< drain() sleeps here

  std::atomic<std::uint64_t> next_id{0};  ///< admission ids (unique)

  mutable std::mutex tenants_mutex;
  std::map<std::string, std::unique_ptr<Tenant>> tenants;

  /// Watchdog health (stored as int for the atomic; kHealthy when the
  /// watchdog is disabled) and total stall detections.
  std::atomic<int> health_state{static_cast<int>(HealthState::kHealthy)};
  std::atomic<std::uint64_t> stall_count{0};
  std::condition_variable watchdog_cv;  ///< watchdog sleeps between polls

  /// Monotonic time origin for the resilience clocks (token buckets,
  /// breaker cooldowns): seconds since Impl construction.
  const std::chrono::steady_clock::time_point epoch{
      std::chrono::steady_clock::now()};

  std::thread pump;
  std::thread watchdog;

  explicit Impl(StreamOptions opts)
      : options(std::move(opts)),
        engine(options.engine),
        capacity(rounded_queue_capacity(options.queue_capacity)) {
    pump = std::thread([this] { pump_loop(); });
    if (options.watchdog.enabled()) {
      watchdog = std::thread([this] { watchdog_loop(); });
    }
  }

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  }

  Tenant& tenant_for(const std::string& name) {
    const std::string& key = name.empty() ? kDefaultTenant : name;
    std::lock_guard<std::mutex> lock(tenants_mutex);
    std::unique_ptr<Tenant>& slot = tenants[key];
    if (!slot) {
      slot = std::make_unique<Tenant>();
      slot->bucket.configure(options.tenant_rate, now_s());
      slot->breaker.configure(options.breaker);
    }
    return *slot;
  }

  static std::string_view tenant_name(const SubmitOptions& submit) {
    return submit.tenant.empty() ? std::string_view(kDefaultTenant)
                                 : std::string_view(submit.tenant);
  }

  std::future<SolveOutcome> admit(JobSet jobs, const ScheduleOptions& schedule,
                                  SubmitOptions submit, bool blocking) {
    Tenant& tenant = tenant_for(submit.tenant);
    tenant.submitted.fetch_add(1, std::memory_order_relaxed);

    // Per-tenant rate limit (POBP-RUN-006), layered before the in-flight
    // quota: a tenant's first submission carrying a rate_limit override
    // reconfigures its bucket (sticky — later overrides are ignored, so
    // racing producers see one consistent limit).
    if (submit.rate_limit.has_value() &&
        !tenant.rate_overridden.exchange(true, std::memory_order_acq_rel)) {
      tenant.bucket.configure(*submit.rate_limit, now_s());
    }
    if (!tenant.bucket.try_acquire(now_s())) {
      tenant.rejected_rate.fetch_add(1, std::memory_order_relaxed);
      diag::Report report;
      report
          .add(std::string(diag::rules::kRunRateLimited),
               "tenant rate limit exceeded; resubmit after the bucket "
               "refills")
          .with("tenant", std::string(tenant_name(submit)));
      return resolved(std::move(report));
    }

    // Tenant quota: reserve an in-flight slot with a CAS so two racing
    // submissions can never both slip under the cap.
    const std::uint64_t quota = options.tenant_max_in_flight;
    if (quota > 0) {
      std::uint64_t cur = tenant.in_flight.load(std::memory_order_acquire);
      for (;;) {
        if (cur >= quota) {
          tenant.rejected_quota.fetch_add(1, std::memory_order_relaxed);
          diag::Report report;
          report
              .add(std::string(diag::rules::kRunTenantQuota),
                   "tenant in-flight quota exceeded; resubmit after "
                   "completions")
              .with("tenant", std::string(tenant_name(submit)))
              .with("in_flight", static_cast<std::size_t>(cur))
              .with("quota", static_cast<std::size_t>(quota));
          return resolved(std::move(report));
        }
        if (tenant.in_flight.compare_exchange_weak(
                cur, cur + 1, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          break;
        }
      }
    }

    // Circuit breaker (POBP-RUN-007), last before the queue so an
    // admitted-then-shed request can return its half-open probe slot.
    if (!tenant.breaker.try_admit(now_s())) {
      tenant.rejected_breaker.fetch_add(1, std::memory_order_relaxed);
      if (quota > 0) tenant.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      diag::Report report;
      report
          .add(std::string(diag::rules::kRunBreakerOpen),
               "tenant circuit breaker open after consecutive pipeline "
               "faults; resubmit after the cooldown")
          .with("tenant", std::string(tenant_name(submit)))
          .with("state", std::string(to_string(tenant.breaker.state(now_s()))));
      return resolved(std::move(report));
    }

    auto request = std::make_unique<Request>();
    request->jobs = std::move(jobs);
    request->schedule = schedule;
    request->submit = std::move(submit);
    request->tenant = &tenant;
    request->id = next_id.fetch_add(1, std::memory_order_relaxed);
    request->admitted = std::chrono::steady_clock::now();
    std::future<SolveOutcome> future = request->promise.get_future();

    bool pushed = false;
    bool stopped = false;
    {
      std::unique_lock<std::mutex> lock(wait_mutex);
      if (blocking) {
        // Backpressure: park until the pump pops a batch.
        space_cv.wait(lock,
                      [&] { return queue.size() < capacity || stopping; });
      }
      pushed = queue.size() < capacity;
      if (pushed) {
        request->degraded_tier =
            (options.overload_degrade == DegradePolicy::kApproximate &&
             queue.size() * 4 >= capacity * 3) ||
            // Watchdog graceful degradation: while the pump is stalled, new
            // admissions answer on the cheap path instead of deepening the
            // backlog at full fidelity.
            health_state.load(std::memory_order_relaxed) ==
                static_cast<int>(HealthState::kStalled);
        queue.push_back(std::move(request));
        ++enqueued;
      }
      stopped = stopping;
    }
    if (!pushed) {
      tenant.shed.fetch_add(1, std::memory_order_relaxed);
      tenant.breaker.on_abandoned();  // return a half-open probe slot
      if (quota > 0) tenant.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      diag::Report report;
      report
          .add(std::string(diag::rules::kRunAdmission),
               stopped ? "submission shed: engine is stopping"
                       : "submission shed: queue full; resubmit or use the "
                         "blocking submit path")
          .with("tenant", std::string(tenant_name(request->submit)))
          .with("queue_capacity", capacity);
      return resolved(std::move(report));
    }
    pump_cv.notify_one();
    return future;
  }

  /// Solves one popped request on a worker session and fulfills its
  /// promise.  Runs on pool workers via Engine::run_batch; everything it
  /// touches is request-local or atomic.
  void complete(Session& session, Request& request) {
    bool expired = false;
    SubmitOptions submit = request.submit;
    if (submit.deadline_s > 0) {
      // The end-to-end deadline is measured from admission: time spent
      // queued counts, and the solve gets only the remainder.
      const double waited =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        request.admitted)
              .count();
      const double remaining = submit.deadline_s - waited;
      if (remaining <= 0) {
        expired = true;
      } else {
        submit.deadline_s = remaining;
      }
    }

    ScheduleResult result;
    std::optional<diag::Report> failed;
    if (expired) {
      failed.emplace();
      failed
          ->add(std::string(diag::rules::kRunDeadline),
                "request deadline expired while queued")
          .with("instance", static_cast<std::size_t>(request.id));
    } else {
      // Requests admitted under queue pressure run on the approximate
      // (overload) tier, which still serves exact cache hits first.
      failed = session.run(request.jobs, request.schedule, submit,
                           request.id, result, request.degraded_tier);
    }
    if (!failed) {
      if (session.last_solve_was_cache_hit()) {
        request.tenant->cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      // Counts every degraded answer: the overload tier, the watchdog
      // tier, budget fallbacks and retry final-attempt downgrades alike.
      if (result.degraded) {
        request.tenant->degraded.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      request.tenant->failed.fetch_add(1, std::memory_order_relaxed);
    }
    // Breaker feedback: only contained pipeline faults (POBP-RUN-001)
    // are evidence of an unhealthy pipeline; budget / deadline verdicts
    // are the request's own outcome and count as successes here.
    if (failed && failed->count(diag::rules::kRunPipelineFault) > 0) {
      request.tenant->breaker.on_failure(now_s());
    } else {
      request.tenant->breaker.on_success();
    }
    request.tenant->latency.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      request.admitted)
            .count());
    if (failed) {
      request.promise.set_value(Unexpected{std::move(*failed)});
    } else {
      request.promise.set_value(std::move(result));
    }
  }

  /// Watchdog: polls completion progress; pending work without progress
  /// for >= stall_s marks the engine stalled (new admissions degrade),
  /// resumed progress recovers through kDegraded back to kHealthy.
  void watchdog_loop() {
    const WatchdogPolicy& policy = options.watchdog;
    std::uint64_t last_done = 0;
    double stalled_for = 0;
    for (;;) {
      std::uint64_t done = 0;
      bool pending = false;
      {
        std::unique_lock<std::mutex> lock(wait_mutex);
        watchdog_cv.wait_for(
            lock, std::chrono::duration<double>(policy.poll_interval_s),
            [&] { return stopping; });
        if (stopping) return;
        done = completed;
        pending = enqueued > done;
      }
      if (done != last_done || !pending) {
        last_done = done;
        stalled_for = 0;
        if (!pending) {
          health_state.store(static_cast<int>(HealthState::kHealthy),
                             std::memory_order_relaxed);
        } else if (health_state.load(std::memory_order_relaxed) ==
                   static_cast<int>(HealthState::kStalled)) {
          health_state.store(static_cast<int>(HealthState::kDegraded),
                             std::memory_order_relaxed);
        }
      } else {
        stalled_for += policy.poll_interval_s;
        if (stalled_for >= policy.stall_s &&
            health_state.load(std::memory_order_relaxed) !=
                static_cast<int>(HealthState::kStalled)) {
          health_state.store(static_cast<int>(HealthState::kStalled),
                             std::memory_order_relaxed);
          stall_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }

  void pump_loop() {
    const std::size_t max_batch = std::max<std::size_t>(1, options.max_batch);
    std::vector<std::unique_ptr<Request>> batch;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(wait_mutex);
        // pause() freezes dispatch (admission keeps filling the queue);
        // shutdown overrides it so the destructor always drains.
        pump_cv.wait(lock,
                     [&] { return stopping || (!paused && !queue.empty()); });
        if (queue.empty()) return;  // stopping, and nothing left to drain
        while (batch.size() < max_batch && !queue.empty()) {
          batch.push_back(std::move(queue.front()));
          queue.pop_front();
        }
      }
      space_cv.notify_all();

      engine.run_batch(
          batch.size(), [&](std::size_t i) { return batch[i]->jobs.size(); },
          [&](Session& session, std::size_t i) {
            complete(session, *batch[i]);
          });

      for (const std::unique_ptr<Request>& request : batch) {
        Impl::Tenant& tenant = *request->tenant;
        tenant.completed.fetch_add(1, std::memory_order_relaxed);
        if (options.tenant_max_in_flight > 0) {
          tenant.in_flight.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
      const std::size_t finished = batch.size();
      batch.clear();
      {
        std::lock_guard<std::mutex> lock(wait_mutex);
        completed += finished;
      }
      idle_cv.notify_all();
    }
  }
};

StreamEngine::StreamEngine(StreamOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

StreamEngine::~StreamEngine() {
  {
    std::lock_guard<std::mutex> lock(impl_->wait_mutex);
    impl_->stopping = true;
  }
  impl_->pump_cv.notify_all();
  impl_->space_cv.notify_all();
  impl_->watchdog_cv.notify_all();
  impl_->pump.join();
  if (impl_->watchdog.joinable()) impl_->watchdog.join();
}

std::future<SolveOutcome> StreamEngine::submit(JobSet jobs,
                                               SubmitOptions options) {
  const ScheduleOptions schedule = impl_->options.engine.schedule;
  return impl_->admit(std::move(jobs), schedule, std::move(options),
                      /*blocking=*/true);
}

std::future<SolveOutcome> StreamEngine::submit(JobSet jobs,
                                               const ScheduleOptions& schedule,
                                               SubmitOptions options) {
  return impl_->admit(std::move(jobs), schedule, std::move(options),
                      /*blocking=*/true);
}

std::future<SolveOutcome> StreamEngine::try_submit(JobSet jobs,
                                                   SubmitOptions options) {
  const ScheduleOptions schedule = impl_->options.engine.schedule;
  return impl_->admit(std::move(jobs), schedule, std::move(options),
                      /*blocking=*/false);
}

std::future<SolveOutcome> StreamEngine::try_submit(
    JobSet jobs, const ScheduleOptions& schedule, SubmitOptions options) {
  return impl_->admit(std::move(jobs), schedule, std::move(options),
                      /*blocking=*/false);
}

void StreamEngine::pause() {
  std::lock_guard<std::mutex> lock(impl_->wait_mutex);
  impl_->paused = true;
}

void StreamEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(impl_->wait_mutex);
    impl_->paused = false;
  }
  impl_->pump_cv.notify_all();
}

void StreamEngine::drain() {
  std::unique_lock<std::mutex> lock(impl_->wait_mutex);
  impl_->idle_cv.wait(
      lock, [&] { return impl_->enqueued == impl_->completed; });
}

EngineMetrics StreamEngine::metrics() const { return impl_->engine.metrics(); }

std::vector<std::pair<std::string, TenantStats>> StreamEngine::tenant_stats()
    const {
  std::vector<std::pair<std::string, TenantStats>> stats;
  std::lock_guard<std::mutex> lock(impl_->tenants_mutex);
  stats.reserve(impl_->tenants.size());
  for (const auto& [name, tenant] : impl_->tenants) {
    TenantStats s;
    s.submitted = tenant->submitted.load(std::memory_order_relaxed);
    s.completed = tenant->completed.load(std::memory_order_relaxed);
    s.failed = tenant->failed.load(std::memory_order_relaxed);
    s.rejected_quota = tenant->rejected_quota.load(std::memory_order_relaxed);
    s.shed = tenant->shed.load(std::memory_order_relaxed);
    s.degraded = tenant->degraded.load(std::memory_order_relaxed);
    s.cache_hits = tenant->cache_hits.load(std::memory_order_relaxed);
    s.rejected_rate = tenant->rejected_rate.load(std::memory_order_relaxed);
    s.rejected_breaker =
        tenant->rejected_breaker.load(std::memory_order_relaxed);
    s.breaker_trips = tenant->breaker.trips();
    s.breaker_state = tenant->breaker.state(impl_->now_s());
    s.latency = tenant->latency.snapshot();
    stats.emplace_back(name, s);
  }
  return stats;
}

HealthState StreamEngine::health() const {
  return static_cast<HealthState>(
      impl_->health_state.load(std::memory_order_relaxed));
}

std::uint64_t StreamEngine::watchdog_stalls() const {
  return impl_->stall_count.load(std::memory_order_relaxed);
}

std::string StreamEngine::stats_json() const {
  std::string out = "{\"health\":\"";
  out += to_string(health());
  out += "\",\"watchdog_stalls\":";
  out += std::to_string(watchdog_stalls());
  {
    const EngineMetrics m = metrics();
    out += ",\"cache\":{\"hits\":" + std::to_string(m.cache_hits);
    out += ",\"misses\":" + std::to_string(m.cache_misses);
    out += ",\"insertions\":" + std::to_string(m.cache_insertions);
    out += ",\"evictions\":" + std::to_string(m.cache_evictions);
    out += ",\"delta_patches\":" + std::to_string(m.cache_delta_patches);
    out += '}';
  }
  out += ",\"tenants\":{";
  bool first_tenant = true;
  for (const auto& [name, s] : tenant_stats()) {
    if (!first_tenant) out += ',';
    first_tenant = false;
    // Tenant ids come off the wire, so a hostile frame can carry quotes,
    // backslashes or control bytes — quote them or stats_json() stops
    // being valid JSON.
    out += diag::json_quote(name);
    out += ":{\"submitted\":" + std::to_string(s.submitted);
    out += ",\"completed\":" + std::to_string(s.completed);
    out += ",\"failed\":" + std::to_string(s.failed);
    out += ",\"rejected_quota\":" + std::to_string(s.rejected_quota);
    out += ",\"shed\":" + std::to_string(s.shed);
    out += ",\"degraded\":" + std::to_string(s.degraded);
    out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
    out += ",\"rejected_rate\":" + std::to_string(s.rejected_rate);
    out += ",\"rejected_breaker\":" + std::to_string(s.rejected_breaker);
    out += ",\"breaker_trips\":" + std::to_string(s.breaker_trips);
    out += ",\"breaker_state\":\"";
    out += to_string(s.breaker_state);
    out += "\",\"latency\":{\"count\":" + std::to_string(s.latency.count);
    out += ",\"p50_ms\":" + json_double(s.latency.p50_ms);
    out += ",\"p95_ms\":" + json_double(s.latency.p95_ms);
    out += ",\"p99_ms\":" + json_double(s.latency.p99_ms);
    out += ",\"buckets\":[";
    // Trailing zero buckets trimmed; bucket i covers [2^i, 2^(i+1)) µs.
    std::size_t last = 0;
    for (std::size_t i = 0; i < s.latency.buckets.size(); ++i) {
      if (s.latency.buckets[i] != 0) last = i + 1;
    }
    for (std::size_t i = 0; i < last; ++i) {
      if (i != 0) out += ',';
      out += std::to_string(s.latency.buckets[i]);
    }
    out += "]}}";
  }
  out += "}}";
  return out;
}

std::size_t StreamEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->wait_mutex);
  return impl_->queue.size();
}

const StreamOptions& StreamEngine::options() const { return impl_->options; }

}  // namespace pobp
