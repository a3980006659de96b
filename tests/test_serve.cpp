// Tests for pobp::StreamEngine — the streaming serving layer: replay
// determinism, admission control (shed / tenant quota / overload degrade),
// and per-request fault containment.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "pobp/pobp.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

std::vector<JobSet> corpus(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSet> instances;
  for (std::size_t i = 0; i < count; ++i) {
    JobGenConfig config;
    config.n = 8 + 3 * (i % 9);
    config.max_length = 1 << 6;
    config.horizon = 1 << 12;
    instances.push_back(random_jobs(config, rng));
  }
  return instances;
}

std::string fingerprint(const ScheduleResult& r) {
  return io::schedule_to_csv(r.schedule) + "|" + std::to_string(r.value) +
         "|" + std::to_string(r.unbounded_value);
}

/// Disarms process-wide fault-injection triggers on scope exit so a failing
/// assertion cannot poison later tests.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

// ---------------------------------------------------- determinism ---------

// The serving acceptance bar: the same request stream produces bit-identical
// outcomes for every worker count, queue shape, and pump batch size —
// concurrency changes latency only.
TEST(StreamEngine, ReplayDeterministicAcrossWorkers) {
  const std::vector<JobSet> instances = corpus(64, 404);

  std::vector<std::string> expected;
  for (const JobSet& jobs : instances) {
    expected.push_back(fingerprint(
        try_schedule_bounded(jobs, {.k = 1, .machine_count = 2}).value()));
  }

  struct Shape {
    std::size_t workers, queue, batch;
  };
  for (const Shape shape : {Shape{1, 1024, 64}, Shape{2, 16, 4},
                            Shape{8, 1024, 1}}) {
    StreamOptions options;
    options.engine.schedule = {.k = 1, .machine_count = 2};
    options.engine.workers = shape.workers;
    options.queue_capacity = shape.queue;
    options.max_batch = shape.batch;
    StreamEngine service(options);

    std::vector<std::future<SolveOutcome>> futures;
    for (const JobSet& jobs : instances) {
      futures.push_back(service.submit(jobs));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const SolveOutcome outcome = futures[i].get();
      ASSERT_TRUE(outcome.has_value()) << "request " << i;
      EXPECT_EQ(fingerprint(*outcome), expected[i])
          << "request " << i << " diverged with " << shape.workers
          << " workers, queue " << shape.queue << ", batch " << shape.batch;
    }
  }
}

// ------------------------------------------------ fault containment -------

// A request that exhausts its op budget fails alone: its future carries a
// POBP-RUN-003 report, every other in-flight request — including later
// submissions from the same tenant — completes normally.  This is the
// "rejections are per-request, not fatal" serving contract.
TEST(StreamEngine, BudgetRejectionsArePerRequestNotFatal) {
  const std::vector<JobSet> instances = corpus(24, 31337);
  StreamOptions options;
  options.engine.schedule = {.k = 1};
  options.engine.workers = 4;
  StreamEngine service(options);

  std::vector<std::future<SolveOutcome>> futures;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SubmitOptions submit;
    if (i % 3 == 1) {
      submit.budget = SolveBudget{.max_ops = 1};  // guaranteed to trip
      submit.degrade = DegradePolicy::kNone;
    }
    futures.push_back(service.submit(instances[i], std::move(submit)));
  }

  std::size_t rejected = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SolveOutcome outcome = futures[i].get();
    if (i % 3 == 1) {
      ASSERT_FALSE(outcome.has_value()) << "request " << i;
      EXPECT_EQ(outcome.error().count("POBP-RUN-003"), 1u);
      ++rejected;
    } else {
      ASSERT_TRUE(outcome.has_value())
          << "request " << i << " poisoned by a neighbour's budget: "
          << (outcome ? "" : outcome.error().first_error());
    }
  }
  EXPECT_EQ(rejected, 8u);
  // The service is still healthy: a fresh request succeeds.
  EXPECT_TRUE(service.submit(instances[0]).get().has_value());
}

// -------------------------------------------------- admission control -----

// pause() gives a deterministic full queue: try_submit sheds with
// POBP-RUN-004 (immediately, no blocking), and the shed request never
// touches the solver; everything admitted before the overflow completes
// after resume().
TEST(StreamEngine, ShedsOnFullQueueWithRun004) {
  const std::vector<JobSet> instances = corpus(8, 77);
  StreamOptions options;
  options.engine.schedule = {.k = 1};
  options.engine.workers = 1;
  options.queue_capacity = 4;
  StreamEngine service(options);
  service.pause();

  std::vector<std::future<SolveOutcome>> admitted;
  for (std::size_t i = 0; i < 4; ++i) {
    admitted.push_back(service.try_submit(instances[i]));
  }
  std::future<SolveOutcome> overflow = service.try_submit(instances[4]);
  const SolveOutcome shed = overflow.get();  // resolves while still paused
  ASSERT_FALSE(shed.has_value());
  EXPECT_EQ(shed.error().count("POBP-RUN-004"), 1u);

  service.resume();
  service.drain();
  for (auto& future : admitted) {
    EXPECT_TRUE(future.get().has_value());
  }

  const auto stats = service.tenant_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.shed, 1u);
  EXPECT_EQ(stats[0].second.completed, 4u);
}

// A blocking submit() on a full, paused queue parks until the pump makes
// room, then completes like any other request: nothing is shed.
TEST(StreamEngine, BlockingSubmitParksOnFullQueueUntilResume) {
  const std::vector<JobSet> instances = corpus(3, 515);
  StreamOptions options;
  options.engine.schedule = {.k = 1};
  options.engine.workers = 1;
  options.queue_capacity = 2;
  StreamEngine service(options);
  service.pause();

  std::vector<std::future<SolveOutcome>> futures;
  futures.push_back(service.submit(instances[0]));
  futures.push_back(service.submit(instances[1]));
  std::future<std::future<SolveOutcome>> parked = std::async(
      std::launch::async, [&] { return service.submit(instances[2]); });
  EXPECT_EQ(parked.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "submit() returned on a full queue";
  EXPECT_EQ(service.queue_depth(), 2u);

  service.resume();
  futures.push_back(parked.get());
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().has_value());
  }
  service.drain();
  const auto stats = service.tenant_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].second.shed, 0u);
  EXPECT_EQ(stats[0].second.completed, 3u);
}

// queue_capacity rounds up to a power of two, at least 2: on a paused
// queue exactly that many try_submit() calls are admitted, and the next
// one sheds with a POBP-RUN-004 payload naming the rounded capacity.
TEST(StreamEngine, QueueCapacityRoundsUpToAPowerOfTwo) {
  const std::vector<JobSet> instances = corpus(9, 2718);
  struct Case {
    std::size_t requested, rounded;
  };
  for (const Case c : {Case{0, 2}, Case{1, 2}, Case{5, 8}}) {
    StreamOptions options;
    options.engine.schedule = {.k = 1};
    options.engine.workers = 1;
    options.queue_capacity = c.requested;
    StreamEngine service(options);
    service.pause();

    std::vector<std::future<SolveOutcome>> admitted;
    for (std::size_t i = 0; i < c.rounded; ++i) {
      admitted.push_back(service.try_submit(instances[i]));
    }
    const SolveOutcome shed = service.try_submit(instances[c.rounded]).get();
    ASSERT_FALSE(shed.has_value()) << "capacity " << c.requested;
    ASSERT_EQ(shed.error().count("POBP-RUN-004"), 1u);
    const auto& payload = shed.error().diagnostics().front().payload;
    const auto field = std::find_if(
        payload.begin(), payload.end(),
        [](const auto& kv) { return kv.first == "queue_capacity"; });
    ASSERT_NE(field, payload.end());
    EXPECT_EQ(field->second, std::to_string(c.rounded))
        << "capacity " << c.requested;

    service.resume();
    for (auto& future : admitted) {
      EXPECT_TRUE(future.get().has_value());
    }
  }
}

// tenant_max_in_flight caps one tenant without touching its neighbours:
// the quota rejection is POBP-RUN-005 and immediate.
TEST(StreamEngine, TenantQuotaRejectsWithRun005) {
  const std::vector<JobSet> instances = corpus(6, 99);
  StreamOptions options;
  options.engine.schedule = {.k = 1};
  options.engine.workers = 1;
  options.tenant_max_in_flight = 2;
  StreamEngine service(options);
  service.pause();  // hold everything in the queue so in-flight is exact

  const auto submit_as = [&](const std::string& tenant, const JobSet& jobs) {
    SubmitOptions submit;
    submit.tenant = tenant;
    return service.submit(jobs, std::move(submit));
  };

  std::vector<std::future<SolveOutcome>> kept;
  kept.push_back(submit_as("a", instances[0]));
  kept.push_back(submit_as("a", instances[1]));
  std::future<SolveOutcome> over = submit_as("a", instances[2]);
  const SolveOutcome quota = over.get();
  ASSERT_FALSE(quota.has_value());
  EXPECT_EQ(quota.error().count("POBP-RUN-005"), 1u);

  // A different tenant is unaffected by a's quota.
  kept.push_back(submit_as("b", instances[3]));

  service.resume();
  service.drain();
  for (auto& future : kept) {
    EXPECT_TRUE(future.get().has_value());
  }
  for (const auto& [tenant, stats] : service.tenant_stats()) {
    if (tenant == "a") {
      EXPECT_EQ(stats.rejected_quota, 1u);
      EXPECT_EQ(stats.completed, 2u);
    } else {
      EXPECT_EQ(stats.rejected_quota, 0u);
    }
  }
}

// The overload tier: requests admitted while the queue is >= 3/4 full are
// answered on the degraded path instead of being shed — load shedding by
// quality, not by availability.
TEST(StreamEngine, OverloadTierDegradesInsteadOfShedding) {
  const std::vector<JobSet> instances = corpus(8, 1234);
  StreamOptions options;
  options.engine.schedule = {.k = 1};
  options.engine.workers = 1;
  options.queue_capacity = 8;
  options.overload_degrade = DegradePolicy::kApproximate;
  StreamEngine service(options);
  service.pause();

  std::vector<std::future<SolveOutcome>> futures;
  for (const JobSet& jobs : instances) {  // fills the queue exactly
    futures.push_back(service.submit(jobs));
  }
  service.resume();
  std::size_t degraded = 0;
  for (auto& future : futures) {
    const SolveOutcome outcome = future.get();
    ASSERT_TRUE(outcome.has_value());
    // Overload-degraded schedules are still feasible k-bounded schedules.
    if (outcome->degraded) ++degraded;
  }
  // Requests 6 and 7 were admitted at occupancy 6 and 7 (>= 3/4 of 8).
  EXPECT_EQ(degraded, 2u);
}

// ------------------------------------------------------- fault soak -------

// Injected faults at every pipeline site land in exactly the targeted
// requests' futures as POBP-RUN-001; the stream, the pump thread, and all
// other requests keep going.  (The TSan preset also runs this under the
// sanitizer.)
TEST(StreamEngine, FaultSoakAllSitesContained) {
  const DisarmGuard disarm;
  const std::vector<JobSet> instances = corpus(32, 618);

  std::vector<std::string> expected;
  for (const JobSet& jobs : instances) {
    expected.push_back(
        fingerprint(try_schedule_bounded(jobs, {.k = 1}).value()));
  }

  // Request id == admission index == fault instance: one hit per site,
  // spread across the stream.
  StreamOptions options;
  options.engine.schedule = {.k = 1};
  options.engine.workers = 4;
  options.engine.fault_injection =
      "alloc@3:1,laminarize@7:1,tm_dp@11:1,left_merge@19:1,validate@29:1";
  StreamEngine service(options);

  std::vector<std::future<SolveOutcome>> futures;
  for (const JobSet& jobs : instances) {
    futures.push_back(service.submit(jobs));
  }
  const std::vector<std::size_t> faulty = {3, 7, 11, 19, 29};
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SolveOutcome outcome = futures[i].get();
    const bool should_fault =
        std::find(faulty.begin(), faulty.end(), i) != faulty.end();
    if (should_fault) {
      ASSERT_FALSE(outcome.has_value()) << "request " << i << " never faulted";
      EXPECT_EQ(outcome.error().count("POBP-RUN-001"), 1u);
    } else {
      ASSERT_TRUE(outcome.has_value()) << "request " << i << " poisoned";
      EXPECT_EQ(fingerprint(*outcome), expected[i]);
    }
  }

  // Disarm and replay the faulted requests through the same service: the
  // arenas the faults unwound through must produce clean results.
  fault::disarm();
  for (const std::size_t i : faulty) {
    const SolveOutcome retried = service.submit(instances[i]).get();
    ASSERT_TRUE(retried.has_value()) << "request " << i << " after disarm";
    EXPECT_EQ(fingerprint(*retried), expected[i]);
  }
}

}  // namespace
}  // namespace pobp
