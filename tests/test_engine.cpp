// Tests for pobp::Engine / pobp::Session (the batch-solve runtime), the
// Expected-based checked entry points, and the engine metrics.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pobp/pobp.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

std::vector<JobSet> corpus(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSet> instances;
  for (std::size_t i = 0; i < count; ++i) {
    JobGenConfig config;
    config.n = 10 + 3 * i;
    config.max_length = 1 << 6;
    config.horizon = 1 << 12;
    instances.push_back(random_jobs(config, rng));
  }
  return instances;
}

/// Bit-exact fingerprint of a result: the serialized schedule plus the two
/// values (CSV keeps every segment, machine and order).
std::string fingerprint(const ScheduleResult& r) {
  return io::schedule_to_csv(r.schedule) + "|" + std::to_string(r.value) +
         "|" + std::to_string(r.unbounded_value);
}

/// Disarms process-wide fault-injection triggers on scope exit so a failing
/// assertion cannot leak armed triggers into later tests.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

/// A skewed batch: one giant instance first, then a mixed tail of small
/// ones.  The worker that claims the giant instance is pinned on it while
/// the others drain the tail — the worst case for balancing a batch.
std::vector<JobSet> skewed_corpus(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSet> instances;
  JobGenConfig giant;
  giant.n = 220;
  giant.max_length = 1 << 7;
  giant.horizon = 1 << 13;
  instances.push_back(random_jobs(giant, rng));
  for (std::size_t i = 1; i < count; ++i) {
    JobGenConfig config;
    config.n = 12 + (i % 7) * 6;
    config.max_length = 1 << 6;
    config.horizon = 1 << 12;
    instances.push_back(random_jobs(config, rng));
  }
  return instances;
}

// ------------------------------------------------------ determinism -------

// The acceptance bar of the engine: solve_batch must be bit-identical to
// the sequential one-call path for every worker count.
TEST(Engine, BatchMatchesSequentialForEveryWorkerCount) {
  const std::vector<JobSet> instances = corpus(12, 77);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  std::vector<std::string> expected;
  for (const JobSet& jobs : instances) {
    expected.push_back(
        fingerprint(try_schedule_bounded(jobs, schedule).value()));
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    Engine engine({.schedule = schedule, .workers = workers});
    const std::vector<ScheduleResult> results = engine.solve_batch(instances, {});
    ASSERT_EQ(results.size(), instances.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(fingerprint(results[i]), expected[i])
          << "instance " << i << " diverged with " << workers << " workers";
    }
  }
}

TEST(Engine, SingleSolveMatchesBatchOfOne) {
  const std::vector<JobSet> instances = corpus(1, 13);
  Engine engine({.schedule = {.k = 2}});
  const ScheduleResult lone = engine.try_solve(instances[0]).value();
  const std::vector<ScheduleResult> batch = engine.solve_batch(instances, {});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(fingerprint(lone), fingerprint(batch[0]));
}

// ----------------------------------------------------- batch dispatch -----

// The acceptance bar of batch dispatch: a 256-instance batch whose first
// instance dwarfs the rest (one worker is stuck on the giant while the
// others drain the tail) must still be byte-identical to the 1-worker run
// at every worker count — including counts far above the core count.
TEST(EngineStealing, SkewedBatchBitIdenticalAcrossWorkerCounts) {
  const std::vector<JobSet> instances = skewed_corpus(256, 20180616);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  std::vector<std::string> expected;
  {
    Engine engine({.schedule = schedule, .workers = 1});
    for (const ScheduleResult& r : engine.solve_batch(instances, {})) {
      expected.push_back(fingerprint(r));
    }
  }

  for (const std::size_t workers : {2u, 3u, 8u, 16u}) {
    Engine engine({.schedule = schedule, .workers = workers});
    std::vector<ScheduleResult> results;
    engine.solve_batch_into(instances, {}, results);
    ASSERT_EQ(results.size(), instances.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(fingerprint(results[i]), expected[i])
          << "instance " << i << " diverged with " << workers << " workers";
    }
    EXPECT_EQ(engine.metrics().instances, instances.size());
  }
}

// The intra-solve TM fan-out is a pure parallelisation: forcing it on for
// every multi-root forest (threshold 1) or turning it off entirely (0) must
// not change a single bit of any result, nested inside batch workers or not.
TEST(EngineStealing, TmForkThresholdDoesNotChangeResults) {
  const std::vector<JobSet> instances = skewed_corpus(48, 909);
  ScheduleOptions schedule{.k = 1, .machine_count = 2};

  std::vector<std::string> expected;
  {
    Engine engine({.schedule = schedule, .workers = 1});
    for (const ScheduleResult& r : engine.solve_batch(instances, {})) {
      expected.push_back(fingerprint(r));
    }
  }

  for (const std::size_t fork_min : {std::size_t{0}, std::size_t{1}}) {
    for (const std::size_t workers : {1u, 8u}) {
      ScheduleOptions forked = schedule;
      forked.tm_fork_min_nodes = fork_min;
      Engine engine({.schedule = forked, .workers = workers});
      const std::vector<ScheduleResult> results =
          engine.solve_batch(instances, {});
      ASSERT_EQ(results.size(), instances.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(fingerprint(results[i]), expected[i])
            << "instance " << i << " diverged with fork_min_nodes="
            << fork_min << ", " << workers << " workers";
      }
    }
  }
}

// Degraded outcomes ride the same determinism contract: which instances
// exhaust the op budget — and the approximate schedules they fall back to —
// must be identical for every worker count.
TEST(EngineStealing, DegradedOutcomesIdenticalAcrossWorkerCounts) {
  const std::vector<JobSet> instances = skewed_corpus(48, 31337);
  EngineOptions base;
  base.schedule = {.k = 1, .machine_count = 2};
  // 670 ops for the giant instance, <= 147 for every small one (measured
  // on this corpus; Algorithm 3's settled branches poll nothing): 400
  // splits the batch into degraded + clean halves.
  base.budget = {.max_ops = 400};
  base.degrade = DegradePolicy::kApproximate;

  std::vector<std::string> expected;
  std::vector<bool> degraded;
  {
    EngineOptions options = base;
    options.workers = 1;
    Engine engine(options);
    for (const ScheduleResult& r : engine.solve_batch(instances, {})) {
      expected.push_back(fingerprint(r));
      degraded.push_back(r.degraded);
    }
  }
  // The budget is sized so the batch is genuinely mixed: the giant instance
  // must exhaust it and degrade, the small tail must not.
  EXPECT_TRUE(degraded[0]);
  EXPECT_FALSE(std::all_of(degraded.begin(), degraded.end(),
                           [](bool d) { return d; }));

  for (const std::size_t workers : {2u, 3u, 8u}) {
    EngineOptions options = base;
    options.workers = workers;
    Engine engine(options);
    const std::vector<ScheduleResult> results = engine.solve_batch(instances, {});
    ASSERT_EQ(results.size(), instances.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].degraded, degraded[i])
          << "instance " << i << " degrade outcome flipped with " << workers
          << " workers";
      EXPECT_EQ(fingerprint(results[i]), expected[i])
          << "instance " << i << " diverged with " << workers << " workers";
    }
  }
}

/// The process's thread count, from the `Threads:` line of
/// /proc/self/status (0 if the line is missing).
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

/// CPU seconds used so far by every thread of this process.
double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

// TM forks on an engine worker run serially (no nested pools), so they must
// not start the process-wide pool either: a batch whose forests all pass
// the fork threshold adds exactly the engine's own workers to the process.
TEST(EngineStealing, ForkAttemptsOnWorkersStartNoOtherThreads) {
  const std::vector<JobSet> instances = skewed_corpus(16, 4242);
  ScheduleOptions schedule{.k = 1, .machine_count = 2};
  schedule.tm_fork_min_nodes = 1;
  // A sanitizer runtime may start a helper thread with the process's first
  // thread; start one first so that `before` already counts it.
  std::thread([] {}).join();
  const std::size_t before = process_threads();
  ASSERT_GT(before, 0u) << "no Threads: line in /proc/self/status";

  Engine engine({.schedule = schedule, .workers = 3});
  (void)engine.solve_batch(instances, {});
  EXPECT_EQ(process_threads(), before + engine.worker_count());
}

// Workers that find the batch's cursor spent go back to the pool and sleep.
// Instance 0's first attempt faults and its retry waits out a 0.2 s
// backoff, so one worker stays busy for the whole batch without using CPU
// while the other seven run out of work.  Spinning idle workers keep at
// least one core busy (all of them, once the scheduler spreads them), so
// the process's CPU time over the batch stays under half its wall time
// only if they sleep.
TEST(EngineStealing, IdleWorkersDoNotSpin) {
  const DisarmGuard disarm;
  Rng rng(8086);
  JobGenConfig config;
  config.n = 8;
  config.max_length = 1 << 6;
  config.horizon = 1 << 12;
  std::vector<JobSet> instances;
  for (int i = 0; i < 16; ++i) instances.push_back(random_jobs(config, rng));

  EngineOptions options;
  options.schedule = {.k = 1};
  options.workers = 8;
  options.retry = {.max_attempts = 2,
                   .base_backoff_s = 0.2,
                   .max_backoff_s = 0.2,
                   .jitter_frac = 0};
  options.fault_injection = "alloc@0:1";
  Engine engine(options);
  std::vector<ScheduleResult> results;
  for (int rep = 0; rep < 3; ++rep) {
    const double cpu_before = process_cpu_seconds();
    const auto wall_before = std::chrono::steady_clock::now();
    engine.solve_batch_into(instances, {}, results);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_before)
                            .count();
    const double cpu = process_cpu_seconds() - cpu_before;
    EXPECT_LT(cpu, 0.5 * wall)
        << "repetition " << rep << ": " << cpu << " s CPU over " << wall
        << " s wall";
  }
  EXPECT_EQ(engine.metrics().retries, 3u);  // one backoff per batch
}

// --------------------------------------------------------- sessions -------

TEST(Session, ReusedAcrossInstancesAccumulatesMetrics) {
  const std::vector<JobSet> instances = corpus(4, 3);
  Session session({.schedule = {.k = 1}});
  std::size_t jobs_total = 0;
  for (const JobSet& jobs : instances) {
    const ScheduleResult r = session.try_solve(jobs, {.k = 1}).value();
    EXPECT_TRUE(validate(jobs, r.schedule, 1).ok);
    jobs_total += jobs.size();
  }
  const EngineMetrics& m = session.metrics();
  EXPECT_EQ(m.instances, instances.size());
  EXPECT_EQ(m.jobs_seen, jobs_total);
  EXPECT_EQ(m.validation_failures, 0u);
  EXPECT_EQ(m.solve_seconds.count(), instances.size());
  EXPECT_GT(m.value_bounded, 0);
  EXPECT_GE(m.value_unbounded, m.value_bounded);

  session.reset_metrics();
  EXPECT_EQ(session.metrics().instances, 0u);
}

TEST(Session, PerCallOptionsOverrideConstructorOptions) {
  const std::vector<JobSet> instances = corpus(1, 9);
  Session session({.schedule = {.k = 1}});
  ScheduleResult k1;
  session.solve_into(instances[0], k1);
  const ScheduleResult k0 = session.try_solve(instances[0], {.k = 0}).value();
  EXPECT_LE(k0.schedule.max_preemptions(), 0u);
  EXPECT_TRUE(validate(instances[0], k1.schedule, 1).ok);
  EXPECT_TRUE(validate(instances[0], k0.schedule, 0).ok);
}

// The harvest pattern: one ScheduleResult reused across solve_into calls
// (its pooled schedule storage recycled between instances of very different
// sizes) must match fresh Session::try_solve results exactly.
TEST(Session, SolveIntoRecyclesResultStorage) {
  const std::vector<JobSet> instances = skewed_corpus(8, 2024);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};
  Session reusing({.schedule = schedule});
  Session fresh;
  ScheduleResult recycled;
  for (const JobSet& jobs : instances) {
    reusing.solve_into(jobs, recycled);
    EXPECT_EQ(fingerprint(recycled),
              fingerprint(fresh.try_solve(jobs, schedule).value()));
    EXPECT_TRUE(validate(jobs, recycled.schedule, 1).ok);
  }
  // Per-call option overrides flow through run() into the same result.
  ASSERT_FALSE(
      reusing.run(instances[1], {.k = 0}, {}, Session::kNoInstance, recycled));
  EXPECT_LE(recycled.schedule.max_preemptions(), 0u);
  EXPECT_TRUE(validate(instances[1], recycled.schedule, 0).ok);
}

// solve_batch_into across big -> small -> big batches: the results vector
// (and every pooled schedule inside it) is recycled, never reallocated from
// scratch, and the answers must match the allocating solve_batch path.
TEST(Engine, SolveBatchIntoReusesResultsVector) {
  const std::vector<JobSet> big = skewed_corpus(24, 5150);
  const std::vector<JobSet> small = corpus(5, 61);
  Engine engine({.schedule = {.k = 1, .machine_count = 2}, .workers = 4});
  Engine reference({.schedule = {.k = 1, .machine_count = 2}, .workers = 1});

  std::vector<ScheduleResult> results;
  for (const std::vector<JobSet>* batch : {&big, &small, &big}) {
    engine.solve_batch_into(*batch, {}, results);
    ASSERT_EQ(results.size(), batch->size());
    const std::vector<ScheduleResult> expected =
        reference.solve_batch(*batch, {});
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(fingerprint(results[i]), fingerprint(expected[i]))
          << "instance " << i << " diverged after vector reuse";
    }
  }
}

TEST(Session, EmptyInstanceSolvesToEmptySchedule) {
  Session session;
  const ScheduleResult r = session.try_solve(JobSet{}, {}).value();
  EXPECT_EQ(r.schedule.job_count(), 0u);
  EXPECT_EQ(r.value, 0);
  EXPECT_DOUBLE_EQ(r.price(), 1.0);
  EXPECT_EQ(session.metrics().instances, 1u);
}

// ---------------------------------------------------------- metrics -------

TEST(EngineMetrics, SnapshotMergesWorkerShards) {
  const std::vector<JobSet> instances = corpus(10, 21);
  Engine engine({.schedule = {.k = 1}, .workers = 3});
  (void)engine.solve_batch(instances, {});

  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.instances, instances.size());
  EXPECT_EQ(m.validation_failures, 0u);
  EXPECT_GT(m.batch_seconds, 0.0);
  EXPECT_GT(m.instances_per_second(), 0.0);
  // Every instance went through seed + validate; strict/lax branch stages
  // are recorded per instance too (k >= 1 path).
  EXPECT_EQ(m.stage_seconds[static_cast<std::size_t>(Stage::kSeed)].count(),
            instances.size());
  EXPECT_EQ(
      m.stage_seconds[static_cast<std::size_t>(Stage::kValidate)].count(),
      instances.size());
  EXPECT_EQ(m.price_histogram.total(), m.price.count());
  EXPECT_EQ(m.value_histogram.total(), instances.size());

  engine.reset_metrics();
  EXPECT_EQ(engine.metrics().instances, 0u);
}

TEST(EngineMetrics, ExportsAreNonEmptyAndNamed) {
  const std::vector<JobSet> instances = corpus(3, 41);
  Engine engine({.schedule = {.k = 1}, .workers = 2});
  (void)engine.solve_batch(instances, {});

  const std::string table = engine.metrics().to_table();
  EXPECT_NE(table.find("instances"), std::string::npos);
  EXPECT_NE(table.find("seed"), std::string::npos);

  const std::string json = engine.metrics().to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"instances\":3"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// The seed's admission counts: one probe per candidate per machine pass,
// each settled exactly one way, summed over the batch — the same sums for
// every worker count.  The exact seed makes no probes.
TEST(EngineMetrics, SeedProbesCountEveryCandidateForEveryWorkerCount) {
  const std::vector<JobSet> instances = skewed_corpus(24, 4711);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};
  std::size_t candidates = 0;
  for (const JobSet& jobs : instances) {
    const Schedule seed = greedy_infinity_multi(jobs, all_ids(jobs), 2);
    std::size_t left = jobs.size();
    for (std::size_t m = 0; m < 2 && left > 0; ++m) {
      candidates += left;
      left -= seed.machine(m).job_count();
    }
  }
  AdmissionCounts single;
  for (const std::size_t workers : {1u, 3u, 8u}) {
    Engine engine({.schedule = schedule, .workers = workers});
    (void)engine.solve_batch(instances, {});
    const AdmissionCounts got = engine.metrics().seed_probes;
    EXPECT_EQ(got.probes(), candidates) << workers << " workers";
    if (workers == 1) {
      single = got;
      EXPECT_GT(got.bound_rejected, 0u);
      EXPECT_GT(got.bound_accepted, 0u);
      EXPECT_GT(got.simulated, 0u);
      const std::string json = engine.metrics().to_json();
      EXPECT_NE(json.find("\"seed\":{\"bound_rejected\":" +
                          std::to_string(got.bound_rejected) +
                          ",\"bound_accepted\":" +
                          std::to_string(got.bound_accepted) +
                          ",\"simulated\":" + std::to_string(got.simulated)),
                std::string::npos)
          << json;
      EXPECT_NE(engine.metrics().to_table().find("seed probes"),
                std::string::npos);
    } else {
      EXPECT_EQ(got, single) << workers << " workers";
    }
  }

  const std::vector<JobSet> small = corpus(4, 5);
  Engine exact({.schedule = {.k = 1, .seed = ScheduleOptions::Seed::kExact},
                .workers = 2});
  (void)exact.solve_batch(small, {});
  EXPECT_EQ(exact.metrics().seed_probes, AdmissionCounts{});
}

TEST(Histogram, BucketsAndMerge) {
  Histogram h({1.0, 2.0, 4.0});
  h.add(0.5);   // < 1
  h.add(1.0);   // [1, 2)
  h.add(3.0);   // [2, 4)
  h.add(100);   // >= 4
  EXPECT_EQ(h.counts(), (std::vector<std::size_t>{1, 1, 1, 1}));
  EXPECT_EQ(h.bucket_label(0), "< 1.000");
  EXPECT_EQ(h.bucket_label(3), ">= 4.000");

  Histogram other({1.0, 2.0, 4.0});
  other.add(1.5);
  h.merge(other);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.counts()[1], 2u);
}

// ------------------------------------------- checked entry points ---------

TEST(TrySchedule, RejectsZeroMachines) {
  JobSet jobs;
  jobs.add({.release = 0, .deadline = 10, .length = 4, .value = 5.0});
  const auto result = try_schedule_bounded(jobs, {.machine_count = 0});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().count("POBP-OPT-001"), 1u);
}

TEST(TrySchedule, RejectsExactSeedAboveJobLimit) {
  Rng rng(7);
  JobGenConfig config;
  config.n = kExactSeedJobLimit + 1;
  const JobSet jobs = random_jobs(config, rng);
  const auto result =
      try_schedule_bounded(jobs, {.seed = ScheduleOptions::Seed::kExact});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().count("POBP-OPT-002"), 1u);
}

TEST(TrySchedule, AcceptsGoodOptionsAndSolves) {
  const std::vector<JobSet> instances = corpus(1, 99);
  const auto result = try_schedule_bounded(instances[0], {.k = 1});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(validate(instances[0], result->schedule, 1).ok);
  EXPECT_GE(result->price(), 1.0);
}

TEST(TrySchedule, RejectsZeroMachinesWithReport) {
  JobSet jobs;
  jobs.add({.release = 0, .deadline = 10, .length = 4, .value = 5.0});
  const auto result = try_schedule_bounded(jobs, {.machine_count = 0});
  ASSERT_FALSE(result.has_value());
  EXPECT_FALSE(result.error().ok());
}

TEST(TrySchedule, MatchesSharedEngine) {
  const std::vector<JobSet> instances = corpus(1, 55);
  const ScheduleResult via_shim =
      try_schedule_bounded(instances[0], {.k = 1}).value();
  const ScheduleResult via_engine =
      Engine::shared().try_solve(instances[0], {.k = 1}).value();
  EXPECT_EQ(fingerprint(via_shim), fingerprint(via_engine));
}

// ------------------------------------------- fault containment ------------

// The acceptance bar of the fault-contained batch path: with 4 injected
// faults in a 64-instance batch, exactly those 4 instances report
// POBP-RUN-001 and the other 60 results are bit-identical to a fault-free
// run — for every worker count.
TEST(EngineFaults, InjectedFaultsAreContainedAndDeterministic) {
  const DisarmGuard disarm;
  const std::vector<JobSet> instances = corpus(64, 4242);
  const ScheduleOptions schedule{.k = 1};

  Engine clean({.schedule = schedule, .workers = 2});
  const std::vector<SolveOutcome> base = clean.try_solve_batch(instances, {});
  ASSERT_EQ(base.size(), instances.size());
  std::vector<std::string> expected;
  for (const SolveOutcome& outcome : base) {
    ASSERT_TRUE(outcome.has_value());
    expected.push_back(fingerprint(*outcome));
  }

  const std::set<std::size_t> faulty = {3, 17, 31, 55};
  const char* spec = "alloc@3:1,laminarize@17:1,tm_dp@31:1,validate@55:1";
  for (const std::size_t workers : {1u, 2u, 8u}) {
    Engine engine({.schedule = schedule,
                   .workers = workers,
                   .fault_injection = spec});
    const std::vector<SolveOutcome> results =
        engine.try_solve_batch(instances, {});
    ASSERT_EQ(results.size(), instances.size());
    std::size_t reports = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (faulty.count(i) != 0) {
        ASSERT_FALSE(results[i].has_value())
            << "instance " << i << " should fault (" << workers
            << " workers)";
        EXPECT_EQ(results[i].error().count("POBP-RUN-001"), 1u);
        ++reports;
      } else {
        ASSERT_TRUE(results[i].has_value())
            << "instance " << i << " poisoned (" << workers << " workers)";
        EXPECT_EQ(fingerprint(*results[i]), expected[i])
            << "instance " << i << " diverged with " << workers
            << " workers";
      }
    }
    EXPECT_EQ(reports, faulty.size());
    EXPECT_EQ(engine.metrics().pipeline_faults, faulty.size());
    EXPECT_EQ(engine.metrics().instances, instances.size() - faulty.size());
  }
}

// The result-arena contract under faults: a fault thrown mid-solve leaves
// the session's pooled scratch/result buffers in a reusable state — after
// disarming, the very same engine (same sessions, same arenas) must solve
// the whole batch correctly, with every result matching a fault-free run.
// Exercised once per fault site so the unwind point sweeps the pipeline:
// seed, laminarize, TM DP, left-merge rebuild, and validation.
TEST(EngineFaults, ResultArenaSurvivesMidSolveFaults) {
  const DisarmGuard disarm;
  const std::vector<JobSet> instances = skewed_corpus(8, 618);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  Engine clean({.schedule = schedule, .workers = 1});
  std::vector<std::string> expected;
  for (const ScheduleResult& r : clean.solve_batch(instances, {})) {
    expected.push_back(fingerprint(r));
  }

  const char* sites[] = {"alloc", "laminarize", "tm_dp", "left_merge",
                         "validate"};
  for (const char* site : sites) {
    // Fault instance 2 mid-solve on its first visit to the site.
    Engine engine({.schedule = schedule,
                   .workers = 1,
                   .fault_injection = std::string(site) + "@2:1"});
    const std::vector<SolveOutcome> faulted =
        engine.try_solve_batch(instances, {});
    ASSERT_EQ(faulted.size(), instances.size());
    ASSERT_FALSE(faulted[2].has_value())
        << "site " << site << " never fired on instance 2";
    EXPECT_EQ(faulted[2].error().count("POBP-RUN-001"), 1u);
    for (std::size_t i = 0; i < faulted.size(); ++i) {
      if (i == 2) continue;
      ASSERT_TRUE(faulted[i].has_value())
          << "instance " << i << " poisoned by " << site << " fault";
      EXPECT_EQ(fingerprint(*faulted[i]), expected[i]);
    }

    // Triggers re-fire on every matching call, so disarm before rerunning
    // the SAME engine: the arenas that the fault unwound through must now
    // produce bit-identical, fully validated results.
    fault::disarm();
    const std::vector<SolveOutcome> recovered =
        engine.try_solve_batch(instances, {});
    ASSERT_EQ(recovered.size(), instances.size());
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      ASSERT_TRUE(recovered[i].has_value())
          << "instance " << i << " still failing after disarm (" << site
          << ")";
      EXPECT_EQ(fingerprint(*recovered[i]), expected[i])
          << "instance " << i << " corrupted by the " << site
          << " fault unwind";
      EXPECT_TRUE(validate(instances[i], recovered[i]->schedule, 1).ok);
    }
  }
}

TEST(EngineFaults, RetriesAbsorbTransientInjectedFaults) {
  const DisarmGuard disarm;
  const std::vector<JobSet> instances = corpus(1, 7);

  // Without retries the injected fault is reported...
  Engine failing({.schedule = {.k = 1}, .fault_injection = "laminarize:1"});
  const SolveOutcome failed = failing.try_solve(instances[0]);
  ASSERT_FALSE(failed.has_value());
  EXPECT_EQ(failed.error().count("POBP-RUN-001"), 1u);
  EXPECT_EQ(failing.metrics().pipeline_faults, 1u);

  // ...with one retry the nth-call trigger has already fired, so the second
  // attempt runs clean and the instance succeeds.
  Engine retrying({.schedule = {.k = 1},
                   .retry = {.max_attempts = 2},
                   .fault_injection = "laminarize:1"});
  const SolveOutcome retried = retrying.try_solve(instances[0]);
  ASSERT_TRUE(retried.has_value());
  EXPECT_TRUE(validate(instances[0], retried->schedule, 1).ok);
  EXPECT_EQ(retrying.metrics().retries, 1u);
  EXPECT_EQ(retrying.metrics().pipeline_faults, 0u);
}

TEST(EngineFaults, OpBudgetExhaustionIsReported) {
  const std::vector<JobSet> instances = corpus(1, 11);
  Engine engine({.schedule = {.k = 1}, .budget = {.max_ops = 1}});
  const SolveOutcome outcome = engine.try_solve(instances[0]);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().count("POBP-RUN-003"), 1u);
  EXPECT_EQ(engine.metrics().budget_exhausted, 1u);
}

TEST(EngineFaults, DeadlineExceededIsReported) {
  const std::vector<JobSet> instances = corpus(1, 12);
  Engine engine(
      {.schedule = {.k = 1}, .budget = {.deadline_s = 1e-12}});
  const SolveOutcome outcome = engine.try_solve(instances[0]);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().count("POBP-RUN-002"), 1u);
  EXPECT_EQ(engine.metrics().deadline_exceeded, 1u);
}

TEST(EngineFaults, DegradePolicyFallsBackToApproximatePath) {
  const std::vector<JobSet> instances = corpus(1, 13);
  Engine engine({.schedule = {.k = 1},
                 .budget = {.max_ops = 1},
                 .degrade = DegradePolicy::kApproximate});
  const SolveOutcome outcome = engine.try_solve(instances[0]);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->degraded);
  EXPECT_TRUE(validate(instances[0], outcome->schedule, 1).ok);
  EXPECT_EQ(engine.metrics().degraded_solves, 1u);
  EXPECT_EQ(engine.metrics().budget_exhausted, 0u);

  // Degraded results surface in the metrics exports.
  EXPECT_NE(engine.metrics().to_json().find("\"degraded\":1"),
            std::string::npos);
}

TEST(EngineFaults, PlainSolveThrowsWhenBudgetFiresWithoutDegrade) {
  const std::vector<JobSet> instances = corpus(1, 14);
  Session session({.schedule = {.k = 1}, .budget = {.max_ops = 1}});
  ScheduleResult out;
  EXPECT_THROW(session.solve_into(instances[0], out), BudgetError);
}

TEST(EngineFaults, TrySolveBatchReportsOptionRejectionPerInstance) {
  const std::vector<JobSet> instances = corpus(2, 15);
  Engine engine({.schedule = {.k = 1, .machine_count = 0}});
  const std::vector<SolveOutcome> results =
      engine.try_solve_batch(instances, {});
  ASSERT_EQ(results.size(), 2u);
  for (const SolveOutcome& outcome : results) {
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().count("POBP-OPT-001"), 1u);
  }
}

// ------------------------------------------------------------ price -------

TEST(ScheduleResult, PriceIsInfiniteOnTotalLoss) {
  ScheduleResult r;
  r.value = 0;
  r.unbounded_value = 7.5;
  EXPECT_TRUE(std::isinf(r.price()));
  EXPECT_GT(r.price(), 0);
}

TEST(ScheduleResult, PriceIsOneWhenNothingSchedulable) {
  ScheduleResult r;  // both values zero
  EXPECT_DOUBLE_EQ(r.price(), 1.0);
}

// ---------------------------------------------------------- Expected ------

TEST(Expected, ValueAndErrorPaths) {
  Expected<int, std::string> good = 42;
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(7), 42);

  Expected<int, std::string> bad = Unexpected{std::string("nope")};
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(7), 7);
}

}  // namespace
}  // namespace pobp
