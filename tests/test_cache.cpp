// Tests for the content-addressed solve cache (pobp/engine/cache.hpp,
// docs/CACHE.md): keying properties, the byte-identity contract of cached
// vs uncached solves across worker counts, delta re-solve equivalence,
// CLOCK eviction under a byte budget, the POBP-RUN-008 pressure rule, the
// concurrent-access soak (TSan target), and the no-partial-entry contract
// under mid-solve fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pobp/pobp.hpp"
#include "pobp/engine/cache.hpp"
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
    config.n = 10 + 3 * (i % 8);
    config.max_length = 1 << 6;
    config.horizon = 1 << 12;
    instances.push_back(random_jobs(config, rng));
  }
  return instances;
}

/// Bit-exact fingerprint of a result (CSV keeps every segment, machine and
/// order).
std::string fingerprint(const ScheduleResult& r) {
  return io::schedule_to_csv(r.schedule) + "|" + std::to_string(r.value) +
         "|" + std::to_string(r.unbounded_value);
}

/// `base` with `count` jobs mutated in place (a near-duplicate — the
/// delta-solve shape).
JobSet mutate_jobs(const JobSet& base, std::size_t count,
                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Job> jobs(base.begin(), base.end());
  for (std::size_t c = 0; c < count && !jobs.empty(); ++c) {
    Job& j = jobs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(jobs.size()) - 1))];
    j.length = j.length + 1;
    j.deadline = j.deadline + 2;
    j.value = j.value + 0.5;
  }
  return JobSet(std::move(jobs));
}

/// A dup/near-dup stream over `distinct`: exact repeats and small
/// mutations interleaved — the serving workload the cache targets.
std::vector<JobSet> dup_stream(const std::vector<JobSet>& distinct,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSet> stream;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      if (rng.bernoulli(0.4)) {
        stream.push_back(distinct[i]);  // exact duplicate
      } else if (rng.bernoulli(0.5)) {
        stream.push_back(mutate_jobs(distinct[i], 1 + (round % 3),
                                     rng()));  // near-duplicate
      } else {
        stream.push_back(distinct[(i * 7 + round) % distinct.size()]);
      }
    }
  }
  return stream;
}

CacheKey key_of(const JobSet& jobs, const ScheduleOptions& options,
                bool approximate = false) {
  const JobSetView view = jobs;
  std::vector<std::uint64_t> subhashes(view.n);
  SolveCache::job_subhashes(view, subhashes.data());
  return SolveCache::instance_key(
      view, subhashes.data(),
      SolveCache::params_signature(options, approximate));
}

// --- keying ----------------------------------------------------------------

TEST(CacheKey, PermutedJobSetsDoNotAlias) {
  // JobIds are positional and results address jobs by id, so an
  // attribute-wise equal set in a different order has a genuinely
  // different (permuted) result — the keys must differ.
  JobSet a;
  a.add({.release = 0, .deadline = 10, .length = 4, .value = 5.0});
  a.add({.release = 2, .deadline = 12, .length = 3, .value = 4.0});
  JobSet b;
  b.add({.release = 2, .deadline = 12, .length = 3, .value = 4.0});
  b.add({.release = 0, .deadline = 10, .length = 4, .value = 5.0});
  const ScheduleOptions options{.k = 1};
  EXPECT_NE(key_of(a, options), key_of(b, options));
  EXPECT_EQ(key_of(a, options), key_of(a, options));
}

TEST(CacheKey, EveryJobAttributeFeedsTheKey) {
  JobSet base;
  base.add({.release = 0, .deadline = 10, .length = 4, .value = 5.0});
  base.add({.release = 2, .deadline = 12, .length = 3, .value = 4.0});
  const ScheduleOptions options{.k = 1};
  const CacheKey k0 = key_of(base, options);
  for (int field = 0; field < 4; ++field) {
    std::vector<Job> jobs(base.begin(), base.end());
    switch (field) {
      case 0: jobs[1].release += 1; break;
      case 1: jobs[1].deadline += 1; break;
      case 2: jobs[1].length += 1; break;
      case 3: jobs[1].value += 0.25; break;
    }
    EXPECT_NE(key_of(JobSet(jobs), options), k0) << "field " << field;
  }
}

TEST(CacheKey, ParametersAndTierFeedTheSignature) {
  const ScheduleOptions base{.k = 1, .machine_count = 2};
  const std::uint64_t sig = SolveCache::params_signature(base, false);
  {
    ScheduleOptions other = base;
    other.k = 2;
    EXPECT_NE(SolveCache::params_signature(other, false), sig);
  }
  {
    ScheduleOptions other = base;
    other.machine_count = 3;
    EXPECT_NE(SolveCache::params_signature(other, false), sig);
  }
  // The degraded (approximate) tier must never alias an exact answer.
  EXPECT_NE(SolveCache::params_signature(base, true), sig);
  // tm_fork_min_nodes is a parallelism knob with bit-identical results —
  // deliberately excluded so warm entries survive tuning it.
  {
    ScheduleOptions other = base;
    other.tm_fork_min_nodes += 64;
    EXPECT_EQ(SolveCache::params_signature(other, false), sig);
  }
}

TEST(CacheKey, SubhashesAreIndependentPerJob) {
  const JobSet jobs = corpus(1, 99)[0];
  std::vector<std::uint64_t> before(jobs.size());
  SolveCache::job_subhashes(jobs, before.data());

  const JobSet mutated = mutate_jobs(jobs, 1, 7);
  std::vector<std::uint64_t> after(jobs.size());
  SolveCache::job_subhashes(mutated, after.data());

  std::size_t changed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (before[i] != after[i]) ++changed;
  }
  EXPECT_EQ(changed, 1u);
}

// --- hit/miss behaviour ----------------------------------------------------

TEST(Cache, ExactDuplicateHitsAndIsBitIdentical) {
  const JobSet jobs = corpus(1, 42)[0];
  auto cache = std::make_shared<SolveCache>();
  Engine engine({.schedule = {.k = 1, .machine_count = 2}, .cache = cache});

  const SolveOutcome first = engine.try_solve(jobs);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cache->stats().insertions, 1u);
  EXPECT_EQ(cache->stats().hits, 0u);

  const SolveOutcome second = engine.try_solve(jobs);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(fingerprint(*first), fingerprint(*second));
  EXPECT_EQ(engine.metrics().cache_hits, 1u);
  EXPECT_EQ(engine.metrics().cache_misses, 1u);
  EXPECT_EQ(engine.metrics().cache_insertions, 1u);

  // The counters surface in both metric exports.
  EXPECT_NE(engine.metrics().to_json().find("\"cache\":{\"hits\":1"),
            std::string::npos);
  EXPECT_NE(engine.metrics().to_table().find("cache hits"),
            std::string::npos);
}

TEST(Cache, ReadModeNeverPublishes) {
  const JobSet jobs = corpus(1, 43)[0];
  auto cache = std::make_shared<SolveCache>();
  Engine engine({.schedule = {.k = 1},
                 .cache = cache,
                 .cache_mode = CacheMode::kRead});
  ASSERT_TRUE(engine.try_solve(jobs).has_value());
  ASSERT_TRUE(engine.try_solve(jobs).has_value());
  EXPECT_EQ(cache->stats().insertions, 0u);
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().misses, 2u);
}

TEST(Cache, PerRequestModeOverridesEngineDefault) {
  const JobSet jobs = corpus(1, 44)[0];
  auto cache = std::make_shared<SolveCache>();
  Engine engine({.schedule = {.k = 1}, .cache = cache});

  SubmitOptions off;
  off.cache = CacheMode::kOff;
  const std::vector<JobSet> one{jobs};
  const std::vector<SolveOutcome> bypass = engine.try_solve_batch(one, off);
  ASSERT_TRUE(bypass[0].has_value());
  EXPECT_EQ(cache->stats().misses, 0u);
  EXPECT_EQ(cache->stats().insertions, 0u);

  const std::vector<SolveOutcome> rw = engine.try_solve_batch(one, {});
  ASSERT_TRUE(rw[0].has_value());
  EXPECT_EQ(cache->stats().insertions, 1u);
  EXPECT_EQ(fingerprint(*bypass[0]), fingerprint(*rw[0]));
}

TEST(Cache, DegradedResultsKeySeparatelyFromExact) {
  const JobSet jobs = corpus(1, 45)[0];
  auto cache = std::make_shared<SolveCache>();
  // Budget so tight every solve lands on the degraded path.
  Engine degraded({.schedule = {.k = 1},
                   .budget = {.max_ops = 1},
                   .degrade = DegradePolicy::kApproximate,
                   .cache = cache});
  const SolveOutcome d1 = degraded.try_solve(jobs);
  ASSERT_TRUE(d1.has_value());
  EXPECT_TRUE(d1->degraded);
  EXPECT_EQ(cache->stats().insertions, 1u);
  const SolveOutcome d2 = degraded.try_solve(jobs);
  ASSERT_TRUE(d2.has_value());
  EXPECT_TRUE(d2->degraded);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(fingerprint(*d1), fingerprint(*d2));

  // An exact solve of the same instance must miss the approximate entry.
  Engine exact({.schedule = {.k = 1}, .cache = cache});
  const SolveOutcome e = exact.try_solve(jobs);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->degraded);
  EXPECT_EQ(cache->stats().hits, 1u);  // unchanged: no aliasing
  EXPECT_EQ(cache->stats().insertions, 2u);
}

// A hit is timed like any solve — its key + probe + copy-out time lands in
// solve_seconds instead of a 0-second sample — but adds no stage sample,
// since no stage ran.
TEST(Cache, HitRecordsItsOwnTimeAndNoStageSample) {
  const JobSet jobs = corpus(1, 47)[0];
  Session session(
      {.schedule = {.k = 1}, .cache = std::make_shared<SolveCache>()});
  ScheduleResult cold;
  ScheduleResult warm;
  session.solve_into(jobs, cold);
  EXPECT_FALSE(session.last_solve_was_cache_hit());
  session.solve_into(jobs, warm);
  EXPECT_TRUE(session.last_solve_was_cache_hit());
  EXPECT_EQ(fingerprint(cold), fingerprint(warm));

  const EngineMetrics& m = session.metrics();
  EXPECT_EQ(m.instances, 2u);
  EXPECT_EQ(m.solve_seconds.count(), 2u);
  EXPECT_GT(m.solve_seconds.min(), 0.0);
  EXPECT_EQ(m.stage_seconds[static_cast<std::size_t>(Stage::kSeed)].count(),
            1u);
}

// The overload tier honours the request's cache mode like every other
// solve: `off` never looks the instance up, `read` never publishes, and
// every answer is byte-identical to the same stream served without a
// cache.  Engine metrics count each lookup the cache counts.
TEST(Cache, OverloadTierHonoursTheRequestCacheMode) {
  const std::vector<JobSet> instances = corpus(8, 1234);
  // A paused queue of 8 filled exactly: requests 6 and 7 are admitted at
  // occupancy >= 3/4 and land on the overload tier.
  const auto serve = [&](std::shared_ptr<SolveCache> cache,
                         std::optional<CacheMode> mode,
                         EngineMetrics& metrics) {
    StreamOptions options;
    options.engine.schedule = {.k = 1};
    options.engine.workers = 1;
    options.engine.cache = std::move(cache);
    options.queue_capacity = 8;
    options.overload_degrade = DegradePolicy::kApproximate;
    StreamEngine service(options);
    service.pause();
    std::vector<std::future<SolveOutcome>> futures;
    for (const JobSet& jobs : instances) {
      SubmitOptions submit;
      submit.cache = mode;
      futures.push_back(service.submit(jobs, std::move(submit)));
    }
    service.resume();
    std::vector<std::string> answers;
    for (std::future<SolveOutcome>& future : futures) {
      const SolveOutcome outcome = future.get();
      answers.push_back(!outcome.has_value() ? std::string("failed")
                        : outcome->degraded  ? fingerprint(*outcome) + "|d"
                                             : fingerprint(*outcome));
    }
    service.drain();
    metrics = service.metrics();
    return answers;
  };

  EngineMetrics uncached;
  const std::vector<std::string> expected =
      serve(nullptr, std::nullopt, uncached);
  ASSERT_EQ(std::count_if(expected.begin(), expected.end(),
                          [](const std::string& a) {
                            return a.ends_with("|d");
                          }),
            2);

  struct Row {
    CacheMode mode;
    std::uint64_t lookups;
    std::uint64_t insertions;
  };
  // Six exact-tier requests look up once each; the two overload-tier
  // requests look up the exact key, then the approximate one.
  for (const Row row : {Row{CacheMode::kOff, 0, 0},
                        Row{CacheMode::kRead, 10, 0},
                        Row{CacheMode::kReadWrite, 10, 8}}) {
    const auto cache = std::make_shared<SolveCache>();
    EngineMetrics metrics;
    EXPECT_EQ(serve(cache, row.mode, metrics), expected)
        << "mode " << static_cast<int>(row.mode);
    const CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits + stats.misses, row.lookups)
        << "mode " << static_cast<int>(row.mode);
    EXPECT_EQ(stats.insertions, row.insertions)
        << "mode " << static_cast<int>(row.mode);
    EXPECT_EQ(metrics.cache_hits + metrics.cache_misses, row.lookups)
        << "mode " << static_cast<int>(row.mode);
  }
}

// --- the acceptance bar: byte-identity across worker counts ----------------

TEST(Cache, DupStreamBitIdenticalAcrossWorkersAndModes) {
  const std::vector<JobSet> stream = dup_stream(corpus(6, 2018), 777);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  Engine plain({.schedule = schedule, .workers = 1});
  const std::vector<SolveOutcome> base = plain.try_solve_batch(stream, {});
  std::vector<std::string> expected;
  for (const SolveOutcome& outcome : base) {
    ASSERT_TRUE(outcome.has_value());
    expected.push_back(fingerprint(*outcome));
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    auto cache = std::make_shared<SolveCache>();
    Engine engine({.schedule = schedule, .workers = workers,
                   .cache = cache});
    // Two passes: the first mixes misses, delta patches and hits; the
    // second is hit-dominated.  Both must be byte-identical to uncached.
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<SolveOutcome> results =
          engine.try_solve_batch(stream, {});
      ASSERT_EQ(results.size(), stream.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].has_value());
        EXPECT_EQ(fingerprint(*results[i]), expected[i])
            << "instance " << i << ", " << workers << " workers, pass "
            << pass;
      }
    }
    EXPECT_GT(cache->stats().hits, 0u) << workers << " workers";
  }
}

TEST(Cache, DeltaPatchedSolvesMatchFullResolve) {
  const std::vector<JobSet> distinct = corpus(4, 31337);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  // Near-duplicates within the delta radius of their base instance.
  std::vector<JobSet> stream;
  for (const JobSet& base : distinct) {
    stream.push_back(base);
    for (std::uint64_t m = 1; m <= 3; ++m) {
      stream.push_back(mutate_jobs(base, m, m * 17));
    }
  }

  Engine plain({.schedule = schedule, .workers = 1});
  const std::vector<SolveOutcome> base = plain.try_solve_batch(stream, {});

  auto cache = std::make_shared<SolveCache>();
  Engine cached({.schedule = schedule, .workers = 1, .cache = cache});
  const std::vector<SolveOutcome> patched =
      cached.try_solve_batch(stream, {});
  ASSERT_EQ(patched.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_TRUE(base[i].has_value());
    ASSERT_TRUE(patched[i].has_value());
    EXPECT_EQ(fingerprint(*patched[i]), fingerprint(*base[i]))
        << "instance " << i;
  }
  // The near-duplicates actually exercised the delta path (the patched
  // machines came from the neighbor entry, not a fresh reduction).
  EXPECT_GT(cached.metrics().cache_delta_patches, 0u);
  EXPECT_GT(cache->stats().delta_hits, 0u);
}

TEST(Cache, DeltaDisabledStillBitIdentical) {
  const std::vector<JobSet> distinct = corpus(3, 555);
  std::vector<JobSet> stream;
  for (const JobSet& base : distinct) {
    stream.push_back(base);
    stream.push_back(mutate_jobs(base, 2, 9));
  }
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  Engine plain({.schedule = schedule});
  const std::vector<SolveOutcome> base = plain.try_solve_batch(stream, {});

  auto cache = std::make_shared<SolveCache>(
      SolveCacheOptions{.delta_max_jobs = 0});
  Engine cached({.schedule = schedule, .cache = cache});
  const std::vector<SolveOutcome> results =
      cached.try_solve_batch(stream, {});
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(fingerprint(*results[i]), fingerprint(*base[i]));
  }
  EXPECT_EQ(cached.metrics().cache_delta_patches, 0u);
}

// --- eviction and pressure -------------------------------------------------

TEST(Cache, EvictsUnderByteBudgetAndStaysCorrect) {
  const std::vector<JobSet> instances = corpus(48, 8080);
  auto cache = std::make_shared<SolveCache>(
      SolveCacheOptions{.max_bytes = 64 << 10, .shards = 2});
  Engine engine({.schedule = {.k = 1}, .cache = cache});

  Engine plain({.schedule = {.k = 1}});
  for (int round = 0; round < 2; ++round) {
    for (const JobSet& jobs : instances) {
      const SolveOutcome cached_result = engine.try_solve(jobs);
      const SolveOutcome plain_result = plain.try_solve(jobs);
      ASSERT_TRUE(cached_result.has_value());
      ASSERT_TRUE(plain_result.has_value());
      EXPECT_EQ(fingerprint(*cached_result), fingerprint(*plain_result));
    }
  }
  const CacheStats stats = cache->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, std::uint64_t{64} << 10);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_EQ(engine.metrics().cache_evictions, stats.evictions);
}

TEST(Cache, PressureRuleFiresOnlyWhenThrashing) {
  {
    auto cache = std::make_shared<SolveCache>(
        SolveCacheOptions{.max_bytes = 16 << 10, .shards = 1});
    Engine engine({.schedule = {.k = 1}, .cache = cache});
    for (const JobSet& jobs : corpus(64, 4444)) {
      ASSERT_TRUE(engine.try_solve(jobs).has_value());
    }
    const diag::Report report = cache->check_pressure();
    ASSERT_FALSE(report.diagnostics().empty());
    EXPECT_EQ(report.count("POBP-RUN-008"), 1u);
  }
  {
    auto cache = std::make_shared<SolveCache>();  // default 64 MiB: roomy
    Engine engine({.schedule = {.k = 1}, .cache = cache});
    for (const JobSet& jobs : corpus(16, 4445)) {
      ASSERT_TRUE(engine.try_solve(jobs).has_value());
    }
    EXPECT_TRUE(cache->check_pressure().diagnostics().empty());
  }
}

TEST(Cache, ClearDropsEntriesAndKeepsCounters) {
  const JobSet jobs = corpus(1, 46)[0];
  auto cache = std::make_shared<SolveCache>();
  Engine engine({.schedule = {.k = 1}, .cache = cache});
  ASSERT_TRUE(engine.try_solve(jobs).has_value());
  EXPECT_EQ(cache->stats().entries, 1u);
  cache->clear();
  EXPECT_EQ(cache->stats().entries, 0u);
  EXPECT_EQ(cache->stats().bytes, 0u);
  // Next solve misses and republishes.
  ASSERT_TRUE(engine.try_solve(jobs).has_value());
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(cache->stats().insertions, 2u);
}

// --- concurrency (TSan target) ---------------------------------------------

TEST(Cache, ConcurrentHitMissEvictSoak) {
  // One small shared cache, hammered from a multi-worker engine batch AND
  // a second engine on another thread: concurrent probes, publishes and
  // CLOCK evictions on the same shards.  Correctness bar: every result
  // bit-identical to an uncached solve; TSan owns the data-race bar.
  const std::vector<JobSet> stream = dup_stream(corpus(5, 606), 909);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  Engine plain({.schedule = schedule});
  const std::vector<SolveOutcome> base = plain.try_solve_batch(stream, {});
  std::vector<std::string> expected;
  for (const SolveOutcome& outcome : base) {
    ASSERT_TRUE(outcome.has_value());
    expected.push_back(fingerprint(*outcome));
  }

  auto cache = std::make_shared<SolveCache>(
      SolveCacheOptions{.max_bytes = 256 << 10, .shards = 2});
  Engine a({.schedule = schedule, .workers = 4, .cache = cache});
  Engine b({.schedule = schedule, .workers = 4, .cache = cache});

  std::vector<std::string> got_b;
  std::thread other([&] {
    for (int round = 0; round < 3; ++round) {
      const std::vector<SolveOutcome> results = b.try_solve_batch(stream, {});
      got_b.clear();
      for (const SolveOutcome& outcome : results) {
        got_b.push_back(outcome.has_value() ? fingerprint(*outcome) : "");
      }
    }
  });
  std::vector<std::string> got_a;
  for (int round = 0; round < 3; ++round) {
    const std::vector<SolveOutcome> results = a.try_solve_batch(stream, {});
    got_a.clear();
    for (const SolveOutcome& outcome : results) {
      got_a.push_back(outcome.has_value() ? fingerprint(*outcome) : "");
    }
  }
  other.join();

  ASSERT_EQ(got_a.size(), expected.size());
  ASSERT_EQ(got_b.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got_a[i], expected[i]) << "engine a, instance " << i;
    EXPECT_EQ(got_b[i], expected[i]) << "engine b, instance " << i;
  }
}

// --- fault injection: no partial entries -----------------------------------

/// Disarms process-wide fault-injection triggers on scope exit so a failing
/// assertion cannot leak armed triggers into later tests.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

TEST(CacheFaults, MidSolveFaultNeverPublishesAPartialEntry) {
  const DisarmGuard disarm;
  const std::vector<JobSet> one = corpus(1, 618);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  Engine plain({.schedule = schedule});
  const std::vector<SolveOutcome> clean = plain.try_solve_batch(one, {});
  ASSERT_TRUE(clean[0].has_value());

  const char* sites[] = {"alloc", "laminarize", "tm_dp", "left_merge",
                         "validate"};
  for (const char* site : sites) {
    auto cache = std::make_shared<SolveCache>();
    Engine engine({.schedule = schedule,
                   .fault_injection = std::string(site) + "@0:1",
                   .cache = cache});
    const std::vector<SolveOutcome> faulted = engine.try_solve_batch(one, {});
    ASSERT_FALSE(faulted[0].has_value())
        << "site " << site << " never fired";
    EXPECT_EQ(faulted[0].error().count("POBP-RUN-001"), 1u);
    // The fault unwound mid-pipeline: nothing may have been published.
    EXPECT_EQ(cache->stats().insertions, 0u) << "site " << site;
    EXPECT_EQ(cache->stats().entries, 0u) << "site " << site;

    // After disarming, the same engine publishes a complete entry whose
    // copy-out is bit-identical to the clean solve.
    fault::disarm();
    const std::vector<SolveOutcome> recovered =
        engine.try_solve_batch(one, {});
    ASSERT_TRUE(recovered[0].has_value()) << "site " << site;
    EXPECT_EQ(fingerprint(*recovered[0]), fingerprint(*clean[0]));
    EXPECT_EQ(cache->stats().insertions, 1u) << "site " << site;
    const std::vector<SolveOutcome> hit = engine.try_solve_batch(one, {});
    ASSERT_TRUE(hit[0].has_value());
    EXPECT_EQ(fingerprint(*hit[0]), fingerprint(*clean[0]));
    EXPECT_EQ(cache->stats().hits, 1u) << "site " << site;
  }
}

TEST(CacheFaults, CachedStreamUnderFaultsMatchesUncachedUnderFaults) {
  const DisarmGuard disarm;
  // Duplicates of the faulted instance keep COLD-solving (the fault fires
  // before anything is published), so the cached stream's outcome pattern
  // must equal the uncached one: same instances fault, same instances
  // succeed with identical bytes.
  std::vector<JobSet> stream;
  const std::vector<JobSet> distinct = corpus(3, 202);
  for (int round = 0; round < 2; ++round) {
    for (const JobSet& jobs : distinct) stream.push_back(jobs);
  }
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};
  const char* spec = "tm_dp@1:1,alloc@4:1";

  std::vector<std::string> expected;
  {
    Engine engine({.schedule = schedule, .fault_injection = spec});
    for (const SolveOutcome& outcome : engine.try_solve_batch(stream, {})) {
      expected.push_back(outcome.has_value() ? fingerprint(*outcome)
                                             : "fault");
    }
    fault::disarm();
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    auto cache = std::make_shared<SolveCache>();
    Engine engine({.schedule = schedule,
                   .workers = workers,
                   .fault_injection = spec,
                   .cache = cache});
    const std::vector<SolveOutcome> results =
        engine.try_solve_batch(stream, {});
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].has_value() ? fingerprint(*results[i]) : "fault",
                expected[i])
          << "instance " << i << ", " << workers << " workers";
    }
    fault::disarm();
  }
}

}  // namespace
}  // namespace pobp
