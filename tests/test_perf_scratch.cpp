// The zero-allocation hot-path contract (docs/PERF.md):
//
//   1. every scratch-reusing entry point is bit-identical to its
//      allocating form, including when one scratch is reused across many
//      instances of different sizes and shapes;
//   2. the engine's pooled sessions keep solve_batch bit-identical to the
//      sequential one-call path for every worker count, with and without
//      budgets and degrade policies installed;
//   3. the CSR Forest survives clear()/rebuild cycles and million-node
//      path trees (iterative traversals — no stack overflow), and once a
//      TmScratch has warmed up, re-running the DP performs zero heap
//      allocations (asserted live when the binary links pobp::allocspy
//      with counting enabled, skipped otherwise);
//   4. the greedy seed polls its budget exactly once per candidate, and a
//      warmed GreedyScratch re-seeds without allocating.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "pobp/pobp.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/schedule/columns.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/gen/forest_gen.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/util/alloccount.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

/// Bit-exact fingerprint: CSV serialization keeps every machine, segment
/// and their order, so equal fingerprints ⟺ equal schedules.
std::string fingerprint(const Schedule& schedule, Value value) {
  return io::schedule_to_csv(schedule) + "|" + std::to_string(value);
}

std::string fingerprint(const ScheduleResult& r) {
  return fingerprint(r.schedule, r.value) + "|" +
         std::to_string(r.unbounded_value) + "|" +
         (r.degraded ? "d" : "-");
}

/// Mixed corpus: random windowed jobs (both lax and strict populations)
/// plus jobs lifted from the laminar schedule generator — the two
/// families the paper's experiments draw from (§4.3 / Appendix A).
std::vector<JobSet> mixed_corpus(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobSet> instances;
  for (std::size_t i = 0; i < count; ++i) {
    switch (i % 3) {
      case 0: {  // strict-leaning random windows
        JobGenConfig config;
        config.n = 8 + 5 * i;
        config.max_length = 1 << 7;
        config.min_laxity = 1.0;
        config.max_laxity = 1.8;
        config.horizon = 1 << 12;
        instances.push_back(random_jobs(config, rng));
        break;
      }
      case 1: {  // lax-leaning random windows
        JobGenConfig config;
        config.n = 10 + 4 * i;
        config.max_length = 1 << 6;
        config.min_laxity = 3.0;
        config.max_laxity = 9.0;
        config.horizon = 1 << 13;
        instances.push_back(random_jobs(config, rng));
        break;
      }
      default: {  // laminar-generator jobs (deep nesting, tight windows)
        LaminarGenConfig config;
        config.target_jobs = 20 + 10 * i;
        config.slack_factor = 0.2;
        instances.push_back(random_laminar_instance(config, rng).jobs);
        break;
      }
    }
  }
  return instances;
}

// ------------------------------------------------- core equivalence -------

// One SolveScratch reused across a shape-diverse corpus must reproduce the
// scratch-free pipeline bit-for-bit on every instance: stale buffer
// contents from instance i must never leak into instance i+1.
TEST(ScratchEquivalence, CombinedMultiReusedScratchIsBitIdentical) {
  const std::vector<JobSet> instances = mixed_corpus(12, 101);
  SolveScratch scratch;
  for (std::size_t k : {1u, 2u}) {
    for (std::size_t machines : {1u, 2u}) {
      const ScheduleOptions options{.k = k, .machine_count = machines};
      const CombinedOptions combined{.k = k};
      for (const JobSet& jobs : instances) {
        std::vector<JobId> ids(jobs.size());
        std::iota(ids.begin(), ids.end(), JobId{0});

        const Schedule seed_fresh = seed_unbounded_schedule(jobs, options);
        const CombinedMultiResult fresh =
            k_preemption_combined_multi(jobs, seed_fresh, combined);

        scratch.ids.resize(jobs.size());
        std::iota(scratch.ids.begin(), scratch.ids.end(), JobId{0});
        const Schedule seed_pooled =
            seed_unbounded_schedule(jobs, options, scratch.ids, &scratch);
        const CombinedMultiResult pooled = k_preemption_combined_multi(
            jobs, seed_pooled, combined, nullptr, &scratch);

        ASSERT_EQ(fingerprint(seed_pooled, 0), fingerprint(seed_fresh, 0))
            << "seed diverged (k=" << k << ", m=" << machines << ")";
        ASSERT_EQ(fingerprint(pooled.schedule, pooled.value),
                  fingerprint(fresh.schedule, fresh.value))
            << "pipeline diverged (k=" << k << ", m=" << machines << ")";
        EXPECT_EQ(pooled.strict_value, fresh.strict_value);
        EXPECT_EQ(pooled.lax_value, fresh.lax_value);
      }
    }
  }
}

// The k = 0 branch threads LsaScratch through schedule_nonpreemptive.
TEST(ScratchEquivalence, NonPreemptiveReusedScratchIsBitIdentical) {
  const std::vector<JobSet> instances = mixed_corpus(9, 55);
  LsaScratch scratch;
  for (const JobSet& jobs : instances) {
    std::vector<JobId> ids(jobs.size());
    std::iota(ids.begin(), ids.end(), JobId{0});
    const NonPreemptiveResult fresh = schedule_nonpreemptive(jobs, ids);
    const NonPreemptiveResult pooled =
        schedule_nonpreemptive(jobs, ids, nullptr, &scratch);
    EXPECT_EQ(io::schedule_to_csv(Schedule(pooled.schedule)),
              io::schedule_to_csv(Schedule(fresh.schedule)));
    EXPECT_EQ(pooled.value, fresh.value);
  }
}

// TM scratch form vs allocating form on generator forests, reused across
// shrinking and growing sizes.
TEST(ScratchEquivalence, TmScratchReuseMatchesAllocatingForm) {
  Rng rng(7);
  TmScratch scratch;
  TmResult pooled;
  for (std::size_t nodes : {400u, 50u, 2000u, 9u, 1200u}) {
    ForestGenConfig config;
    config.nodes = nodes;
    config.max_degree = 6;
    const Forest f = random_forest(config, rng);
    for (std::size_t k : {1u, 3u}) {
      const TmResult fresh = tm_optimal_bas(f, k);
      tm_optimal_bas(f, k, scratch, pooled);
      EXPECT_EQ(pooled.value, fresh.value) << nodes << "/" << k;
      EXPECT_EQ(pooled.selection.keep, fresh.selection.keep);
      EXPECT_EQ(pooled.t, fresh.t);
      EXPECT_EQ(pooled.m, fresh.m);
    }
  }
}

// ----------------------------------------------- engine determinism -------

// Pooled sessions at every worker count vs the one-call reference, with
// and without a (never-firing) budget + degrade fallback installed: the
// pooled pipeline must not change a single bit of output.
TEST(EngineScratch, WorkersAndBudgetsPreserveBitIdenticalResults) {
  const std::vector<JobSet> instances = mixed_corpus(10, 202);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  std::vector<std::string> expected;
  for (const JobSet& jobs : instances) {
    expected.push_back(fingerprint(try_schedule_bounded(jobs, schedule).value()));
  }

  SolveBudget roomy;
  roomy.deadline_s = 1e9;
  roomy.max_ops = static_cast<std::uint64_t>(-1);

  struct Variant {
    EngineOptions options;
    const char* name;
  };
  const Variant variants[] = {
      {{.schedule = schedule, .workers = 1}, "w1"},
      {{.schedule = schedule, .workers = 2}, "w2"},
      {{.schedule = schedule, .workers = 8}, "w8"},
      {{.schedule = schedule,
        .workers = 2,
        .budget = roomy,
        .degrade = DegradePolicy::kNone},
       "w2+budget"},
      {{.schedule = schedule,
        .workers = 8,
        .budget = roomy,
        .degrade = DegradePolicy::kApproximate},
       "w8+budget+degrade"},
  };
  for (const Variant& variant : variants) {
    Engine engine(variant.options);
    const std::vector<ScheduleResult> results = engine.solve_batch(instances, {});
    ASSERT_EQ(results.size(), instances.size()) << variant.name;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(fingerprint(results[i]), expected[i])
          << variant.name << " diverged on instance " << i;
    }
  }
}

// Solving the same batch twice through one engine (sessions warm the
// second time) must be bit-identical to the first pass, for k = 0 too.
TEST(EngineScratch, WarmSessionsMatchColdSessions) {
  const std::vector<JobSet> instances = mixed_corpus(8, 31);
  for (std::size_t k : {0u, 1u}) {
    Engine engine({.schedule = {.k = k}, .workers = 2});
    const std::vector<ScheduleResult> cold = engine.solve_batch(instances, {});
    const std::vector<ScheduleResult> warm = engine.solve_batch(instances, {});
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(fingerprint(warm[i]), fingerprint(cold[i]))
          << "k=" << k << " instance " << i;
    }
  }
}

// ------------------------------------------- SoA/AoS equivalence ----------

// The columnar JobSetView is a byte-faithful mirror of the Job AoS: every
// column holds exactly the field values of the source jobs, in id order.
TEST(SoaEquivalence, ColumnsMirrorTheJobArrayExactly) {
  for (const JobSet& jobs : mixed_corpus(6, 910)) {
    JobColumns columns;
    columns.build(jobs);
    const JobSetView view = columns.view();
    ASSERT_EQ(view.size(), jobs.size());
    for (JobId id = 0; id < jobs.size(); ++id) {
      const Job& job = jobs[id];
      ASSERT_EQ(view.release[id], job.release) << "job " << id;
      ASSERT_EQ(view.deadline[id], job.deadline) << "job " << id;
      ASSERT_EQ(view.length[id], job.length) << "job " << id;
      ASSERT_EQ(view.value[id], job.value) << "job " << id;
    }
  }
}

// The vectorized classify kernel (exponent-bit classes, boundary table,
// counting sort) against the scalar definition: length_class() per job,
// stable-sorted by class.  Randomized over the mixed corpus.
TEST(SoaEquivalence, LsaClassifyMatchesScalarReference) {
  LsaScratch scratch;
  for (const JobSet& jobs : mixed_corpus(10, 412)) {
    std::vector<JobId> ids(jobs.size());
    std::iota(ids.begin(), ids.end(), JobId{0});
    scratch.columns.build(jobs);
    for (std::size_t k : {0u, 1u, 2u, 5u}) {
      const std::size_t base = std::max<std::size_t>(k + 1, 2);
      std::vector<std::pair<std::size_t, JobId>> expected;
      for (const JobId id : ids) {
        expected.emplace_back(length_class(jobs[id].length, base), id);
      }
      std::stable_sort(expected.begin(), expected.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::size_t distinct = 0;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        if (i == 0 || expected[i].first != expected[i - 1].first) ++distinct;
      }

      const std::size_t got = lsa_classify(scratch.columns.view(), ids, k,
                                           ClassifyBy::kLength, scratch);
      EXPECT_EQ(got, distinct) << "k=" << k;
      ASSERT_EQ(scratch.classes, expected) << "k=" << k;
    }
  }
}

// The columnar solve pipeline at every worker count, and with each of the
// five fault-injection sites fired mid-batch (then disarmed): the SoA
// kernels share scratch buffers with the fault-unwind path, so a single
// stale column after an unwind would show up here as a changed byte.
TEST(SoaEquivalence, WorkersAndFaultSitesStayBitIdentical) {
  const std::vector<JobSet> instances = mixed_corpus(10, 333);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  std::vector<std::string> expected;
  for (const JobSet& jobs : instances) {
    expected.push_back(
        fingerprint(try_schedule_bounded(jobs, schedule).value()));
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    Engine engine({.schedule = schedule, .workers = workers});
    const std::vector<ScheduleResult> results =
        engine.solve_batch(instances, {});
    ASSERT_EQ(results.size(), instances.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(fingerprint(results[i]), expected[i])
          << "workers=" << workers << " instance " << i;
    }
  }

  const char* sites[] = {"alloc", "laminarize", "tm_dp", "left_merge",
                         "validate"};
  for (const char* site : sites) {
    Engine engine({.schedule = schedule,
                   .workers = 2,
                   .fault_injection = std::string(site) + "@4:1"});
    const std::vector<SolveOutcome> faulted =
        engine.try_solve_batch(instances, {});
    fault::disarm();
    ASSERT_EQ(faulted.size(), instances.size());
    ASSERT_FALSE(faulted[4].has_value()) << site << " never fired";
    for (std::size_t i = 0; i < faulted.size(); ++i) {
      if (i == 4) continue;
      ASSERT_TRUE(faulted[i].has_value()) << site << " instance " << i;
      EXPECT_EQ(fingerprint(*faulted[i]), expected[i])
          << site << " instance " << i;
    }
    // Same engine, disarmed: the unwound scratch must rebuild cleanly.
    const std::vector<SolveOutcome> recovered =
        engine.try_solve_batch(instances, {});
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      ASSERT_TRUE(recovered[i].has_value()) << site << " instance " << i;
      EXPECT_EQ(fingerprint(*recovered[i]), expected[i])
          << site << " post-disarm instance " << i;
    }
  }
}

// ------------------------------------------------------- CSR forest -------

TEST(CsrForest, ChildrenSpansMatchInsertionOrder) {
  Forest f;
  const NodeId r = f.add(10);
  const NodeId a = f.add(5, r);
  const NodeId b = f.add(7, r);
  const NodeId c = f.add(2, a);
  const NodeId d = f.add(1, a);
  const NodeId e = f.add(4, b);

  ASSERT_EQ(f.degree(r), 2u);
  EXPECT_EQ(f.children(r)[0], a);
  EXPECT_EQ(f.children(r)[1], b);
  ASSERT_EQ(f.degree(a), 2u);
  EXPECT_EQ(f.children(a)[0], c);
  EXPECT_EQ(f.children(a)[1], d);
  ASSERT_EQ(f.degree(b), 1u);
  EXPECT_EQ(f.children(b)[0], e);
  EXPECT_TRUE(f.is_leaf(c));
  EXPECT_EQ(f.subtree_value(r), 29);
  EXPECT_EQ(f.subtree_value(a), 8);
  EXPECT_EQ(f.subtree_value(b), 11);

  // Mutating after a child query invalidates + lazily rebuilds the CSR.
  const NodeId g = f.add(3, b);
  ASSERT_EQ(f.degree(b), 2u);
  EXPECT_EQ(f.children(b)[1], g);
  EXPECT_EQ(f.subtree_value(r), 32);
}

TEST(CsrForest, ClearKeepsCapacityAndRebuildsCleanly) {
  Forest f;
  f.reserve(1000);
  Rng rng(99);
  ForestGenConfig config;
  config.nodes = 1000;
  Forest big = random_forest(config, rng);
  big.finalize();

  // Rebuild the same forest into f twice; after the first build no further
  // allocations should be needed (checked live when counting is armed).
  for (int round = 0; round < 2; ++round) {
    f.clear();
    alloccount::Scope scope;
    for (NodeId v = 0; v < big.size(); ++v) {
      f.add(big.value(v), big.parent(v));
    }
    f.finalize();
    if (round == 1 && alloccount::arm()) {
      EXPECT_EQ(scope.allocations(), 0u)
          << "clear() must keep CSR buffer capacity";
    }
    ASSERT_EQ(f.size(), big.size());
    for (NodeId v = 0; v < big.size(); ++v) {
      ASSERT_EQ(f.degree(v), big.degree(v)) << "node " << v;
    }
    EXPECT_EQ(f.total_value(), big.total_value());
  }
}

// ------------------------------------------------------- greedy seed ------

/// Congested random instance: the machine passes each leave jobs behind.
JobSet congested_jobs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  JobGenConfig config;
  config.n = n;
  config.max_length = 64;
  config.max_laxity = 3.0;
  config.horizon = std::max<Time>(256, static_cast<Time>(6 * n));
  return random_jobs(config, rng);
}

// The seed's cost contract: one BudgetGuard poll per candidate, summed
// over the machine passes.  A max_ops budget therefore fires at the same
// candidate however cheap each admission probe is, and perfbench's probe
// count (read from the guard) stays comparable across versions.
TEST(GreedySeed, PollsTheBudgetOncePerCandidate) {
  const JobSet jobs = congested_jobs(300, 77);
  JobColumns columns;
  columns.build(jobs);
  const std::vector<JobId> ids = all_ids(jobs);
  GreedyScratch scratch;
  const auto seed = [&](BudgetGuard& guard, Schedule& out) {
    const BudgetGuard::Scope scope(&guard);
    greedy_infinity_multi_into(columns.view(), ids, out.machine_count(),
                               scratch, out);
  };
  for (const std::size_t machines : {1u, 2u, 3u}) {
    Schedule out(machines);
    BudgetGuard unlimited{SolveBudget{}};
    seed(unlimited, out);
    // Pass m considers every job the earlier passes left.
    std::uint64_t candidates = 0;
    std::size_t left = jobs.size();
    for (std::size_t m = 0; m < machines && left > 0; ++m) {
      candidates += left;
      left -= out.machine(m).job_count();
    }
    ASSERT_GT(left, 0u) << "instance must overflow " << machines
                        << " machines";
    EXPECT_EQ(unlimited.ops(), candidates) << machines << " machines";

    // An exact budget completes with the same seed; one poll less fires on
    // the last candidate.
    Schedule again(machines);
    BudgetGuard exact{SolveBudget{.max_ops = candidates}};
    seed(exact, again);
    EXPECT_EQ(io::schedule_to_csv(again), io::schedule_to_csv(out));
    BudgetGuard short_one{SolveBudget{.max_ops = candidates - 1}};
    EXPECT_THROW(seed(short_one, again), BudgetExhausted);
    EXPECT_EQ(short_one.ops(), candidates);
  }
}

// A GreedyScratch warmed on a mixed corpus re-seeds its largest instance
// without touching the heap: the admission's sorted set and busy periods,
// the EDF scratch and the pooled output all keep their capacity.
TEST(GreedySeed, WarmScratchReseedsWithoutAllocating) {
  std::vector<JobSet> corpus;
  for (const std::size_t n : {40u, 700u, 5u, 260u}) {
    corpus.push_back(congested_jobs(n, n));
  }
  GreedyScratch scratch;
  JobColumns columns;
  std::vector<JobId> ids;
  Schedule out(2);
  const auto seed = [&](const JobSet& jobs) {
    columns.build(jobs);
    ids = all_ids(jobs);
    greedy_infinity_multi_into(columns.view(), ids, 2, scratch, out);
  };
  for (const JobSet& jobs : corpus) seed(jobs);
  const JobSet& largest = corpus[1];
  seed(largest);
  const std::string expected = io::schedule_to_csv(out);

  if (!alloccount::arm()) {
    GTEST_SKIP() << "allocation counting disabled in this build";
  }
  columns.build(largest);
  alloccount::Scope scope;
  greedy_infinity_multi_into(columns.view(), ids, 2, scratch, out);
  EXPECT_EQ(scope.allocations(), 0u)
      << "warmed greedy re-seed must be allocation-free";
  EXPECT_EQ(io::schedule_to_csv(out), expected);
}

// ------------------------------------------------- deep-chain stress ------

// A path tree of one million nodes: every traversal in Forest and the TM
// DP must be iterative (a recursive formulation overflows the stack around
// depth ~1e5), and a warmed TmScratch must make re-solves allocation-free.
TEST(DeepChainStress, MillionNodePathTreeSolvesWithoutRecursion) {
  constexpr std::size_t kNodes = 1'000'000;
  Forest f;
  f.reserve(kNodes);
  NodeId prev = f.add(1);
  for (std::size_t i = 1; i < kNodes; ++i) {
    prev = f.add(static_cast<Value>(i % 7 + 1), prev);
  }
  f.finalize();

  // Deep accessors stay iterative.
  EXPECT_EQ(f.depth(prev), kNodes - 1);
  EXPECT_EQ(f.subtree_value(f.roots()[0]), f.total_value());

  // A path tree never exceeds degree 1, so every node is retained: the
  // optimal k-BAS value equals the total value for any k >= 1.
  TmScratch scratch;
  TmResult result;
  tm_optimal_bas(f, 1, scratch, result);  // warm-up (sizes every buffer)
  EXPECT_EQ(result.value, f.total_value());

  if (!alloccount::arm()) {
    GTEST_SKIP() << "allocation counting disabled in this build";
  }
  alloccount::Scope scope;
  tm_optimal_bas(f, 1, scratch, result);
  EXPECT_EQ(scope.allocations(), 0u)
      << "warmed TM re-solve must be allocation-free";
  EXPECT_EQ(result.value, f.total_value());
}

}  // namespace
}  // namespace pobp
