// The zero-allocation hot-path contract (docs/PERF.md):
//
//   1. every pooled entry point is bit-identical whether its scratch is
//      fresh or reused across many instances of different sizes and
//      shapes (and, where one remains, to its allocating form);
//   2. the engine's pooled sessions keep solve_batch bit-identical to the
//      sequential one-call path for every worker count, with and without
//      budgets and degrade policies installed;
//   3. the CSR Forest survives clear()/rebuild cycles and million-node
//      path trees (iterative traversals — no stack overflow), and once a
//      TmScratch has warmed up, re-running the DP performs zero heap
//      allocations (asserted live when the binary links pobp::allocspy
//      with counting enabled, skipped otherwise);
//   4. the greedy seed polls its budget exactly once per candidate, and a
//      warmed GreedyScratch re-seeds without allocating, as does a warmed
//      Session on a pool worker past the TM fork threshold;
//   5. a JobSet is its four columns: it hands back the records it was
//      built from bit for bit, and its view aliases its own storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "pobp/pobp.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/reduction/schedule_forest.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/gen/forest_gen.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/util/alloccount.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/parallel.hpp"
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

// One SolveScratch reused across a shape-diverse corpus, with the seed in
// its own arena as the engine keeps it, must reproduce a fresh SolveScratch
// per instance bit-for-bit: stale buffer contents from instance i must
// never leak into instance i+1.
TEST(ScratchEquivalence, CombinedMultiReusedScratchIsBitIdentical) {
  const std::vector<JobSet> instances = mixed_corpus(12, 101);
  SolveScratch reused;
  for (std::size_t k : {1u, 2u}) {
    for (std::size_t machines : {1u, 2u}) {
      const ScheduleOptions options{.k = k, .machine_count = machines};
      const CombinedOptions combined{.k = k};
      for (const JobSet& jobs : instances) {
        const std::vector<JobId> ids = all_ids(jobs);
        SolveScratch fresh;
        Schedule seed_fresh(machines);
        Schedule out_fresh(machines);
        seed_unbounded_schedule_into(jobs, options, ids, fresh, seed_fresh);
        const CombinedMultiValues values_fresh =
            k_preemption_combined_multi_into(jobs, seed_fresh, combined,
                                             nullptr, fresh, out_fresh);

        reused.ids.resize(jobs.size());
        std::iota(reused.ids.begin(), reused.ids.end(), JobId{0});
        seed_unbounded_schedule_into(jobs, options, reused.ids, reused,
                                     reused.seed);
        Schedule out_reused(machines);
        const CombinedMultiValues values_reused =
            k_preemption_combined_multi_into(jobs, reused.seed, combined,
                                             nullptr, reused, out_reused);

        ASSERT_EQ(fingerprint(reused.seed, 0), fingerprint(seed_fresh, 0))
            << "seed diverged (k=" << k << ", m=" << machines << ")";
        ASSERT_EQ(fingerprint(out_reused, values_reused.value),
                  fingerprint(out_fresh, values_fresh.value))
            << "pipeline diverged (k=" << k << ", m=" << machines << ")";
        EXPECT_EQ(values_reused.strict_value, values_fresh.strict_value);
        EXPECT_EQ(values_reused.lax_value, values_fresh.lax_value);
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

// ---------------------------------------------------- SoA equivalence -----

/// Bit pattern of a double: "bit for bit" compares patterns, not values.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_job(const Job& a, const Job& b) {
  return a.release == b.release && a.deadline == b.deadline &&
         a.length == b.length && bits(a.value) == bits(b.value);
}

/// Job records to build sets from: the mixed corpus (read off the
/// generator's columns), ticks at the int64 limits with values only a bit
/// comparison tells apart, and a set whose deadlines are all negative.
std::vector<std::vector<Job>> record_corpus() {
  std::vector<std::vector<Job>> records;
  for (const JobSet& generated : mixed_corpus(6, 910)) {
    const JobSetView v = generated;
    std::vector<Job>& out = records.emplace_back();
    for (std::size_t i = 0; i < v.size(); ++i) {
      out.push_back({v.release[i], v.deadline[i], v.length[i], v.value[i]});
    }
  }
  constexpr Time kMax = std::numeric_limits<Time>::max();
  constexpr Time kMin = std::numeric_limits<Time>::min();
  records.push_back({
      {kMax - 3, kMax, 3, 1.0},
      {kMin, kMin + 7, 7, std::numeric_limits<double>::max()},
      {-40, -10, 30, std::numeric_limits<double>::denorm_min()},
      {-5, kMax - 5, kMax / 7, 0.1},  // window kMax, laxity exactly 7
      {0, 1, 1, 1.0 + std::numeric_limits<double>::epsilon()},
      {-7, 3, 4, 0.3},
  });
  records.push_back({{-10, -5, 2, 1.0}, {-1000000, -999996, 2, 2.0}});
  return records;
}

// A JobSet is its four columns.  Built from Job records, it hands every
// record back bit for bit through operator[], iteration and a vector copy,
// also after a malformed add() threw; its view reads its own storage in
// place; JobColumns::build copies those columns; and every aggregate
// equals a plain loop over the records.
TEST(SoaEquivalence, JobSetReproducesItsInputRecords) {
  constexpr Time kMax = std::numeric_limits<Time>::max();
  constexpr Time kMin = std::numeric_limits<Time>::min();
  const Job malformed[] = {
      {0, 1, 5, 1.0},        // window shorter than the job
      {0, 5, 0, 1.0},        // zero length
      {0, 5, 2, 0.0},        // zero value
      {kMin, kMax, 1, 1.0},  // window overflows int64
      {0, 5, 2, std::numeric_limits<double>::infinity()},
      {0, 5, 2, std::numeric_limits<double>::quiet_NaN()},
  };
  for (const std::vector<Job>& records : record_corpus()) {
    const std::size_t n = records.size();
    JobSet owner(records);
    for (const Job& bad : malformed) {
      EXPECT_THROW(owner.add(bad), InternalError);
    }
    ASSERT_EQ(owner.size(), n);
    std::size_t i = 0;
    for (const Job& job : owner) {
      ASSERT_LT(i, n);
      ASSERT_TRUE(same_job(job, records[i])) << "iteration, job " << i;
      ASSERT_TRUE(same_job(owner[static_cast<JobId>(i)], records[i]))
          << "operator[], job " << i;
      ++i;
    }
    ASSERT_EQ(i, n);
    const std::vector<Job> copied(owner.begin(), owner.end());
    ASSERT_EQ(copied.size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_TRUE(same_job(copied[j], records[j])) << "vector copy, job " << j;
    }

    // The view is the set's storage, not a copy: it moves with the set.
    const JobSetView before = owner;
    const JobSet jobs = std::move(owner);
    const JobSetView view = jobs;
    EXPECT_EQ(view.release, before.release);
    EXPECT_EQ(view.deadline, before.deadline);
    EXPECT_EQ(view.length, before.length);
    EXPECT_EQ(view.value, before.value);
    ASSERT_EQ(view.size(), n);
    JobColumns columns;
    columns.build(jobs);
    ASSERT_EQ(columns.size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      const Job rebuilt{columns.release[j], columns.deadline[j],
                        columns.length[j], columns.value[j]};
      const Job viewed{view.release[j], view.deadline[j], view.length[j],
                       view.value[j]};
      ASSERT_TRUE(same_job(viewed, records[j])) << "view, job " << j;
      ASSERT_TRUE(same_job(rebuilt, records[j])) << "build, job " << j;
    }

    Value total = 0;
    Duration min_length = records[0].length;
    Duration max_length = records[0].length;
    Time horizon = records[0].deadline;
    Time earliest = records[0].release;
    Rational max_laxity = records[0].laxity();
    for (const Job& r : records) {
      total += r.value;
      min_length = std::min(min_length, r.length);
      max_length = std::max(max_length, r.length);
      horizon = std::max(horizon, r.deadline);
      earliest = std::min(earliest, r.release);
      max_laxity = std::max(max_laxity, r.laxity());
    }
    EXPECT_EQ(bits(jobs.total_value()), bits(total));
    EXPECT_EQ(jobs.min_length(), min_length);
    EXPECT_EQ(jobs.max_length(), max_length);
    EXPECT_EQ(jobs.horizon(), horizon);
    EXPECT_EQ(jobs.earliest_release(), earliest);
    EXPECT_EQ(jobs.max_laxity(), max_laxity);
  }
}

// The classify kernel (boundary-table count, counting sort) against the
// definition: length_class() per job, stable-sorted by class.  Randomized
// over the mixed corpus.
TEST(SoaEquivalence, LsaClassifyMatchesScalarReference) {
  LsaScratch scratch;
  for (const JobSet& jobs : mixed_corpus(10, 412)) {
    std::vector<JobId> ids(jobs.size());
    std::iota(ids.begin(), ids.end(), JobId{0});
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

      const std::size_t got =
          lsa_classify(jobs, ids, k, ClassifyBy::kLength, scratch);
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
  const std::vector<JobId> ids = all_ids(jobs);
  GreedyScratch scratch;
  const auto seed = [&](BudgetGuard& guard, Schedule& out) {
    const BudgetGuard::Scope scope(&guard);
    greedy_infinity_multi_into(jobs, ids, out.machine_count(), scratch, out);
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

// A GreedyScratch warmed on a mixed corpus re-seeds its largest instance,
// and a smaller one after it, without touching the heap, on two and on
// three machines: the ranking and density buffers, the admission's
// bitsets and period slots, the EDF scratch and the pooled output all
// keep their capacity.
TEST(GreedySeed, WarmScratchReseedsWithoutAllocating) {
  std::vector<JobSet> corpus;
  for (const std::size_t n : {40u, 700u, 5u, 260u}) {
    corpus.push_back(congested_jobs(n, n));
  }
  const JobSet& largest = corpus[1];
  const JobSet& smaller = corpus[3];
  for (const std::size_t machines : {2u, 3u}) {
    GreedyScratch scratch;
    Schedule out(machines);
    std::vector<JobId> ids;
    const auto seed = [&](const JobSet& jobs) {
      ids = all_ids(jobs);
      greedy_infinity_multi_into(jobs, ids, machines, scratch, out);
      return io::schedule_to_csv(out);
    };
    for (const JobSet& jobs : corpus) seed(jobs);
    const std::string expected_largest = seed(largest);
    const std::string expected_smaller = seed(smaller);
    const std::vector<JobId> largest_ids = all_ids(largest);
    const std::vector<JobId> smaller_ids = all_ids(smaller);

    if (!alloccount::arm()) {
      GTEST_SKIP() << "allocation counting disabled in this build";
    }
    alloccount::Scope scope;
    greedy_infinity_multi_into(largest, largest_ids, machines, scratch, out);
    EXPECT_EQ(scope.allocations(), 0u)
        << "warmed greedy re-seed must be allocation-free, " << machines
        << " machines";
    EXPECT_EQ(io::schedule_to_csv(out), expected_largest);
    alloccount::Scope after_larger;
    greedy_infinity_multi_into(smaller, smaller_ids, machines, scratch, out);
    EXPECT_EQ(after_larger.allocations(), 0u)
        << "a smaller seed after a larger one must not allocate, "
        << machines << " machines";
    EXPECT_EQ(io::schedule_to_csv(out), expected_smaller);
  }
}

// ----------------------------------------------------- TM fork ------------

// An engine worker is a pool worker, where parallel_for never nests, so the
// TM fork runs serially there and must build nothing for a fan-out that
// cannot happen: a warmed Session on a ThreadPool worker, with the default
// fork threshold, solves a one-machine instance whose schedule forest is
// past that threshold without allocating.
TEST(TmFork, WarmSessionOnAPoolWorkerSolvesWithoutAllocating) {
  Rng rng(2048);
  JobGenConfig config;
  config.n = 2048;
  config.max_length = 64;
  config.min_laxity = 2.0;
  config.max_laxity = 8.0;
  config.horizon = 32 * 2048;
  const JobSet jobs = random_jobs(config, rng);
  // The fork's own preconditions hold, so only the worker check keeps it
  // serial.
  const ScheduleForest forest =
      build_schedule_forest(jobs, greedy_infinity(jobs, all_ids(jobs)));
  ASSERT_GE(forest.size(), kDefaultTmForkMinNodes);
  ASSERT_GE(forest.forest.roots().size(), 2u);

  bool armed = false;
  std::uint64_t allocations = 0;
  std::string expected;
  std::string again;
  ThreadPool pool(1);
  pool.submit([&] {
    Session session;
    ScheduleResult out;
    session.solve_into(jobs, out);
    session.solve_into(jobs, out);
    expected = fingerprint(out);
    armed = alloccount::arm();
    alloccount::Scope scope;
    session.solve_into(jobs, out);
    allocations = scope.allocations();
    again = fingerprint(out);
  });
  pool.wait_idle();
  EXPECT_EQ(again, expected);
  if (!armed) {
    GTEST_SKIP() << "allocation counting disabled in this build";
  }
  EXPECT_EQ(allocations, 0u)
      << "a warmed Session on a pool worker must solve allocation-free";
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
