// Algorithm 3's settled branches (docs/PERF.md, "Algorithm 3: settled
// branches").  k_preemption_combined_multi_into runs the full-reduction
// branch first and skips the strict and lax branches when the full value
// already reaches their value bounds, and it copies the full branch's
// machine wherever a machine's seed jobs are all strict.  The three-branch
// function it replaced is frozen below as the oracle, and every answer —
// winning schedule, value, and the value of each branch that ran — must
// match it bit for bit:
//
//   1. over random, strict-heavy, lax-heavy and laminar instances and the
//      Fig.-2 and Appendix-B constructions, for k 1–3, 1–3 machines, TM on
//      and off, with no delta hint, a full hint and a strict-less hint;
//      each family asserts that the rule it exists for fired;
//   2. at the floating-point edges: subnormal values, values up to DBL_MAX
//      whose sums overflow to +inf, a full value equal to a bound (settled;
//      full wins the tie) and one ulp below it (the branch runs);
//   3. through the engine's solve cache, where a neighbor that settled its
//      strict branch publishes no strict schedule, and nothing stands in
//      for it;
//   4. allocation-free on a warm scratch, settled or not.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "pobp/pobp.hpp"
#include "pobp/bas/contraction.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/core/scratch.hpp"
#include "pobp/gen/lower_bounds.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/reduction/rebuild.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/util/alloccount.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

// ------------------------------------------------------------- oracle -----

struct OracleValues {
  Value value = 0;
  Value strict_value = 0;
  Value lax_value = 0;
  Value full_value = 0;
};

bool oracle_is_lax(const JobSetView& jobs, JobId id, std::size_t k) {
  std::int64_t need = 0;
  if (__builtin_mul_overflow(k + 1, jobs.length[id], &need)) return false;
  return jobs.deadline[id] - jobs.release[id] >= need;
}

/// The pruner `options.use_tm` picks, over the forest in `rs.sf`.
const SubForest& oracle_prune(ReductionScratch& rs,
                              const CombinedOptions& options) {
  if (options.use_tm) {
    tm_optimal_bas_forked(rs.sf.forest, options.k, rs.tm, rs.tm_result,
                          options.tm_fork_min_nodes);
    return rs.tm_result.selection;
  }
  levelled_contraction_select(rs.sf.forest, options.k, rs.contraction,
                              rs.contraction_sel);
  return rs.contraction_sel;
}

/// The three-branch Algorithm 3 as it was before branches could be
/// settled: strict, then lax, then full all run, and the best wins (ties
/// to full, then strict).  Both reduction branches prune with the pruner
/// `use_tm` picks.  No delta hint — the function under test must match it
/// with or without one.  The branch schedules stay in the scratch's
/// strict_sched / lax_sched / full_sched.
OracleValues oracle_combined(const JobSet& jobs, const Schedule& unbounded,
                             const CombinedOptions& options, SolveScratch& s,
                             Schedule& out) {
  OracleValues values;
  const std::size_t machines = unbounded.machine_count();
  ReductionScratch& rs = s.reduction;

  Schedule& strict_schedule = s.strict_sched;
  strict_schedule.reset(machines);
  auto& lax_ids = s.lax_ids;
  lax_ids.clear();
  for (std::size_t m = 0; m < machines; ++m) {
    auto& strict_ids = s.strict_ids;
    strict_ids.clear();
    for (const Assignment& a : unbounded.machine(m).assignments()) {
      (oracle_is_lax(jobs, a.job, options.k) ? lax_ids : strict_ids)
          .push_back(a.job);
    }
    if (strict_ids.empty()) continue;
    laminarize_subset_into(jobs, strict_ids, rs.laminar, s.laminar_stage);
    build_schedule_forest(jobs, s.laminar_stage, rs.sf, rs.forest_build);
    rebuild_schedule_into(jobs, rs.sf, oracle_prune(rs, options), rs.rebuild,
                          strict_schedule.machine(m));
  }
  values.strict_value = strict_schedule.total_value(jobs);

  Schedule& lax_schedule = s.lax_sched;
  lsa_cs_multi_into(jobs, lax_ids, options.k, machines, s.lsa, lax_schedule);
  values.lax_value = lax_schedule.total_value(jobs);

  Schedule& full_schedule = s.full_sched;
  full_schedule.reset(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    const MachineSchedule& input = unbounded.machine(m);
    if (input.empty()) continue;
    build_schedule_forest(jobs, input, rs.sf, rs.forest_build);
    rebuild_schedule_into(jobs, rs.sf, oracle_prune(rs, options), rs.rebuild,
                          full_schedule.machine(m));
  }
  values.full_value = full_schedule.total_value(jobs);

  if (values.full_value >= values.strict_value &&
      values.full_value >= values.lax_value) {
    out.assign_from(full_schedule);
    values.value = values.full_value;
  } else if (values.strict_value >= values.lax_value) {
    out.assign_from(strict_schedule);
    values.value = values.strict_value;
  } else {
    out.assign_from(lax_schedule);
    values.value = values.lax_value;
  }
  return values;
}

// ------------------------------------------------------------ helpers -----

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Machine by machine, assignment by assignment, segment by segment.
bool same_schedule(const Schedule& a, const Schedule& b) {
  if (a.machine_count() != b.machine_count()) return false;
  for (std::size_t m = 0; m < a.machine_count(); ++m) {
    const auto x = a.machine(m).assignments();
    const auto y = b.machine(m).assignments();
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].job != y[i].job || x[i].segments != y[i].segments) {
        return false;
      }
    }
  }
  return true;
}

/// `jobs` with every value replaced by `value(id)`.
template <typename F>
JobSet with_values(const JobSet& jobs, F value) {
  JobSet out;
  for (JobId id = 0; id < jobs.size(); ++id) {
    Job j = jobs[id];
    j.value = value(id);
    out.add(j);
  }
  return out;
}

/// Which rules fired over a family, and what the oracle saw.
struct Tally {
  std::size_t strict_settled = 0;
  std::size_t lax_settled = 0;
  std::size_t strict_ran = 0;
  std::size_t lax_ran = 0;
  std::size_t machines_copied = 0;
  std::size_t infinite_bounds = 0;   ///< a branch bound was +inf
  std::size_t infinite_branches = 0; ///< an oracle branch summed to +inf
};

/// One solve under test against the oracle's answer.
void expect_matches(const JobSet& jobs, const OracleValues& want,
                    const Schedule& want_out, const CombinedMultiValues& got,
                    const Schedule& got_out, const std::string& label,
                    Tally& tally) {
  ASSERT_TRUE(same_schedule(got_out, want_out)) << label;
  ASSERT_TRUE(same_bits(got.value, want.value))
      << label << ": " << got.value << " vs " << want.value;
  ASSERT_TRUE(same_bits(got_out.total_value(jobs), got.value)) << label;
  const auto branch = [&](bool settled, Value got_v, Value want_v,
                          const char* name, std::size_t& settled_count,
                          std::size_t& ran_count) {
    if (settled) {
      ++settled_count;
      // The bound dominates what the branch would have reported and never
      // exceeds the winner.
      EXPECT_GE(got_v, want_v) << label << ' ' << name;
      EXPECT_LE(got_v, got.value) << label << ' ' << name;
      if (std::isinf(got_v)) ++tally.infinite_bounds;
    } else {
      ++ran_count;
      EXPECT_TRUE(same_bits(got_v, want_v))
          << label << ' ' << name << ": " << got_v << " vs " << want_v;
    }
    if (std::isinf(want_v)) ++tally.infinite_branches;
  };
  branch(got.strict_settled, got.strict_value, want.strict_value, "strict",
         tally.strict_settled, tally.strict_ran);
  branch(got.lax_settled, got.lax_value, want.lax_value, "lax",
         tally.lax_settled, tally.lax_ran);
  tally.machines_copied += got.strict_machines_copied;
}

/// Seeds `jobs`, runs the oracle and the function under test (with no
/// hint, a full hint and a strict-less hint from a neighbor whose last job
/// has a different value), and checks every answer against the oracle.
void check_instance(const JobSet& jobs, std::size_t k, std::size_t machines,
                    bool use_tm, const std::string& name, Tally& tally) {
  const ScheduleOptions options{.k = k, .machine_count = machines};
  CombinedOptions combined;
  combined.k = k;
  combined.use_tm = use_tm;
  const std::string label = name + " k=" + std::to_string(k) +
                            " m=" + std::to_string(machines) +
                            (use_tm ? " tm" : " lc");
  const std::vector<JobId> ids = all_ids(jobs);

  SolveScratch oracle_scratch;
  Schedule seed(1);
  Schedule want_out(1);
  seed_unbounded_schedule_into(jobs, options, ids, oracle_scratch, seed);
  const OracleValues want =
      oracle_combined(jobs, seed, combined, oracle_scratch, want_out);

  // The neighbor: the last job's value doubled or halved (kept finite and
  // positive), its seed and its oracle branch schedules.
  const JobId last = static_cast<JobId>(jobs.size() - 1);
  const JobSet neighbor = with_values(jobs, [&](JobId id) {
    const Value v = jobs[id].value;
    return id != last ? v : (v > 1 ? v / 2 : v * 2);
  });
  Schedule neighbor_seed(1);
  Schedule neighbor_out(1);
  seed_unbounded_schedule_into(neighbor, options, ids, oracle_scratch,
                               neighbor_seed);
  oracle_combined(neighbor, neighbor_seed, combined, oracle_scratch,
                  neighbor_out);
  const Schedule neighbor_strict = oracle_scratch.strict_sched;
  const Schedule neighbor_full = oracle_scratch.full_sched;
  std::vector<std::uint8_t> changed(jobs.size(), 0);
  changed[last] = 1;
  const SolveDeltaHint full_hint{&neighbor_seed, &neighbor_strict,
                                 &neighbor_full, changed.data()};
  const SolveDeltaHint strictless_hint{&neighbor_seed, nullptr,
                                       &neighbor_full, changed.data()};

  SolveScratch scratch;
  for (const SolveDeltaHint* hint :
       {static_cast<const SolveDeltaHint*>(nullptr), &full_hint,
        &strictless_hint}) {
    Schedule got_out(1);
    const CombinedMultiValues got = k_preemption_combined_multi_into(
        jobs, seed, combined, nullptr, scratch, got_out, hint);
    expect_matches(jobs, want, want_out, got, got_out,
                   label + (hint == nullptr         ? " no-hint"
                            : hint == &full_hint    ? " hint"
                                                    : " strictless-hint"),
                   tally);
  }
}

/// Every (k, machines, use_tm) combination of the sweep.
void check_family(const std::vector<JobSet>& family, const std::string& name,
                  Tally& tally) {
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (const std::size_t k : {1u, 2u, 3u}) {
      for (const std::size_t machines : {1u, 2u, 3u}) {
        for (const bool use_tm : {true, false}) {
          check_instance(family[i], k, machines, use_tm,
                         name + "#" + std::to_string(i), tally);
        }
      }
    }
  }
}

std::vector<JobSet> random_family(std::uint64_t seed, double min_laxity,
                                  double max_laxity) {
  Rng rng(seed);
  std::vector<JobSet> family;
  for (std::size_t i = 0; i < 4; ++i) {
    JobGenConfig config;
    config.n = 12 + 11 * i;
    config.max_length = 1 << 6;
    config.min_laxity = min_laxity;
    config.max_laxity = max_laxity;
    config.horizon = 1 << 10;
    config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
    family.push_back(random_jobs(config, rng));
  }
  return family;
}

// --------------------------------------------------------- families -------

TEST(Alg3Settle, RandomJobsMatchTheOracle) {
  Tally tally;
  check_family(random_family(7, 1.0, 8.0), "random", tally);
  EXPECT_GT(tally.strict_settled, 0u);
  EXPECT_GT(tally.lax_settled, 0u);
}

// Laxity at most 1.9, below k + 1 for every k swept (only the shortest
// jobs' rounded-up windows reach 2p): little or no lax value, so the lax
// branch settles, and wherever the reduction loses value the strict branch
// runs and copies its all-strict machines from the full branch.
TEST(Alg3Settle, StrictHeavyJobsMatchTheOracle) {
  Tally tally;
  check_family(random_family(8, 1.0, 1.9), "strict-heavy", tally);
  EXPECT_GT(tally.strict_ran, 0u);
  EXPECT_GT(tally.machines_copied, 0u);
  EXPECT_GT(tally.lax_settled, 0u);
}

// All jobs lax for every k swept: the lax branch is settled by the
// length-class bound, which is below the lax jobs' total.
TEST(Alg3Settle, LaxHeavyJobsMatchTheOracle) {
  Tally tally;
  check_family(random_family(9, 4.0, 12.0), "lax-heavy", tally);
  EXPECT_GT(tally.lax_settled, 0u);
  EXPECT_GT(tally.strict_settled, 0u);
}

TEST(Alg3Settle, LaminarInstancesMatchTheOracle) {
  Rng rng(10);
  std::vector<JobSet> family;
  for (std::size_t i = 0; i < 3; ++i) {
    LaminarGenConfig config;
    config.target_jobs = 20 + 15 * i;
    config.slack_factor = 0.1 * static_cast<double>(i);
    config.value_dist = static_cast<LaminarGenConfig::ValueDist>(i);
    family.push_back(random_laminar_instance(config, rng).jobs);
  }
  Tally tally;
  check_family(family, "laminar", tally);
  EXPECT_GT(tally.strict_ran, 0u);
  EXPECT_GT(tally.machines_copied, 0u);
  EXPECT_GT(tally.lax_settled, 0u);
}

// Fig. 2: one unit-value job per length 2^i, so each base-2 length class
// holds one job and the lax bound is at most M.  Appendix B: every job is
// strict and the reduction loses a log factor, so the strict branch runs
// and copies its machines from the full branch.
TEST(Alg3Settle, LowerBoundConstructionsMatchTheOracle) {
  Tally fig2;
  check_family({k0_geometric_instance(6).jobs, k0_geometric_instance(12).jobs},
               "fig2", fig2);
  EXPECT_GT(fig2.lax_settled, 0u);

  Tally appendix_b;
  std::vector<JobSet> family;
  for (const std::size_t k : {1u, 2u}) {
    const std::int64_t K = 2 * static_cast<std::int64_t>(k);
    const std::size_t L = std::min<std::size_t>(3, pobp_lower_bound_max_L(K, 80));
    family.push_back(pobp_lower_bound_instance(k, K, L).jobs);
  }
  check_family(family, "appendix-b", appendix_b);
  EXPECT_GT(appendix_b.strict_ran, 0u);
  EXPECT_GT(appendix_b.machines_copied, 0u);
}

// ------------------------------------------------- floating point ---------

// Values across the whole double range, subnormals included: multiples of
// the smallest subnormal (every sum exact), and (1 + U)·2^e for e uniform
// in [-1074, 1022] (sums dominated by their largest terms).
TEST(Alg3Settle, SubnormalToMaxValuesMatchTheOracle) {
  const std::vector<JobSet> base = random_family(11, 1.0, 8.0);
  std::vector<JobSet> subnormal;
  std::vector<JobSet> wide;
  Rng rng(12);
  for (const JobSet& jobs : base) {
    subnormal.push_back(with_values(jobs, [&](JobId id) {
      return std::ldexp(static_cast<double>(1 + id % 97), -1074);
    }));
    wide.push_back(with_values(jobs, [&](JobId) {
      return std::ldexp(1.0 + rng.uniform01(),
                        static_cast<int>(rng.uniform_int(-1074, 1022)));
    }));
  }
  Tally tally;
  check_family(subnormal, "subnormal", tally);
  EXPECT_GT(tally.strict_settled + tally.lax_settled, 0u);
  check_family(wide, "wide", tally);
  EXPECT_GT(tally.strict_ran + tally.lax_ran, 0u);
}

// Values near DBL_MAX: any two of them sum past it, so branch sums — the
// full branch's included — overflow to +inf.  A +inf full value settles
// every bound; a finite one settles none that overflowed.
TEST(Alg3Settle, ValuesNearMaxOverflowingToInfinityMatchTheOracle) {
  std::vector<JobSet> family;
  for (const JobSet& jobs : random_family(13, 1.0, 8.0)) {
    family.push_back(with_values(jobs, [](JobId id) {
      return DBL_MAX / 8.0 * static_cast<double>(4 + id % 5);
    }));
  }
  Tally tally;
  check_family(family, "near-max", tally);
  EXPECT_GT(tally.infinite_branches, 0u);
  EXPECT_GT(tally.infinite_bounds, 0u);
}

/// One machine, k = 1: a strict job on [0, 10) and a lax job on [10, 40),
/// both length 10.  The seed and the full branch keep both, so the full
/// value is strict_value + lax_value exactly when that sum is a double.
JobSet strict_and_lax_pair(Value strict_value, Value lax_value) {
  JobSet jobs;
  jobs.add({0, 10, 10, strict_value});
  jobs.add({10, 40, 10, lax_value});
  return jobs;
}

struct PairRun {
  CombinedMultiValues got;
  OracleValues want;
};

PairRun run_pair(const JobSet& jobs) {
  const ScheduleOptions options{.k = 1, .machine_count = 1};
  const CombinedOptions combined{.k = 1};
  const std::vector<JobId> ids = all_ids(jobs);
  SolveScratch s;
  Schedule seed(1);
  Schedule want_out(1);
  Schedule got_out(1);
  seed_unbounded_schedule_into(jobs, options, ids, s, seed);
  PairRun run;
  run.want = oracle_combined(jobs, seed, combined, s, want_out);
  SolveScratch t;
  run.got = k_preemption_combined_multi_into(jobs, seed, combined, nullptr, t,
                                             got_out);
  EXPECT_TRUE(same_schedule(got_out, want_out));
  EXPECT_TRUE(same_bits(run.got.value, run.want.value));
  return run;
}

/// 1 + b, the bound of a branch whose values total 1.0 on a pair: read off
/// the lax branch the pair (1, 1) settles.  b is a multiple of 2^-52.
Value pair_bound_of_one() {
  const PairRun run = run_pair(strict_and_lax_pair(1.0, 1.0));
  EXPECT_TRUE(run.got.lax_settled);
  EXPECT_GT(run.got.lax_value, 1.0);
  return run.got.lax_value;
}

// With the other job worth b the full value is exactly 1 + b, the bound:
// a tie, which settles the branch, and full wins it.
TEST(Alg3Settle, FullValueEqualToABoundSettlesTheBranch) {
  const Value b = pair_bound_of_one() - 1.0;
  {
    const PairRun lax_tie = run_pair(strict_and_lax_pair(b, 1.0));
    EXPECT_EQ(lax_tie.want.full_value, 1.0 + b);
    EXPECT_TRUE(lax_tie.got.lax_settled);
    EXPECT_TRUE(same_bits(lax_tie.got.lax_value, lax_tie.got.value));
  }
  {
    const PairRun strict_tie = run_pair(strict_and_lax_pair(1.0, b));
    EXPECT_EQ(strict_tie.want.full_value, 1.0 + b);
    EXPECT_TRUE(strict_tie.got.strict_settled);
    EXPECT_TRUE(same_bits(strict_tie.got.strict_value, strict_tie.got.value));
  }
}

// The same pair with the other job one 2^-52 step cheaper: the full value
// is the double just below the bound, so the branch runs (and loses).
TEST(Alg3Settle, FullValueOneUlpBelowABoundRunsTheBranch) {
  const Value bound = pair_bound_of_one();
  const Value below = bound - 1.0 - 0x1p-52;
  ASSERT_GT(below, 0.0);
  {
    const PairRun lax = run_pair(strict_and_lax_pair(below, 1.0));
    EXPECT_EQ(lax.want.full_value, std::nextafter(bound, 0.0));
    EXPECT_FALSE(lax.got.lax_settled);
    EXPECT_TRUE(same_bits(lax.got.lax_value, 1.0));
  }
  {
    const PairRun strict = run_pair(strict_and_lax_pair(1.0, below));
    EXPECT_FALSE(strict.got.strict_settled);
    EXPECT_TRUE(same_bits(strict.got.strict_value, 1.0));
  }
}

// ------------------------------------------------------ solve cache -------

/// Two machines, k = 1.  Machine 0 holds Z (strict, fills [0, 11), the
/// densest job) and x (lax, on [20, 40), the job the two instances differ
/// in); machine 1 holds a gadget where the strict branch beats the full
/// one.  There the lax job L delays S1 until S2 and S3 both preempt it, so
/// the full branch keeps S1 with one child or S2 and S3 without S1 (21 in
/// all), while the strict jobs alone nest only once and keep 30.
JobSet strict_winning_pair(Value x_value) {
  JobSet jobs;
  jobs.add({0, 11, 11, 1000.0});  // Z
  jobs.add({0, 11, 6, 10.0});     // S1
  jobs.add({5, 6, 1, 10.0});      // S2
  jobs.add({8, 9, 1, 10.0});      // S3
  jobs.add({0, 6, 3, 1.0});       // L
  jobs.add({20, 40, 5, x_value}); // x
  return jobs;
}

// A neighbor that settled its strict branch is cached with its seed and
// full schedules only.  An instance one value away must then compute its
// strict machines itself: its strict branch wins on machine 1, so reusing
// an absent (or empty) strict schedule there changes the answer.
TEST(Alg3Settle, StrictSettledNeighborLeavesNoStrictScheduleToReuse) {
  const JobSet settled = strict_winning_pair(100.0);  // full 1121 ≥ 1030
  const JobSet running = strict_winning_pair(1.0);    // full 1022 < 1030
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};

  Session reference({.schedule = schedule});
  const ScheduleResult expected = reference.try_solve(running, schedule).value();
  ASSERT_EQ(reference.metrics().strict_settled, 0u);
  ASSERT_EQ(expected.value, 1030.0) << "the strict branch must win";

  EngineOptions cached;
  cached.schedule = schedule;
  cached.cache = std::make_shared<SolveCache>();
  cached.cache_mode = CacheMode::kReadWrite;
  Session session(cached);
  ASSERT_TRUE(session.try_solve(settled, schedule).has_value());
  const ScheduleResult got = session.try_solve(running, schedule).value();

  const EngineMetrics& m = session.metrics();
  EXPECT_EQ(m.cache_delta_patches, 1u) << "the second solve must be a delta";
  EXPECT_EQ(m.alg3_runs, 2u);
  EXPECT_EQ(m.strict_settled, 1u) << "only the neighbor settles strict";
  EXPECT_TRUE(same_schedule(got.schedule, expected.schedule));
  EXPECT_TRUE(same_bits(got.value, expected.value));
}

// ---------------------------------------------------- engine metrics -----

// The engine sums each solve's provenance across workers, and both exports
// print it.
TEST(Alg3Settle, EngineMetricsSumBranchProvenance) {
  std::vector<JobSet> instances = random_family(16, 1.0, 8.0);
  for (const JobSet& jobs : random_family(17, 1.0, 1.9)) {
    instances.push_back(jobs);
  }
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};
  EngineMetrics want;
  for (const JobSet& jobs : instances) {
    SolveScratch s;
    Schedule seed(1);
    Schedule out(1);
    seed_unbounded_schedule_into(jobs, schedule, all_ids(jobs), s, seed);
    want.record_branches(k_preemption_combined_multi_into(
        jobs, seed, CombinedOptions{.k = 1}, nullptr, s, out));
  }
  ASSERT_GT(want.strict_machines_copied, 0u);

  Engine engine({.schedule = schedule, .workers = 3});
  (void)engine.solve_batch(instances, {});
  const EngineMetrics got = engine.metrics();
  EXPECT_EQ(got.alg3_runs, instances.size());
  EXPECT_EQ(got.strict_settled, want.strict_settled);
  EXPECT_EQ(got.lax_settled, want.lax_settled);
  EXPECT_EQ(got.strict_machines_copied, want.strict_machines_copied);
  const std::string json = "\"alg3\":{\"runs\":" +
                           std::to_string(instances.size()) +
                           ",\"strict_settled\":" +
                           std::to_string(want.strict_settled);
  EXPECT_NE(got.to_json().find(json), std::string::npos) << got.to_json();
  EXPECT_NE(got.to_table().find("strict machines copied from full"),
            std::string::npos);
}

// ---------------------------------------------------- allocation-free -----

/// Appendix B (K = 2, L = 5: strict, full keeps 63 of 192) followed by a
/// lax comb in one length class — A (31 ticks) preempted by B1..B3 (16
/// ticks each) — where full keeps 3g of the class's 5g.  With g = 37 the
/// full value 174 is below both the strict total 192 and the lax bound
/// 185, so both losing branches run.
JobSet both_branches_running() {
  const PobpLowerBoundInstance block = pobp_lower_bound_instance(1, 2, 5);
  JobSet jobs;
  for (const Job& j : block.jobs) jobs.add(j);
  const Time t = block.jobs.horizon() + 100;
  constexpr Value g = 37.0;
  jobs.add({t, t + 79, 31, 2 * g});
  jobs.add({t + 1, t + 33, 16, g});
  jobs.add({t + 18, t + 50, 16, g});
  jobs.add({t + 35, t + 67, 16, g});
  return jobs;
}

void expect_warm_solve_allocation_free(const JobSet& target, std::size_t k,
                                       std::size_t machines,
                                       bool settled_expected) {
  const ScheduleOptions options{.k = k, .machine_count = machines};
  const CombinedOptions combined{.k = k};
  SolveScratch scratch;
  Schedule out(machines);
  const auto solve = [&](const JobSet& jobs) {
    const std::vector<JobId> ids = all_ids(jobs);
    seed_unbounded_schedule_into(jobs, options, ids, scratch, scratch.seed);
    return k_preemption_combined_multi_into(jobs, scratch.seed, combined,
                                            nullptr, scratch, out);
  };
  for (const JobSet& jobs : random_family(14, 1.0, 8.0)) solve(jobs);
  solve(both_branches_running());
  const CombinedMultiValues first = solve(target);
  EXPECT_EQ(first.strict_settled, settled_expected);
  EXPECT_EQ(first.lax_settled, settled_expected);
  const std::string expected = io::schedule_to_csv(out);

  if (!alloccount::arm()) {
    GTEST_SKIP() << "allocation counting disabled in this build";
  }
  alloccount::Scope scope;
  const CombinedMultiValues again = k_preemption_combined_multi_into(
      target, scratch.seed, combined, nullptr, scratch, out);
  EXPECT_EQ(scope.allocations(), 0u)
      << "a warmed Algorithm-3 run must be allocation-free";
  EXPECT_EQ(again.strict_settled, settled_expected);
  EXPECT_EQ(io::schedule_to_csv(out), expected);
}

TEST(Alg3Settle, WarmScratchSettlesBothBranchesWithoutAllocating) {
  expect_warm_solve_allocation_free(random_family(15, 1.0, 8.0)[3], 1, 2,
                                    /*settled_expected=*/true);
}

TEST(Alg3Settle, WarmScratchRunsBothBranchesWithoutAllocating) {
  expect_warm_solve_allocation_free(both_branches_running(), 1, 1,
                                    /*settled_expected=*/false);
}

}  // namespace
}  // namespace pobp
