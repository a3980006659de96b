// Differential tests for EdfAdmission, the greedy seed's trial acceptance.
//
// Every try_admit answer must equal a from-scratch edf_schedule_into
// verdict on the admitted set plus the candidate — and the interval
// condition for n ≤ 64 — and the greedy built on it must accept exactly
// what the previous greedy, which re-probed the whole accepted set per
// candidate, accepted on 1–3 machines.  The corpus covers the src/gen
// random families and the edge shapes of the busy-window argument: one
// busy period, zero laxity, candidates released exactly at a busy period's
// end, windows that absorb three or more later periods, negative releases,
// ticks near the int64 limits, and windows across the rank bitsets' 64-bit
// words.  Each family also checks, with its own busy-period computation,
// that the shape it exists for really occurred.
//
// The same computation predicts how try_admit must decide each probe: by
// the reject bound (some stage of the growing window — the holding period
// plus the candidate, then each absorbed period — ends after the latest
// deadline among the stages so far), by the accept bound (the window ends
// by the candidate's deadline), or by simulating the window — and, when it
// simulates, exactly which jobs: the admitted ones released inside the
// window plus the candidate.  Each probe checks the prediction against the
// oracle's answer, against the counter try_admit bumped and against the
// window the EDF scratch was loaded with.
//
// The seed's two orders are radix sorts: the ranking is compared with a
// std::sort of (release, id) pairs, and the density order with a std::sort
// by the exact cross-products, on tie-heavy and extreme inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pobp/gen/lower_bounds.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/io/csv.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/schedule/interval_condition.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

constexpr Time kMax = std::numeric_limits<Time>::max();
constexpr Time kMin = std::numeric_limits<Time>::min();

/// Sign of x1·y1 − x2·y2 for finite x ≥ 0 and integer-valued y ≥ 1,
/// computed in integers: each product is M·2^E with M < 2^106.
int exact_product_sign(double x1, double y1, double x2, double y2) {
  const auto product = [](double x, double y) {
    int ex = 0;
    int ey = 0;
    // frexp's fractions times 2^53 are exact integers, subnormals included.
    const auto mx = static_cast<__int128>(std::ldexp(std::frexp(x, &ex), 53));
    const auto my = static_cast<__int128>(std::ldexp(std::frexp(y, &ey), 53));
    return std::pair{mx * my, ex + ey - 106};
  };
  auto [m1, e1] = product(x1, y1);
  auto [m2, e2] = product(x2, y2);
  if (m1 == 0 || m2 == 0) return (m1 != 0) - (m2 != 0);
  const auto bits = [](__int128 m) {
    const auto u = static_cast<unsigned __int128>(m);
    const auto hi = static_cast<std::uint64_t>(u >> 64);
    const auto width = hi != 0 ? 64 + std::bit_width(hi)
                               : std::bit_width(static_cast<std::uint64_t>(u));
    return static_cast<int>(width);
  };
  const int top1 = bits(m1) + e1;
  const int top2 = bits(m2) + e2;
  if (top1 != top2) return top1 < top2 ? -1 : 1;
  // Same leading bit: the exponents differ by less than 107, and the
  // shifted mantissa keeps the other's width.
  if (e1 > e2) m1 <<= e1 - e2;
  if (e2 > e1) m2 <<= e2 - e1;
  return (m1 > m2) - (m1 < m2);
}

/// The greedy's density order computed apart from denser_first: the exact
/// cross-products v_a·p_b and v_b·p_a compared in integers, then the id.
bool exact_denser_first(const JobSet& jobs, JobId a, JobId b) {
  const int sign = exact_product_sign(
      jobs[a].value, static_cast<double>(jobs[b].length), jobs[b].value,
      static_cast<double>(jobs[a].length));
  return sign != 0 ? sign > 0 : a < b;
}

/// The from-scratch verdict on `ids`: whether EDF meets every deadline.
bool edf_feasible(const JobSetView& jobs, std::span<const JobId> ids,
                  EdfScratch& scratch) {
  MachineSchedule out;
  return edf_schedule_into(jobs, ids, scratch, out);
}

/// The seed's previous algorithm, kept as the oracle: density order
/// (exact_denser_first), and each candidate re-probes the whole accepted
/// set from scratch.
Schedule reference_greedy(const JobSet& jobs, std::size_t machines) {
  Schedule out(machines);
  std::vector<JobId> remaining = all_ids(jobs);
  EdfScratch scratch;
  for (std::size_t m = 0; m < machines && !remaining.empty(); ++m) {
    std::vector<JobId> order = remaining;
    std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
      return exact_denser_first(jobs, a, b);
    });
    std::vector<JobId> accepted;
    for (const JobId id : order) {
      accepted.push_back(id);
      if (!edf_feasible(jobs, accepted, scratch)) accepted.pop_back();
    }
    if (!accepted.empty()) out.machine(m) = *edf_schedule(jobs, accepted);
    std::erase_if(remaining,
                  [&](JobId id) { return out.machine(m).contains(id); });
  }
  return out;
}

/// How a probe is decided: by one of the two bounds, or by simulation.
enum class Decision { kBoundRejected, kBoundAccepted, kSimulated };

/// `ids` in (release, id) order.
std::vector<JobId> release_order(const JobSet& jobs, std::vector<JobId> ids) {
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return jobs[a].release != jobs[b].release
               ? jobs[a].release < jobs[b].release
               : a < b;
  });
  return ids;
}

/// An EdfAdmission ranked over every job of a set, probed by job id.
struct Ranked {
  EdfAdmission admission;
  EdfScratch scratch;
  RadixSort sort;
  std::vector<EdfAdmission::Rank> rank_of;  ///< per job id

  Ranked() = default;
  explicit Ranked(const JobSetView& jobs) { rank(jobs); }

  void rank(const JobSetView& jobs) {
    std::vector<JobId> ids(jobs.size());
    std::iota(ids.begin(), ids.end(), JobId{0});
    admission.rank(jobs, ids, sort);
    rank_of.assign(jobs.size(), 0);
    for (std::size_t r = 0; r < admission.size(); ++r) {
      rank_of[admission.id(static_cast<EdfAdmission::Rank>(r))] =
          static_cast<EdfAdmission::Rank>(r);
    }
  }
  bool try_admit(JobId id) {
    return admission.try_admit(rank_of[id], scratch);
  }
  std::vector<JobId> admitted() const {
    std::vector<JobId> out;
    admission.admitted_ids(out);
    return out;
  }
};

/// What one probe looked like, from the admitted set's busy periods
/// (computed here independently of EdfAdmission).
struct Shape {
  bool at_period_end = false;  ///< r_id equals some busy period's end
  std::size_t absorbed = 0;    ///< later periods the grown window reaches
  bool past_int64 = false;     ///< the window would end past INT64_MAX
  /// An earlier stage overran its latest deadline while the whole window
  /// ends by its own: only the stage-wise rule rejects without simulating.
  bool early_stage_only = false;
  Decision decision = Decision::kSimulated;
  /// The admitted jobs released in [start, end) plus the candidate, in
  /// (release, id) order: what a simulated probe loads.
  std::vector<JobId> window;
  /// The (release, id) ranks over the whole set of the window's first
  /// and last job, and of each absorbed period's first job.
  std::size_t first_rank = 0;
  std::size_t last_rank = 0;
  std::vector<std::size_t> absorbed_first_ranks;
  /// The holding period starts at r_id with a job ranked above the
  /// candidate: the merged period's first rank moves to the candidate.
  bool holding_starts_above = false;
  /// Admitted jobs released at r_id rank below and above the candidate.
  bool equal_releases_both_sides = false;
};

Shape probe_shape(const JobSet& jobs, const std::vector<JobId>& accepted,
                  JobId id, std::span<const EdfAdmission::Rank> rank_of) {
  const std::vector<JobId> admitted = release_order(jobs, accepted);
  struct Period {
    Time start, end, latest;
    JobId first;
  };
  std::vector<Period> periods;  // feasible set: every end is a valid Time
  for (const JobId j : admitted) {
    if (periods.empty() || jobs[j].release >= periods.back().end) {
      periods.push_back(
          {jobs[j].release, jobs[j].release, jobs[j].deadline, j});
    }
    periods.back().end += jobs[j].length;
    periods.back().latest = std::max(periods.back().latest, jobs[j].deadline);
  }
  // Window arithmetic in 128 bits: here an end past INT64_MAX is just a
  // number, and a period's span past INT64_MAX too.
  Shape shape;
  const Job c = jobs[id];
  Time start = c.release;
  __int128 end = c.release;
  Time latest = c.deadline;  // over the window's jobs, c included
  std::size_t next = 0;
  for (; next < periods.size() && periods[next].start <= c.release; ++next) {
    shape.at_period_end |= periods[next].end == c.release;
    if (periods[next].end > c.release) {  // the period holding r_c
      start = periods[next].start;
      end = periods[next].end;
      latest = std::max(latest, periods[next].latest);
      shape.holding_starts_above = periods[next].start == c.release &&
                                   periods[next].first > id;
    }
  }
  end += c.length;
  bool overran = end > latest;  // stage 0: the holding period plus c
  for (; next < periods.size() && periods[next].start < end; ++next) {
    ++shape.absorbed;
    shape.absorbed_first_ranks.push_back(rank_of[periods[next].first]);
    end += static_cast<__int128>(periods[next].end) - periods[next].start;
    latest = std::max(latest, periods[next].latest);
    overran |= end > latest;
  }
  shape.past_int64 = end > kMax;
  shape.early_stage_only = overran && end <= latest;
  shape.decision = overran             ? Decision::kBoundRejected
                   : end <= c.deadline ? Decision::kBoundAccepted
                                       : Decision::kSimulated;
  bool below = false;
  bool above = false;
  for (const JobId j : admitted) {
    if (jobs[j].release == c.release) (j < id ? below : above) = true;
    if (jobs[j].release >= start && jobs[j].release < end) {
      shape.window.push_back(j);
    }
  }
  shape.equal_releases_both_sides = below && above;
  shape.window.push_back(id);
  shape.window = release_order(jobs, shape.window);
  shape.first_rank = rank_of[shape.window.front()];
  shape.last_rank = rank_of[shape.window.back()];
  return shape;
}

/// try_admit's answer, and how it decided, read from the one count the
/// probe bumped.
struct Probe {
  bool admitted = false;
  bool simulated = false;
  Decision decision = Decision::kSimulated;
};

Probe probe(Ranked& ranked, JobId id) {
  const AdmissionCounts before = ranked.admission.counts();
  Probe got;
  got.admitted = ranked.try_admit(id);
  const AdmissionCounts& after = ranked.admission.counts();
  EXPECT_EQ(after.probes(), before.probes() + 1) << "job " << id;
  got.simulated = after.simulated != before.simulated;
  got.decision = after.bound_rejected != before.bound_rejected
                     ? Decision::kBoundRejected
                 : after.bound_accepted != before.bound_accepted
                     ? Decision::kBoundAccepted
                     : Decision::kSimulated;
  return got;
}

struct Coverage {
  std::size_t instances = 0;
  std::size_t probes = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t at_period_end = 0;
  std::size_t absorbed_three = 0;
  std::size_t past_int64 = 0;
  std::size_t bound_rejected = 0;
  std::size_t early_stage_only = 0;  ///< of bound_rejected
  std::size_t bound_accepted = 0;
  std::size_t simulated = 0;
  std::size_t past_sorted_cap = 0;   ///< of simulated, from try_admit
  std::size_t holding_starts_above = 0;
  std::size_t equal_releases_both_sides = 0;
  /// Simulated windows whose ranks span the bitset word boundary 63/64,
  /// and the one at 127/128.
  std::size_t window_across_64 = 0;
  std::size_t window_across_128 = 0;
  /// Absorbed periods whose first rank opens a bitset word (64 or 128).
  std::size_t absorbed_at_word_start = 0;
  /// Admitted windows from the first bitset word into the third that
  /// absorbed a period starting in the second.
  std::size_t merged_across_three_words = 0;
};

/// The candidates a greedy seed of `seed.machine_count()` passes
/// considered: every job the earlier passes left, per pass.
std::size_t greedy_candidates(std::size_t n, const Schedule& seed) {
  std::size_t candidates = 0;
  for (std::size_t m = 0; m < seed.machine_count() && n > 0; ++m) {
    candidates += n;
    n -= seed.machine(m).job_count();
  }
  return candidates;
}

/// Probes the jobs of `order` through `ranked` (ranked over `jobs`),
/// checking each answer against from-scratch probes, each decision
/// against the predicted one and each simulated window against the
/// predicted jobs.  Returns the accepted ids in probe order.
std::vector<JobId> check_probes(const JobSet& jobs,
                                std::span<const JobId> order, Ranked& ranked,
                                Coverage& coverage) {
  const JobSetView view = jobs;
  EdfScratch oracle;
  std::vector<JobId> accepted;
  for (const JobId id : order) {
    const Shape shape = probe_shape(jobs, accepted, id, ranked.rank_of);
    coverage.at_period_end += shape.at_period_end;
    coverage.absorbed_three += shape.absorbed >= 3;
    coverage.past_int64 += shape.past_int64;
    coverage.holding_starts_above += shape.holding_starts_above;
    coverage.equal_releases_both_sides += shape.equal_releases_both_sides;
    for (const std::size_t r : shape.absorbed_first_ranks) {
      coverage.absorbed_at_word_start += r == 64 || r == 128;
    }
    ++coverage.probes;

    accepted.push_back(id);
    const bool expected = edf_feasible(view, accepted, oracle);
    if (jobs.size() <= 64) {
      EXPECT_EQ(preemptive_feasible(jobs, accepted), expected)
          << "EDF and the interval condition disagree, job " << id;
    }
    // The bounds are exact: each one's verdict is the oracle's.
    switch (shape.decision) {
      case Decision::kBoundRejected:
        ++coverage.bound_rejected;
        coverage.early_stage_only += shape.early_stage_only;
        EXPECT_FALSE(expected) << "reject bound wrong, job " << id;
        break;
      case Decision::kBoundAccepted:
        ++coverage.bound_accepted;
        EXPECT_TRUE(expected) << "accept bound wrong, job " << id;
        break;
      case Decision::kSimulated:
        ++coverage.simulated;
        coverage.window_across_64 +=
            shape.first_rank <= 63 && shape.last_rank >= 64;
        coverage.window_across_128 +=
            shape.first_rank <= 127 && shape.last_rank >= 128;
        break;
    }
    const Probe got = probe(ranked, id);
    EXPECT_EQ(got.admitted, expected)
        << "job " << id << " after " << accepted.size() - 1 << " admitted";
    EXPECT_EQ(got.simulated, shape.decision == Decision::kSimulated)
        << "job " << id << " decided the wrong way";
    EXPECT_EQ(got.decision, shape.decision)
        << "job " << id << " counted the wrong way";
    if (got.simulated) {
      EXPECT_EQ(ranked.scratch.id, shape.window)
          << "job " << id << " simulated the wrong window";
    }
    if (expected && shape.first_rank < 64 && shape.last_rank >= 128 &&
        std::ranges::any_of(shape.absorbed_first_ranks, [](std::size_t r) {
          return r >= 64 && r < 128;
        })) {
      ++coverage.merged_across_three_words;
    }
    if (!expected) accepted.pop_back();
    (expected ? coverage.accepted : coverage.rejected) += 1;
    if (::testing::Test::HasFailure()) break;
  }
  return accepted;
}

/// Admits every job of `jobs` in a random order through one reused
/// EdfAdmission, checking each probe (check_probes), then checks the
/// greedy against the reference on 1–3 machines.
void check_instance(const JobSet& jobs, Rng& rng, Ranked& ranked,
                    GreedyScratch& greedy, Coverage& coverage) {
  ++coverage.instances;
  std::vector<JobId> order = all_ids(jobs);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }

  ranked.rank(jobs);
  const std::vector<JobId> accepted =
      check_probes(jobs, order, ranked, coverage);
  if (::testing::Test::HasFailure()) return;
  coverage.past_sorted_cap += ranked.admission.counts().past_sorted_cap;

  // The admitted ids come out in (release, id) order.
  ASSERT_EQ(ranked.admitted(), release_order(jobs, accepted));

  for (const std::size_t machines : {1u, 2u, 3u}) {
    const Schedule reference = reference_greedy(jobs, machines);
    Schedule seed(machines);
    greedy_infinity_multi_into(jobs, all_ids(jobs), machines, greedy, seed);
    ASSERT_EQ(io::schedule_to_csv(seed), io::schedule_to_csv(reference))
        << machines << " machines";
    // One probe per candidate per pass, each counted once.
    ASSERT_EQ(greedy.probes.probes(), greedy_candidates(jobs.size(), seed))
        << machines << " machines";
  }
}

using Family = std::function<JobSet(Rng&)>;

/// Runs `count` instances of one family and returns what they covered.
Coverage run_family(const Family& family, std::uint64_t seed,
                    std::size_t count) {
  Rng rng(seed);
  Ranked ranked;
  GreedyScratch greedy;
  Coverage coverage;
  for (std::size_t i = 0; i < count; ++i) {
    const JobSet jobs = family(rng);
    check_instance(jobs, rng, ranked, greedy, coverage);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "instance " << i << " of seed " << seed;
      break;
    }
  }
  return coverage;
}

/// Every way of deciding a probe occurred.
void expect_every_decision(const Coverage& c) {
  EXPECT_GT(c.bound_rejected, 0u);
  EXPECT_GT(c.bound_accepted, 0u);
  EXPECT_GT(c.simulated, 0u);
}

std::size_t draw_n(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// random_jobs with randomized knobs (strict and lax laxities, tight and
/// loose horizons, every value mode), shifted by `offset`.
JobSet random_family(Rng& rng, Time offset) {
  JobGenConfig config;
  config.n = draw_n(rng, 1, 96);
  config.max_length = Duration{1} << rng.uniform_int(0, 12);
  config.min_laxity = rng.bernoulli(0.5) ? 1.0 : 2.0;
  config.max_laxity = config.min_laxity + rng.uniform_real(0.0, 6.0);
  config.horizon = std::max<Time>(
      Time{1} << rng.uniform_int(4, 18),
      static_cast<Time>(static_cast<double>(config.max_length) *
                        (config.max_laxity + 1)));
  config.value_mode =
      static_cast<JobGenConfig::ValueMode>(rng.uniform_int(0, 2));
  const JobSet base = random_jobs(config, rng);
  JobSet jobs;
  for (const Job& j : base) {
    jobs.add({j.release + offset, j.deadline + offset, j.length, j.value});
  }
  return jobs;
}

// --------------------------------------------------- src/gen families ------

TEST(EdfAdmissionDifferential, RandomJobs) {
  const Coverage c = run_family([](Rng& rng) { return random_family(rng, 0); },
                                101, 400);
  EXPECT_GT(c.accepted, 0u);
  EXPECT_GT(c.rejected, 0u);
  expect_every_decision(c);
  EXPECT_GT(c.early_stage_only, 0u);
}

TEST(EdfAdmissionDifferential, LaminarInstances) {
  const Coverage c = run_family(
      [](Rng& rng) {
        LaminarGenConfig config;
        config.target_jobs = draw_n(rng, 2, 80);
        config.max_children = draw_n(rng, 1, 4);
        config.slack_factor = rng.uniform_real(0.0, 1.0);
        config.value_dist =
            static_cast<LaminarGenConfig::ValueDist>(rng.uniform_int(0, 2));
        return random_laminar_instance(config, rng).jobs;
      },
      202, 250);
  // Each instance comes with a schedule of all its jobs: nothing is
  // rejected, so every probe exercises the accepting path — by the bound
  // or by simulation.
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_GT(c.bound_accepted, 0u);
  EXPECT_GT(c.simulated, 0u);
}

TEST(EdfAdmissionDifferential, Fig2GeometricChains) {
  // Lengths 2^i up to 2^61: the widest ticks the generators produce.
  Coverage c;
  for (std::size_t n = 1; n <= 62; ++n) {
    Rng rng(n);
    Ranked ranked;
    GreedyScratch greedy;
    check_instance(k0_geometric_instance(n).jobs, rng, ranked, greedy, c);
    ASSERT_FALSE(HasFailure()) << "n = " << n;
  }
  EXPECT_GT(c.bound_accepted, 0u);
  EXPECT_GT(c.simulated, 0u);
}

// -------------------------------------------------------- edge shapes ------

TEST(EdfAdmissionDifferential, EveryReleaseEqualIsOneBusyPeriod) {
  const Coverage c = run_family(
      [](Rng& rng) {
        const Time r = rng.uniform_int(-1000, 1000);
        JobSet jobs;
        const std::size_t n = draw_n(rng, 1, 80);
        for (std::size_t i = 0; i < n; ++i) {
          const Duration p = rng.uniform_int(1, 64);
          jobs.add({r, r + p + rng.uniform_int(0, 40 * static_cast<Time>(n)),
                    p, static_cast<Value>(rng.uniform_int(1, 100))});
        }
        return jobs;
      },
      303, 250);
  EXPECT_GT(c.rejected, 0u);
  expect_every_decision(c);
  // One busy period: stage 0 is the whole window.
  EXPECT_EQ(c.early_stage_only, 0u);
}

TEST(EdfAdmissionDifferential, ZeroLaxity) {
  const Coverage c = run_family(
      [](Rng& rng) {
        JobSet jobs;
        const std::size_t n = draw_n(rng, 1, 80);
        for (std::size_t i = 0; i < n; ++i) {
          const Time r = rng.uniform_int(0, 400);
          const Duration p = rng.uniform_int(1, 24);
          jobs.add({r, r + p, p, static_cast<Value>(rng.uniform_int(1, 9))});
        }
        return jobs;
      },
      404, 250);
  EXPECT_GT(c.accepted, c.instances);
  EXPECT_GT(c.rejected, 0u);
  // A feasible zero-laxity set runs every job exactly in its window, so
  // no deadline in a busy period passes its end.  A candidate alone in
  // its window ends at d_c (accepted); otherwise the window ends p_c past
  // every period it covers, after its latest deadline (rejected).
  EXPECT_GT(c.bound_accepted, 0u);
  EXPECT_GT(c.bound_rejected, 0u);
  EXPECT_EQ(c.simulated, 0u);
}

TEST(EdfAdmissionDifferential, ReleasesOnBusyPeriodEnds) {
  // Releases and lengths on a grid of 4: busy periods end exactly where
  // other jobs are released.
  const Coverage c = run_family(
      [](Rng& rng) {
        JobSet jobs;
        const std::size_t n = draw_n(rng, 2, 64);
        for (std::size_t i = 0; i < n; ++i) {
          const Time r = 4 * rng.uniform_int(0, 40);
          const Duration p = 4 * rng.uniform_int(1, 3);
          jobs.add({r, r + p * rng.uniform_int(1, 3), p,
                    static_cast<Value>(rng.uniform_int(1, 50))});
        }
        return jobs;
      },
      505, 250);
  EXPECT_GT(c.at_period_end, c.instances);
  expect_every_decision(c);
  EXPECT_GT(c.early_stage_only, 0u);
}

TEST(EdfAdmissionDifferential, WindowsAbsorbThreeOrMorePeriods) {
  // Short jobs with gaps between them, and a few long lax jobs released
  // early whose windows swallow run after run of them.
  const Coverage c = run_family(
      [](Rng& rng) {
        JobSet jobs;
        const std::size_t chain = draw_n(rng, 4, 60);
        for (std::size_t i = 0; i < chain; ++i) {
          const Time r = 10 * static_cast<Time>(i) + rng.uniform_int(0, 3);
          const Duration p = rng.uniform_int(1, 6);
          jobs.add({r, r + p + rng.uniform_int(0, 4), p,
                    static_cast<Value>(rng.uniform_int(20, 100))});
        }
        const std::size_t longs = draw_n(rng, 2, 8);
        for (std::size_t i = 0; i < longs; ++i) {
          const Time r = rng.uniform_int(0, 20);
          const Duration p = rng.uniform_int(20, 80);
          jobs.add({r, r + p + rng.uniform_int(0, 10 * static_cast<Time>(chain)),
                    p, static_cast<Value>(rng.uniform_int(1, 30))});
        }
        return jobs;
      },
      606, 250);
  EXPECT_GT(c.absorbed_three, c.instances);
  expect_every_decision(c);
  EXPECT_GT(c.early_stage_only, 0u);
}

TEST(EdfAdmissionDifferential, NegativeReleases) {
  const Coverage c = run_family(
      [](Rng& rng) {
        const Time offset = rng.bernoulli(0.5)
                                ? -rng.uniform_int(1, Time{1} << 40)
                                : kMin + rng.uniform_int(0, 1 << 20);
        return random_family(rng, offset);
      },
      707, 250);
  EXPECT_GT(c.rejected, 0u);
  expect_every_decision(c);
  EXPECT_GT(c.early_stage_only, 0u);
}

TEST(EdfAdmissionDifferential, TicksNearTheInt64Limits) {
  // Lengths up to 2^62 inside windows ending near INT64_MAX, some released
  // near INT64_MIN: busy-period sums and EDF completions pass INT64_MAX,
  // and interval capacities d − r exceed it.
  const Coverage c = run_family(
      [](Rng& rng) {
        JobSet jobs;
        const std::size_t n = draw_n(rng, 1, 24);
        for (std::size_t i = 0; i < n; ++i) {
          const Duration p =
              rng.uniform_int(1, 4) << rng.uniform_int(55, 60);
          Time r = 0;
          switch (rng.uniform_int(0, 2)) {
            case 0:  // released near INT64_MIN, window up to 2^62
              r = kMin + rng.uniform_int(0, Time{1} << 61);
              jobs.add({r, r + p + rng.uniform_int(0, Time{1} << 61), p, 1.0});
              continue;
            case 1:  // released near 0
              r = rng.uniform_int(-(Time{1} << 60), Time{1} << 60);
              break;
            default:  // released close to INT64_MAX
              r = kMax - p - rng.uniform_int(0, Time{1} << 61);
              break;
          }
          // d stays ≤ INT64_MAX and so does the window d − r.
          const Time slack = kMax - p - std::max<Time>(r, 0);
          jobs.add({r, r + p + rng.uniform_int(0, slack), p,
                    static_cast<Value>(rng.uniform_int(1, 4))});
        }
        return jobs;
      },
      808, 250);
  EXPECT_GT(c.past_int64, c.instances);
  expect_every_decision(c);
  EXPECT_GT(c.early_stage_only, 0u);
}

TEST(EdfAdmissionDifferential, CrowdedWindowsPassTheSortedCap) {
  // Up to 80 short jobs released within 4 ticks, their deadlines drawn from
  // four values: a simulated window has well over kEdfSortedReadyCap jobs
  // ready at once, and runs of equal deadlines, ordered by id against
  // their release order, straddle the switch to the heap.
  const Coverage c = run_family(
      [](Rng& rng) {
        JobSet jobs;
        const std::size_t n = draw_n(rng, 20, 80);
        const Time base = 2 * static_cast<Time>(n);
        for (std::size_t i = 0; i < n; ++i) {
          const Time r = rng.uniform_int(0, 3);
          const Duration p = rng.uniform_int(1, 6);
          const Time d = std::max<Time>(r + p, base * rng.uniform_int(1, 4));
          jobs.add({r, d, p, static_cast<Value>(rng.uniform_int(1, 9))});
        }
        return jobs;
      },
      909, 150);
  // One busy period whose latest deadline is far out: only the EDF run
  // rejects.
  EXPECT_GT(c.rejected, 0u);
  EXPECT_GT(c.bound_accepted, 0u);
  EXPECT_GT(c.simulated, 0u);
  EXPECT_GT(c.past_sorted_cap, c.instances);
}

// ---------------------------------------------------- pinned shapes -------

TEST(EdfAdmission, WindowAbsorbsThreeLaterPeriods) {
  // Tight jobs make busy periods [0,2) [3,5) [6,8) [9,11).  A length-4 job
  // released at 0 runs in their gaps and the window reaches all four, so it
  // finishes at 12: deadline 11 is one tick short, deadline 12 fits.
  JobSet jobs;
  for (const Time r : {0, 3, 6, 9}) jobs.add({r, r + 2, 2, 1.0});
  const JobId late = jobs.add({0, 11, 4, 1.0});
  const JobId fits = jobs.add({0, 12, 4, 1.0});
  const JobId at_end = jobs.add({12, 13, 1, 1.0});
  Ranked ranked(jobs);
  for (JobId id = 0; id < 4; ++id) EXPECT_TRUE(ranked.try_admit(id));
  EXPECT_FALSE(ranked.try_admit(late));
  EXPECT_TRUE(ranked.try_admit(fits));
  // Released exactly where the merged period ends: a window of its own.
  EXPECT_TRUE(ranked.try_admit(at_end));
  EXPECT_EQ(ranked.admitted().size(), 6u);
}

TEST(EdfAdmission, CandidateAtAPeriodEndOpensItsOwnWindow) {
  JobSet jobs;
  jobs.add({0, 10, 10, 1.0});  // busy period [0, 10)
  const JobId next = jobs.add({10, 20, 10, 1.0});
  const JobId crowded = jobs.add({10, 20, 1, 1.0});
  const JobId inside = jobs.add({9, 30, 1, 1.0});
  Ranked ranked(jobs);
  EXPECT_TRUE(ranked.try_admit(0));
  EXPECT_TRUE(ranked.try_admit(next));
  EXPECT_FALSE(ranked.try_admit(crowded));
  // Released inside [0, 10): the window grows to 11 and absorbs [10, 20).
  EXPECT_TRUE(ranked.try_admit(inside));
  EXPECT_EQ(ranked.admitted(), (std::vector<JobId>{0, inside, next}));
}

TEST(EdfAdmission, OverflowingWindowRejects) {
  JobSet jobs;
  jobs.add({0, kMax - 1023, Duration{1} << 62, 2.0});
  jobs.add({0, kMax - 1023, Duration{1} << 62, 1.0});
  jobs.add({kMax - 2, kMax, 2, 1.0});  // fits after the first job's period
  Ranked ranked(jobs);
  EXPECT_TRUE(ranked.try_admit(0));
  EXPECT_FALSE(ranked.try_admit(1));
  EXPECT_TRUE(ranked.try_admit(2));
  ranked.admission.clear();
  EXPECT_TRUE(ranked.admitted().empty());
  EXPECT_TRUE(ranked.try_admit(1));
}

TEST(EdfAdmission, WindowEndingAtTheCandidatesDeadlineIsAcceptedUnsimulated) {
  // Busy period [0, 5); the candidate's window grows it to 8 = d_c.  EDF
  // runs c in [2, 5) ahead of the d = 10 job, which finishes at 8.
  JobSet jobs;
  jobs.add({0, 10, 5, 1.0});
  const JobId c = jobs.add({2, 8, 3, 1.0});
  Ranked ranked(jobs);
  ASSERT_TRUE(ranked.try_admit(0));
  const Probe got = probe(ranked, c);
  EXPECT_TRUE(got.admitted);
  EXPECT_FALSE(got.simulated);
}

TEST(EdfAdmission, WindowEndingAtTheLatestDeadlineIsNotRejected) {
  // Busy period [0, 5) with deadline 8; the candidate (d = 6) grows the
  // window to 8: end == latest, so only simulation settles it — c runs
  // first and ends at 3, the other job at 8.  One tick later is the
  // reject bound.
  JobSet jobs;
  jobs.add({0, 8, 5, 1.0});
  const JobId c = jobs.add({0, 6, 3, 1.0});
  const JobId longer = jobs.add({0, 6, 4, 1.0});
  Ranked ranked(jobs);
  ASSERT_TRUE(ranked.try_admit(0));
  const Probe too_long = probe(ranked, longer);
  EXPECT_FALSE(too_long.admitted);
  EXPECT_FALSE(too_long.simulated);
  const Probe got = probe(ranked, c);
  EXPECT_TRUE(got.admitted);
  EXPECT_TRUE(got.simulated);
}

TEST(EdfAdmission, EqualDeadlinesOnEitherSideOfTheIdTieBreak) {
  // Candidates whose deadline equals an admitted job's, ranked above it
  // (smaller id) and below it (larger id) by EDF's tie-break, decided by
  // the accept bound (window end 10 = d) and by simulation (end 17 > 10,
  // with a d = 20 job in the window).  The answer never depends on the
  // side.
  for (const bool candidate_first : {true, false}) {
    JobSet jobs;
    const JobId tie = candidate_first ? 1 : 0;
    const JobId c = candidate_first ? 0 : 1;
    for (JobId id = 0; id < 2; ++id) {
      jobs.add(id == tie ? Job{0, 10, 6, 1.0} : Job{0, 10, 4, 1.0});
    }
    Ranked ranked(jobs);
    ASSERT_TRUE(ranked.try_admit(tie));
    const Probe bound = probe(ranked, c);
    EXPECT_TRUE(bound.admitted) << candidate_first;
    EXPECT_FALSE(bound.simulated) << candidate_first;

    JobSet wider;
    for (JobId id = 0; id < 2; ++id) {
      wider.add(id == tie ? Job{0, 10, 4, 1.0} : Job{0, 10, 5, 1.0});
    }
    const JobId later = wider.add({0, 20, 8, 1.0});
    ranked.rank(wider);
    ASSERT_TRUE(ranked.try_admit(tie));
    ASSERT_TRUE(ranked.try_admit(later));
    const Probe simulated = probe(ranked, c);
    EXPECT_TRUE(simulated.admitted) << candidate_first;
    EXPECT_TRUE(simulated.simulated) << candidate_first;
  }
}

TEST(EdfAdmission, LatestDeadlineFromAnAbsorbedPeriod) {
  // Busy periods [0, 5) (deadline 5) and [6, 8).  A candidate released at
  // 0 with p = 3 grows the window to 8, past 6, so it absorbs [6, 8) and
  // ends at 10 > d_c = 9.  With the absorbed job's deadline at 30, that
  // is the window's latest deadline: the reject bound does not apply, and
  // EDF fits everything (c in [5, 8), the absorbed job in [8, 10)).  At 8
  // the latest is d_c = 9, and the end 10 is past it: rejected without
  // simulating.
  for (const Time absorbed_deadline : {Time{30}, Time{8}}) {
    JobSet jobs;
    jobs.add({0, 5, 5, 1.0});
    jobs.add({6, absorbed_deadline, 2, 1.0});
    const JobId c = jobs.add({0, 9, 3, 1.0});
    Ranked ranked(jobs);
    ASSERT_TRUE(ranked.try_admit(0));
    ASSERT_TRUE(ranked.try_admit(1));
    const Probe got = probe(ranked, c);
    const bool fits = absorbed_deadline == 30;
    EXPECT_EQ(got.admitted, fits) << absorbed_deadline;
    EXPECT_EQ(got.simulated, fits) << absorbed_deadline;
    EXPECT_EQ(got.admitted, edf_feasible(jobs, std::vector<JobId>{0, 1, c},
                                         ranked.scratch));
  }
}

TEST(EdfAdmission, EarlyStageOverrunIsRejectedUnsimulated) {
  // Busy periods [0, 5) (deadline 5) and [6, 8) (deadline 30).  A
  // candidate released at 0 with p = 3 makes stage 0 — [0, 5) plus it —
  // end at 8, past that stage's latest deadline max(5, d_c): one of those
  // two jobs is late.  Absorbing [6, 8) ends the window at 10 ≤ 30, so only
  // the stage rule rejects it without simulating.  With d_c = 8 stage 0
  // ends exactly at its latest deadline: not rejected, and the window's EDF
  // run fits every job (c in [5, 8), the absorbed job in [8, 10)).
  for (const Time d_c : {Time{7}, Time{8}}) {
    JobSet jobs;
    jobs.add({0, 5, 5, 1.0});
    jobs.add({6, 30, 2, 1.0});
    const JobId c = jobs.add({0, d_c, 3, 1.0});
    Ranked ranked(jobs);
    ASSERT_TRUE(ranked.try_admit(0));
    ASSERT_TRUE(ranked.try_admit(1));
    const Probe got = probe(ranked, c);
    const bool fits = d_c == 8;
    EXPECT_EQ(got.admitted, fits) << d_c;
    EXPECT_EQ(got.decision,
              fits ? Decision::kSimulated : Decision::kBoundRejected)
        << d_c;
    EXPECT_EQ(got.admitted, edf_feasible(jobs, std::vector<JobId>{0, 1, c},
                                         ranked.scratch));
    const AdmissionCounts want{.bound_rejected = fits ? 0u : 1u,
                               .bound_accepted = 2,
                               .simulated = fits ? 1u : 0u};
    EXPECT_EQ(ranked.admission.counts(), want) << d_c;
    ranked.admission.clear();
    EXPECT_EQ(ranked.admission.counts(), AdmissionCounts{});
  }
}

// ------------------------------------------------------ rank space --------

/// Probes `order` with check_probes and returns each probe's verdict.
std::vector<bool> script(const JobSet& jobs, const std::vector<JobId>& order,
                         Coverage& coverage) {
  Ranked ranked(jobs);
  const std::vector<JobId> accepted =
      check_probes(jobs, order, ranked, coverage);
  std::vector<bool> verdicts;
  for (const JobId id : order) {
    verdicts.push_back(std::ranges::find(accepted, id) != accepted.end());
  }
  return verdicts;
}

TEST(EdfAdmission, HoldingPeriodStartingAtTheCandidatesReleaseMovesItsRank) {
  // a, b and c are released at 10, so they rank by id.  b alone is the
  // busy period [10, 15), first rank b's.  a ranks below it: its window is
  // [10, 17), simulated (d_a = 12 < 17), and fits (a in [10, 12), b in
  // [12, 17)); the merged period's first rank is now a's.  c then needs a,
  // b and c together: a in [10, 12) leaves c [12, 14), one tick past
  // d_c = 13 — a window that skipped a would admit c.
  JobSet jobs;
  const JobId a = jobs.add({10, 12, 2, 1.0});
  const JobId b = jobs.add({10, 30, 5, 1.0});
  const JobId c = jobs.add({10, 13, 2, 1.0});
  Coverage coverage;
  EXPECT_EQ(script(jobs, {b, a, c}, coverage),
            (std::vector<bool>{true, true, false}));
  EXPECT_EQ(coverage.holding_starts_above, 1u);  // a's probe
  EXPECT_EQ(coverage.simulated, 2u);
  // A job released inside the merged period finds it by its new first
  // rank: d needs a's [10, 12) first and then misses 13 by one tick.
  JobSet more = jobs;
  const JobId d = more.add({11, 13, 2, 1.0});
  Coverage more_coverage;
  EXPECT_EQ(script(more, {b, a, d, c}, more_coverage),
            (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(more_coverage.simulated, 3u);
}

TEST(EdfAdmission, EqualReleasesOnBothSidesOfTheCandidate) {
  // Five jobs released at 4 rank by id.  Ids 0 and 4 are admitted first,
  // with a period before them ([0, 3)) and one after ([14, 16)); then ids
  // 2, 1 and 3 probe from between them, each simulated, and 3 misses its
  // deadline: 2 and 3 (d = 9) need 6 ticks from 4.
  JobSet jobs;
  jobs.add({4, 40, 3, 1.0});
  jobs.add({4, 12, 2, 1.0});
  jobs.add({4, 9, 2, 1.0});
  jobs.add({4, 9, 4, 1.0});
  jobs.add({4, 16, 4, 1.0});
  jobs.add({0, 6, 3, 1.0});
  jobs.add({14, 30, 2, 1.0});
  Coverage coverage;
  EXPECT_EQ(script(jobs, {0, 4, 5, 6, 2, 1, 3}, coverage),
            (std::vector<bool>{true, true, true, true, true, true, false}));
  EXPECT_EQ(coverage.equal_releases_both_sides, 3u);
  EXPECT_EQ(coverage.simulated, 3u);
}

TEST(EdfAdmission, CandidateReleasedWhereAPeriodEnds) {
  // [0, 6) is one busy period; a job released at 6 starts its own window
  // (nothing is pending at 6), and jobs released at 5 land inside the
  // period, whose windows absorb the one at 6: `inside` fits around it,
  // `late` then finishes at 9, one tick past its deadline.
  JobSet jobs;
  jobs.add({0, 20, 4, 1.0});
  jobs.add({2, 6, 2, 1.0});
  const JobId at_end = jobs.add({6, 7, 1, 1.0});
  const JobId inside = jobs.add({5, 8, 2, 1.0});
  const JobId late = jobs.add({5, 8, 1, 1.0});
  Coverage coverage;
  EXPECT_EQ(script(jobs, {0, 1, at_end, inside, late}, coverage),
            (std::vector<bool>{true, true, true, true, false}));
  EXPECT_EQ(coverage.at_period_end, 1u);
  EXPECT_EQ(coverage.simulated, 2u);
}

TEST(EdfAdmissionDifferential, WindowsStraddleTheBitsetWords) {
  // 130–200 jobs in short tight runs, one run per 8 ticks, with lax long
  // jobs among them: windows and absorbed periods reach across the rank
  // bitsets' word boundaries at 63/64 and 127/128, and a few very long
  // jobs merge periods from all three words into one.
  const Coverage c = run_family(
      [](Rng& rng) {
        JobSet jobs;
        const std::size_t n = draw_n(rng, 130, 200);
        for (std::size_t i = 0; i < n; ++i) {
          const Time r = 8 * static_cast<Time>(i / 2) + rng.uniform_int(0, 3);
          if (rng.bernoulli(0.02)) {
            const Duration p = rng.uniform_int(150, 500);
            jobs.add({r, r + p + rng.uniform_int(0, 1000), p,
                      static_cast<Value>(rng.uniform_int(1, 20))});
          } else if (rng.bernoulli(0.1)) {
            const Duration p = rng.uniform_int(8, 40);
            jobs.add({r, r + p + rng.uniform_int(0, 80), p,
                      static_cast<Value>(rng.uniform_int(1, 20))});
          } else {
            const Duration p = rng.uniform_int(1, 4);
            jobs.add({r, r + p + rng.uniform_int(0, 6), p,
                      static_cast<Value>(rng.uniform_int(10, 60))});
          }
        }
        return jobs;
      },
      1010, 40);
  expect_every_decision(c);
  EXPECT_GT(c.window_across_64, c.instances);
  EXPECT_GT(c.window_across_128, c.instances);
  EXPECT_GT(c.absorbed_at_word_start, 0u);
  EXPECT_GT(c.merged_across_three_words, 0u);
  EXPECT_GT(c.early_stage_only, 0u);
}

// -------------------------------------------------------- density order ---

/// The greedy's order before it compared exactly: rounded cross-products.
bool rounded_denser_first(const JobSet& jobs, JobId a, JobId b) {
  const double lhs = jobs[a].value * static_cast<double>(jobs[b].length);
  const double rhs = jobs[b].value * static_cast<double>(jobs[a].length);
  return lhs != rhs ? lhs > rhs : a < b;
}

/// Pairs whose rounded cross-products tie, by where they tie, and how many
/// of them the exact comparison ordered against the id.
struct TieCoverage {
  std::size_t overflowed = 0;  ///< both products +inf
  std::size_t subnormal = 0;   ///< both products below DBL_MIN
  std::size_t exact_over_id = 0;
};

/// sort_denser_first, the keyed sort of the seed and LSA, leaves the jobs
/// exactly where std::sort by denser_first does, from a shuffled start.
void expect_keyed_sort_matches(const JobSet& jobs, Rng& rng) {
  std::vector<JobId> want = all_ids(jobs);
  for (std::size_t i = want.size(); i > 1; --i) {
    std::swap(want[i - 1],
              want[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  RadixSort sort;
  sort_denser_first(jobs, want, sort);
  std::vector<JobId> got;
  for (const RadixEntry& e : sort.entries) got.push_back(want[e.payload]);
  std::sort(want.begin(), want.end(),
            [&](JobId a, JobId b) { return denser_first(jobs, a, b); });
  EXPECT_EQ(got, want);
}

/// Irreflexive, asymmetric and transitive over every triple of the jobs,
/// equal to the integer comparison of the exact cross-products (then the
/// id) on every pair, and so to the rounded comparison wherever the
/// rounded products differ.
void expect_strict_total_order(const JobSet& jobs, TieCoverage& ties) {
  const auto before = [&](JobId a, JobId b) {
    return denser_first(jobs, a, b);
  };
  const JobId n = static_cast<JobId>(jobs.size());
  for (JobId a = 0; a < n; ++a) {
    ASSERT_FALSE(before(a, a)) << a;
    for (JobId b = 0; b < n; ++b) {
      if (a == b) continue;
      ASSERT_NE(before(a, b), before(b, a)) << a << " vs " << b;
      ASSERT_EQ(before(a, b), exact_denser_first(jobs, a, b))
          << a << " vs " << b;
      const double lhs = jobs[a].value * static_cast<double>(jobs[b].length);
      const double rhs = jobs[b].value * static_cast<double>(jobs[a].length);
      if (lhs != rhs) {
        ASSERT_EQ(before(a, b), rounded_denser_first(jobs, a, b))
            << a << " vs " << b;
      } else {
        ties.overflowed += std::isinf(lhs);
        ties.subnormal += lhs < std::numeric_limits<double>::min();
        ties.exact_over_id += before(a, b) != (a < b);
      }
      for (JobId c = 0; c < n; ++c) {
        if (before(a, b) && before(b, c)) {
          ASSERT_TRUE(before(a, c)) << a << " < " << b << " < " << c;
        }
      }
    }
  }
}

TEST(DensityOrder, RoundedProductCycleIsOrdered) {
  // Three (p, value) pairs whose rounded cross-products give a < b < c < a
  // — a and b, and b and c, tie and fall to the id; c beats a — a
  // comparator std::sort may not be handed.  Exactly, b is the densest,
  // then c, then a.
  JobSet jobs;
  const JobId a = jobs.add({0, 10'000, 764, 1148.9508510505807});
  const JobId b = jobs.add({0, 10'000, 169, 254.15274061197402});
  const JobId c = jobs.add({0, 10'000, 876, 1317.3834365449068});
  EXPECT_TRUE(rounded_denser_first(jobs, a, b));
  EXPECT_TRUE(rounded_denser_first(jobs, b, c));
  EXPECT_TRUE(rounded_denser_first(jobs, c, a));
  TieCoverage ties;
  expect_strict_total_order(jobs, ties);
  EXPECT_GT(ties.exact_over_id, 0u);
  std::vector<JobId> order = all_ids(jobs);
  std::sort(order.begin(), order.end(),
            [&](JobId x, JobId y) { return denser_first(jobs, x, y); });
  EXPECT_EQ(order, (std::vector<JobId>{b, c, a}));
  Rng rng(3);
  for (int shuffle = 0; shuffle < 6; ++shuffle) {
    expect_keyed_sort_matches(jobs, rng);
  }
}

TEST(DensityOrder, NearTiesFormAStrictTotalOrder) {
  // Values a few ulps from k·p for one density k, so rounded cross-products
  // tie often; lengths up to 2^62, tiny and huge values for the subnormal
  // and overflowing products, and exact duplicates for the id tie-break.
  Rng rng(4242);
  Rng shuffles(77);  // apart from rng, which draws the instances
  TieCoverage ties;
  for (int round = 0; round < 60; ++round) {
    JobSet jobs;
    // Densities whose products land in the subnormal range, near 1, or
    // past DBL_MAX.
    const int scale = static_cast<int>(
        std::array{rng.uniform_int(-1074, -1040), rng.uniform_int(-20, 20),
                   rng.uniform_int(950, 960)}[static_cast<std::size_t>(
            rng.uniform_int(0, 2))]);
    const double density = std::ldexp(rng.uniform_real(1.0, 2.0), scale);
    const std::size_t n = draw_n(rng, 3, 24);
    for (std::size_t i = 0; i < n; ++i) {
      const Duration p = rng.bernoulli(0.3)
                             ? rng.uniform_int(1, 4) << rng.uniform_int(50, 60)
                             : rng.uniform_int(1, 1000);
      double v = density * static_cast<double>(p);
      if (!(v > 0) || !(v <= std::numeric_limits<double>::max())) {
        v = rng.bernoulli(0.5) ? std::numeric_limits<double>::denorm_min()
                               : std::numeric_limits<double>::max();
      }
      for (std::int64_t step = rng.uniform_int(-3, 3); step != 0;
           step += step > 0 ? -1 : 1) {
        v = std::nextafter(v, step > 0 ? std::numeric_limits<double>::max()
                                       : 0.0);
      }
      if (!(v > 0)) v = std::numeric_limits<double>::denorm_min();
      jobs.add({0, kMax, p, v});
      if (rng.bernoulli(0.2)) jobs.add({0, kMax, p, v});
    }
    expect_strict_total_order(jobs, ties);
    expect_keyed_sort_matches(jobs, shuffles);
    ASSERT_FALSE(HasFailure()) << "round " << round;
  }
  EXPECT_GT(ties.overflowed, 0u);
  EXPECT_GT(ties.subnormal, 0u);
  EXPECT_GT(ties.exact_over_id, 0u);
}

/// The density order's oracle, computed apart from src/: std::sort by the
/// exact cross-products (exact_denser_first).
std::vector<JobId> exact_density_order(const JobSet& jobs,
                                       std::vector<JobId> ids) {
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return exact_denser_first(jobs, a, b);
  });
  return ids;
}

/// sort_denser_first over a shuffled candidate list leaves exactly the
/// oracle's order.
void expect_density_order(const JobSet& jobs, Rng& shuffles,
                          RadixSort& sort) {
  std::vector<JobId> ids = all_ids(jobs);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1],
              ids[static_cast<std::size_t>(shuffles.uniform_int(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  sort_denser_first(jobs, ids, sort);
  std::vector<JobId> got;
  for (const RadixEntry& e : sort.entries) got.push_back(ids[e.payload]);
  EXPECT_EQ(got, exact_density_order(jobs, ids)) << jobs.size() << " jobs";
}

TEST(DensityOrder, RadixOrderMatchesTheExactOrderOnTieHeavyFamilies) {
  // Families whose rounded densities tie often — identical jobs, a few
  // power-of-two densities, copies of the rounded-product cycle triple,
  // densities that underflow to 0 and ones next to DBL_MAX — and random
  // densities, for n from 0 to 4096; one warm RadixSort sorts them all.
  Rng rng(8080);
  Rng shuffles(8081);
  RadixSort sort;
  constexpr double kDblMin = std::numeric_limits<double>::min();
  constexpr double kDblMax = std::numeric_limits<double>::max();
  for (const std::size_t n : {0, 1, 2, 3, 7, 64, 65, 300, 1000, 4096}) {
    JobSet identical;
    JobSet few;
    JobSet cycle;
    JobSet tiny;
    JobSet huge;
    JobSet spread;
    for (std::size_t i = 0; i < n; ++i) {
      identical.add({0, kMax, 7, 3.5});
      const Duration p = rng.uniform_int(1, 1000);
      few.add({0, kMax, p,
               static_cast<double>(p) *
                   std::ldexp(1.0, static_cast<int>(rng.uniform_int(-1, 1)))});
      const std::array<Job, 3> triple{
          Job{0, 10'000, 764, 1148.9508510505807},
          Job{0, 10'000, 169, 254.15274061197402},
          Job{0, 10'000, 876, 1317.3834365449068}};
      cycle.add(triple[i % 3]);
      tiny.add({0, kMax, rng.uniform_int(1, 1 << 20),
                kDblMin * std::ldexp(1.0, -static_cast<int>(
                                              rng.uniform_int(0, 52)))});
      huge.add({0, kMax, rng.uniform_int(1, 3),
                kDblMax / static_cast<double>(rng.uniform_int(1, 4))});
      spread.add({0, kMax, rng.uniform_int(1, 1 << 30),
                  std::ldexp(rng.uniform_real(1.0, 2.0),
                             static_cast<int>(rng.uniform_int(-1070, 1020)))});
    }
    for (const JobSet* jobs :
         {&identical, &few, &cycle, &tiny, &huge, &spread}) {
      expect_density_order(*jobs, shuffles, sort);
    }
    ASSERT_FALSE(HasFailure()) << "n " << n;
  }
}

// ---------------------------------------------------------------- ranking ---

/// The ranking's oracle: (release, id) pairs sorted by std::sort.
std::vector<JobId> release_id_order(const JobSet& jobs,
                                    std::span<const JobId> ids) {
  std::vector<std::pair<Time, JobId>> pairs;
  for (const JobId id : ids) pairs.push_back({jobs[id].release, id});
  std::sort(pairs.begin(), pairs.end());
  std::vector<JobId> out;
  for (const auto& [release, id] : pairs) out.push_back(id);
  return out;
}

TEST(EdfAdmissionRanking, MatchesASortOfReleaseIdPairs) {
  // Releases from a handful of ticks (long equal-release runs), spanning
  // past 2^32, next to INT64_MIN, next to INT64_MAX, and at both limits in
  // one set; candidates ascending, shuffled, or a gapped subset either
  // way.  One warm RadixSort and EdfAdmission rank every case.
  Rng rng(5150);
  EdfAdmission admission;
  RadixSort sort;
  const auto release_in = [&](int family) -> Time {
    switch (family) {
      case 0: return rng.uniform_int(0, 7);
      case 1: return rng.uniform_int(-(Time{1} << 40), Time{1} << 40);
      case 2: return kMin + rng.uniform_int(0, 1000);
      case 3: return kMax - 10 - rng.uniform_int(0, 1000);
      default:
        return rng.bernoulli(0.5) ? kMin + rng.uniform_int(0, 3)
                                  : kMax - 10 - rng.uniform_int(0, 3);
    }
  };
  for (const std::size_t n : {1, 2, 3, 63, 64, 65, 300, 2000, 0}) {
    for (int family = 0; family < 5; ++family) {
      JobSet jobs;
      for (std::size_t i = 0; i < n; ++i) {
        const Time r = release_in(family);
        const Duration p = rng.uniform_int(1, 5);
        jobs.add({r, r + p + rng.uniform_int(0, 4), p, 1.0});
      }
      for (int list = 0; list < 4; ++list) {
        std::vector<JobId> ids;
        for (JobId id = 0; id < n; ++id) {
          if (list < 2 || rng.bernoulli(0.6)) ids.push_back(id);
        }
        if (list % 2 == 1) {
          for (std::size_t i = ids.size(); i > 1; --i) {
            std::swap(ids[i - 1],
                      ids[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(i) - 1))]);
          }
        }
        admission.rank(jobs, ids, sort);
        const std::vector<JobId> got(admission.ids().begin(),
                                     admission.ids().end());
        ASSERT_EQ(got, release_id_order(jobs, ids))
            << "n " << n << ", family " << family << ", list " << list;
      }
    }
  }
}

TEST(EdfAdmissionDeath, RepeatedCandidateAborts) {
  // The repeat's window [0, 2) ends long before its deadline: the accept
  // bound would admit it a second time without simulating.
  JobSet jobs;
  jobs.add({0, 100, 1, 1.0});
  Ranked ranked(jobs);
  ASSERT_TRUE(ranked.try_admit(0));
  EXPECT_DEATH((void)ranked.try_admit(0), "already admitted");
}

TEST(EdfAdmissionDeath, RepeatedCandidateIdAbortsTheRanking) {
  JobSet jobs;
  jobs.add({0, 100, 1, 1.0});
  jobs.add({0, 100, 1, 1.0});
  EdfAdmission admission;
  RadixSort sort;
  // Out of order, and already ascending (no id passes).
  EXPECT_DEATH(admission.rank(jobs, std::vector<JobId>{1, 0, 1}, sort),
               "duplicate job id");
  EXPECT_DEATH(admission.rank(jobs, std::vector<JobId>{0, 1, 1}, sort),
               "duplicate job id");
}

}  // namespace
}  // namespace pobp
