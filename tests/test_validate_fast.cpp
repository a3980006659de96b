// Differential tests for validate_fast, the engine's per-solve verdict.
//
// Every verdict must equal validate()'s — the diagnostics engine — on
// valid EDF (greedy seed) and LSA_CS schedules and on one mutation of each
// kind: cross-job overlap, a segment outside its job's window, the wrong
// total length, the preemption budget exceeded, migration and an unknown
// job id.  Each mutation must also make validate() report exactly the rule
// it exists for, so the differential has teeth.  Every instance runs on
// several time axes: as generated, shifted to negative begins, next to
// INT64_MIN and to INT64_MAX, and stretched so that its begins span more
// than 2^32 ticks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "pobp/diag/registry.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

namespace rules = diag::rules;

constexpr Time kMax = std::numeric_limits<Time>::max();
constexpr Time kMin = std::numeric_limits<Time>::min();

/// A job set and a schedule of it.
struct Instance {
  JobSet jobs;
  Schedule schedule;
};

/// t ↦ offset + scale·t on every release, deadline and segment end, and
/// p ↦ scale·p: feasibility and every violation are preserved.
struct Axis {
  std::string_view name;
  Time offset = 0;
  Time scale = 1;
};

/// The axes a base instance with times in [0, horizon] runs on.
std::vector<Axis> axes(Time horizon) {
  constexpr Time kStretch = Time{1} << 22;  // 2^22 · horizon > 2^32
  return {
      {"as generated", 0, 1},
      {"negative", -horizon / 2 - 7, 1},
      {"near INT64_MIN", kMin + 3, 1},
      {"near INT64_MAX", kMax - horizon - 3, 1},
      {"spanning 2^32", -(horizon / 3) * kStretch, kStretch},
      {"spanning 2^32 near INT64_MAX", kMax - horizon * kStretch - 3,
       kStretch},
  };
}

Instance on_axis(const Instance& base, const Axis& axis) {
  const auto at = [&](Time t) { return axis.offset + axis.scale * t; };
  Instance out;
  for (const Job& j : base.jobs) {
    out.jobs.add({at(j.release), at(j.deadline), axis.scale * j.length,
                  j.value});
  }
  out.schedule.reset(base.schedule.machine_count());
  for (std::size_t m = 0; m < base.schedule.machine_count(); ++m) {
    for (const Assignment& a : base.schedule.machine(m).assignments()) {
      Assignment moved{a.job, {}};
      for (const Segment& s : a.segments) {
        moved.segments.push_back({at(s.begin), at(s.end)});
      }
      out.schedule.machine(m).add(moved);
    }
  }
  return out;
}

/// validate_fast's verdict, on a scratch reused across every call, must
/// equal validate()'s; returns the rule ids validate() reports.
std::vector<std::string> expect_same_verdict(const Instance& inst,
                                             std::size_t k,
                                             ValidateScratch& scratch) {
  diag::Report report;
  diagnose_schedule(inst.jobs, inst.schedule, k, report);
  const bool fast = validate_fast(inst.jobs, inst.schedule, k, scratch);
  EXPECT_EQ(fast, static_cast<bool>(validate(inst.jobs, inst.schedule, k)));
  EXPECT_EQ(fast, report.ok());
  std::vector<std::string> found;
  for (const diag::Diagnostic& d : report.diagnostics()) {
    if (d.severity == diag::Severity::kError) found.push_back(d.rule);
  }
  return found;
}

/// The mutation of `inst` must be rejected by both validators, and
/// validate() must name `rule` and no other.
void expect_rejected_for(const Instance& mutated, std::size_t k,
                         std::string_view rule, ValidateScratch& scratch) {
  const std::vector<std::string> found =
      expect_same_verdict(mutated, k, scratch);
  ASSERT_FALSE(found.empty()) << rule;
  for (const std::string& id : found) EXPECT_EQ(id, rule);
}

/// A copy of `jobs` with job `id` replaced by `job`.
JobSet with_job(const JobSet& jobs, JobId id, const Job& job) {
  JobSet out;
  for (JobId j = 0; j < jobs.size(); ++j) out.add(j == id ? job : jobs[j]);
  return out;
}

/// A machine with at least one job, and a segment on it.
struct Pick {
  std::size_t machine = 0;
  const Assignment* assignment = nullptr;
  Segment segment;
};

Pick pick_segment(const Schedule& schedule, Rng& rng) {
  std::vector<Pick> all;
  for (std::size_t m = 0; m < schedule.machine_count(); ++m) {
    for (const Assignment& a : schedule.machine(m).assignments()) {
      for (const Segment& s : a.segments) all.push_back({m, &a, s});
    }
  }
  return all[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))];
}

/// How many mutations of each kind ran.
struct Coverage {
  std::size_t overlap = 0;
  std::size_t window = 0;
  std::size_t length = 0;
  std::size_t budget = 0;
  std::size_t migration = 0;
  std::size_t unknown = 0;

  void expect_every_kind() const {
    EXPECT_GT(overlap, 0u);
    EXPECT_GT(window, 0u);
    EXPECT_GT(length, 0u);
    EXPECT_GT(budget, 0u);
    EXPECT_GT(migration, 0u);
    EXPECT_GT(unknown, 0u);
  }
};

/// Runs the valid schedule and each mutation kind through both validators.
void check_all_mutations(const Instance& inst, std::size_t k, Rng& rng,
                         ValidateScratch& scratch, Coverage& ran) {
  ASSERT_TRUE(expect_same_verdict(inst, k, scratch).empty());
  if (inst.schedule.job_count() == 0) return;
  const std::size_t n = inst.jobs.size();

  {  // Cross-job overlap: a new job, wide enough for its one segment,
     // placed over part of an existing segment (or all of it, same begin).
    const Pick pick = pick_segment(inst.schedule, rng);
    Instance mutated{inst.jobs, inst.schedule};
    Segment over = pick.segment;
    if (over.length() >= 2 && rng.bernoulli(0.5)) {
      over.begin += over.length() / 2;
    }
    mutated.jobs.add({over.begin, over.end, over.length(), 1.0});
    mutated.schedule.machine(pick.machine)
        .add({static_cast<JobId>(n), {over}});
    expect_rejected_for(mutated, k, rules::kSchedMachineConflict, scratch);
    ++ran.overlap;
  }

  {  // A segment outside the window: the schedule as is, one job's window
     // narrowed past its first begin or its last end.
    for (int attempt = 0; attempt < 16; ++attempt) {
      const Pick pick = pick_segment(inst.schedule, rng);
      const Assignment& a = *pick.assignment;
      Job job = inst.jobs[a.job];
      if (rng.bernoulli(0.5)) {
        job.release = a.segments.front().begin + 1;
      } else {
        job.deadline = a.segments.back().end - 1;
      }
      if (!job.well_formed()) continue;
      const Instance mutated{with_job(inst.jobs, a.job, job), inst.schedule};
      expect_rejected_for(mutated, k, rules::kSchedWindowEscape, scratch);
      ++ran.window;
      break;
    }
  }

  {  // The wrong total length.
    const Pick pick = pick_segment(inst.schedule, rng);
    Job job = inst.jobs[pick.assignment->job];
    job.length += job.length > 1 && rng.bernoulli(0.5) ? -1 : 1;
    if (job.well_formed()) {
      const Instance mutated{with_job(inst.jobs, pick.assignment->job, job),
                             inst.schedule};
      expect_rejected_for(mutated, k, rules::kSchedLengthMismatch, scratch);
      ++ran.length;
    }
  }

  {  // The preemption budget exceeded: one less than the schedule uses.
    const std::size_t used = inst.schedule.max_preemptions();
    if (used > 0) {
      expect_rejected_for(inst, used - 1, rules::kSchedPreemptionBudget,
                          scratch);
      ++ran.budget;
    }
  }

  {  // Migration: a job's assignment copied onto a machine of its own.
    const Pick pick = pick_segment(inst.schedule, rng);
    Instance mutated{inst.jobs, Schedule(inst.schedule.machine_count() + 1)};
    for (std::size_t m = 0; m < inst.schedule.machine_count(); ++m) {
      mutated.schedule.machine(m) = inst.schedule.machine(m);
    }
    mutated.schedule.machine(inst.schedule.machine_count())
        .add(*pick.assignment);
    expect_rejected_for(mutated, k, rules::kSchedMigration, scratch);
    ++ran.migration;
  }

  {  // An unknown job id, on a machine of its own.
    const Pick pick = pick_segment(inst.schedule, rng);
    Instance mutated{inst.jobs, Schedule(inst.schedule.machine_count() + 1)};
    for (std::size_t m = 0; m < inst.schedule.machine_count(); ++m) {
      mutated.schedule.machine(m) = inst.schedule.machine(m);
    }
    mutated.schedule.machine(inst.schedule.machine_count())
        .add({static_cast<JobId>(n), {pick.segment}});
    expect_rejected_for(mutated, k, rules::kSchedUnknownJob, scratch);
    ++ran.unknown;
  }
}

JobSet random_instance(Rng& rng, Time horizon) {
  JobGenConfig config;
  config.n = static_cast<std::size_t>(rng.uniform_int(4, 60));
  config.max_length = 64;
  config.max_laxity = rng.bernoulli(0.5) ? 2.0 : 8.0;
  config.horizon = horizon;
  return random_jobs(config, rng);
}

constexpr Time kHorizon = 4096;

TEST(ValidateFast, MatchesValidateOnEdfSchedulesAndTheirMutations) {
  Rng rng(2024);
  ValidateScratch scratch;
  Coverage ran;
  for (int round = 0; round < 40; ++round) {
    const JobSet jobs = random_instance(rng, kHorizon);
    const auto machines = static_cast<std::size_t>(rng.uniform_int(1, 3));
    const Instance base{jobs,
                        greedy_infinity_multi(jobs, all_ids(jobs), machines)};
    for (const Axis& axis : axes(kHorizon)) {
      SCOPED_TRACE(std::string(axis.name) + ", round " +
                   std::to_string(round));
      const Instance inst = on_axis(base, axis);
      check_all_mutations(inst, kUnboundedPreemptions, rng, scratch, ran);
      check_all_mutations(inst, inst.schedule.max_preemptions(), rng,
                          scratch, ran);
      ASSERT_FALSE(HasFailure());
    }
  }
  ran.expect_every_kind();
}

TEST(ValidateFast, MatchesValidateOnLsaSchedulesAndTheirMutations) {
  Rng rng(4048);
  ValidateScratch scratch;
  Coverage ran;
  for (int round = 0; round < 40; ++round) {
    const JobSet jobs = random_instance(rng, kHorizon);
    const auto machines = static_cast<std::size_t>(rng.uniform_int(1, 3));
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 3));
    const Instance base{jobs, lsa_cs_multi(jobs, all_ids(jobs), k, machines)};
    for (const Axis& axis : axes(kHorizon)) {
      SCOPED_TRACE(std::string(axis.name) + ", round " +
                   std::to_string(round));
      check_all_mutations(on_axis(base, axis), k, rng, scratch, ran);
      ASSERT_FALSE(HasFailure());
    }
  }
  ran.expect_every_kind();
}

TEST(ValidateFast, EqualBeginsOverlapWhateverTheirOrder) {
  // Two one-tick segments of different jobs at the same begin, near both
  // ends of the int64 range and more than 2^32 apart from a third.
  for (const Time base : {kMin, Time{-5}, kMax - 10}) {
    JobSet jobs;
    jobs.add({base, base + 10, 1, 1.0});
    jobs.add({base, base + 10, 1, 1.0});
    for (const JobId first : {JobId{0}, JobId{1}}) {
      Schedule schedule(1);
      schedule.machine(0).add({first, {{base + 3, base + 4}}});
      schedule.machine(0).add({1 - first, {{base + 3, base + 4}}});
      ValidateScratch scratch;
      EXPECT_FALSE(
          validate_fast(jobs, schedule, kUnboundedPreemptions, scratch));
      EXPECT_FALSE(validate(jobs, schedule));
    }
  }
}

}  // namespace
}  // namespace pobp
