#include "pobp/schedule/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "pobp/diag/registry.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/util/radix.hpp"

namespace pobp {
namespace {

namespace rules = diag::rules;

std::string describe(JobId id, const Job& j) {
  std::ostringstream os;
  os << "job#" << id << " ⟨r=" << j.release << ", d=" << j.deadline
     << ", p=" << j.length << ", val=" << j.value << "⟩";
  return os.str();
}

diag::Location job_loc(std::optional<std::size_t> machine, JobId job) {
  diag::Location loc;
  loc.machine = machine;
  loc.job = job;
  return loc;
}

diag::Location segment_loc(std::optional<std::size_t> machine, JobId job,
                           std::size_t index, const Segment& s) {
  diag::Location loc = job_loc(machine, job);
  loc.segment = index;
  loc.begin = s.begin;
  loc.end = s.end;
  return loc;
}

/// Cross-job machine exclusivity over an explicit timeline (POBP-SCHED-008).
/// Reports every adjacent overlapping pair.
void diagnose_exclusivity(
    const std::vector<MachineSchedule::TaggedSegment>& timeline,
    diag::Report& report, std::optional<std::size_t> machine) {
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    const auto& prev = timeline[i - 1];
    const auto& cur = timeline[i];
    if (prev.segment.end <= cur.segment.begin) continue;
    std::ostringstream os;
    os << "machine conflict: job#" << prev.job << " [" << prev.segment.begin
       << ", " << prev.segment.end << ") overlaps job#" << cur.job << " ["
       << cur.segment.begin << ", " << cur.segment.end << ")";
    diag::Location loc;
    loc.machine = machine;
    loc.job = cur.job;
    loc.begin = cur.segment.begin;
    loc.end = std::min(prev.segment.end, cur.segment.end);
    report.add(std::string(rules::kSchedMachineConflict), os.str(), loc)
        .with("other_job", static_cast<std::int64_t>(prev.job));
  }
}

}  // namespace

void diagnose_assignment(const JobSet& jobs, const Assignment& a,
                         std::size_t k, diag::Report& report,
                         std::optional<std::size_t> machine) {
  if (a.job >= jobs.size()) {
    report
        .add(std::string(rules::kSchedUnknownJob),
             "assignment references unknown job id",
             job_loc(machine, a.job))
        .with("job_count", jobs.size());
    return;  // nothing else is checkable without the job's parameters
  }
  const Job& job = jobs[a.job];
  if (a.segments.empty()) {
    report.add(std::string(rules::kSchedEmptyAssignment),
               describe(a.job, job) + ": empty segment list",
               job_loc(machine, a.job));
    return;
  }

  // Per-segment rules: positive length (POBP-SCHED-003) and window
  // containment (POBP-SCHED-005).  Empty segments are excluded from the
  // ordering check below so one defect does not masquerade as another.
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    const Segment& s = a.segments[i];
    if (s.empty()) {
      std::ostringstream os;
      os << describe(a.job, job) << ": segment [" << s.begin << ", " << s.end
         << ") is empty (begin >= end)";
      report.add(std::string(rules::kSchedEmptySegment), os.str(),
                 segment_loc(machine, a.job, i, s));
    }
    if (s.begin < job.release || s.end > job.deadline) {
      std::ostringstream os;
      os << describe(a.job, job) << ": segment [" << s.begin << ", " << s.end
         << ") outside the job window";
      report
          .add(std::string(rules::kSchedWindowEscape), os.str(),
               segment_loc(machine, a.job, i, s))
          .with("release", job.release)
          .with("deadline", job.deadline);
    }
  }

  // Sortedness / intra-job disjointness over the non-empty segments
  // (POBP-SCHED-004), one finding per offending adjacent pair.
  std::size_t prev = a.segments.size();
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    if (a.segments[i].empty()) continue;
    if (prev != a.segments.size() &&
        a.segments[prev].end > a.segments[i].begin) {
      std::ostringstream os;
      os << describe(a.job, job) << ": segment [" << a.segments[i].begin
         << ", " << a.segments[i].end << ") not sorted/disjoint with ["
         << a.segments[prev].begin << ", " << a.segments[prev].end << ")";
      report.add(std::string(rules::kSchedUnsortedSegments), os.str(),
                 segment_loc(machine, a.job, i, a.segments[i]));
    }
    prev = i;
  }

  if (total_length(a.segments) != job.length) {
    std::ostringstream os;
    os << describe(a.job, job) << ": scheduled " << total_length(a.segments)
       << " units, expected " << job.length;
    report
        .add(std::string(rules::kSchedLengthMismatch), os.str(),
             job_loc(machine, a.job))
        .with("scheduled", total_length(a.segments))
        .with("expected", job.length);
  }
  // Preemptions are counted over the non-empty segments only: an empty
  // segment is already reported by POBP-SCHED-003 and carries no work, so
  // it should not also read as a preemption.
  const std::size_t real_segments = static_cast<std::size_t>(
      std::count_if(a.segments.begin(), a.segments.end(),
                    [](const Segment& s) { return !s.empty(); }));
  const std::size_t preemptions = real_segments == 0 ? 0 : real_segments - 1;
  if (k != kUnboundedPreemptions && preemptions > k) {
    std::ostringstream os;
    os << describe(a.job, job) << ": " << preemptions
       << " preemptions exceed the bound k=" << k;
    report
        .add(std::string(rules::kSchedPreemptionBudget), os.str(),
             job_loc(machine, a.job))
        .with("preemptions", preemptions)
        .with("k", k);
  }
}

void diagnose_assignments(const JobSet& jobs,
                          std::span<const Assignment> assignments,
                          std::size_t k, diag::Report& report,
                          std::optional<std::size_t> machine) {
  for (const Assignment& a : assignments) {
    diagnose_assignment(jobs, a, k, report, machine);
  }
  // Machine exclusivity over all non-empty segments, sorted by begin.
  std::vector<MachineSchedule::TaggedSegment> timeline;
  for (const Assignment& a : assignments) {
    for (const Segment& s : a.segments) {
      if (!s.empty()) timeline.push_back({s, a.job});
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const MachineSchedule::TaggedSegment& a,
                      const MachineSchedule::TaggedSegment& b) {
                     return a.segment.begin < b.segment.begin;
                   });
  diagnose_exclusivity(timeline, report, machine);
}

void diagnose_machine(const JobSet& jobs, const MachineSchedule& ms,
                      std::size_t k, diag::Report& report,
                      std::optional<std::size_t> machine) {
  diagnose_assignments(jobs, ms.assignments(), k, report, machine);
}

namespace {

/// Non-migration bookkeeping shared by the normalized and raw paths.
class MigrationTracker {
 public:
  explicit MigrationTracker(diag::Report& report) : report_(&report) {}

  void see(JobId job, std::size_t machine) {
    const auto [it, inserted] = first_machine_.emplace(job, machine);
    if (inserted) return;
    diag::Location loc;
    loc.machine = machine;
    loc.job = job;
    report_
        ->add(std::string(rules::kSchedMigration),
              "job#" + std::to_string(job) +
                  " scheduled on more than one machine (migration forbidden)",
              loc)
        .with("first_machine", it->second);
  }

 private:
  diag::Report* report_;
  // Findings anchor on the deterministic scan order of the schedule,
  // never on bucket order.
  // POBP-SRC-010: membership/lookup only; iteration order never observed
  std::unordered_map<JobId, std::size_t> first_machine_;
};

}  // namespace

void diagnose_schedule(const JobSet& jobs, const Schedule& schedule,
                       std::size_t k, diag::Report& report) {
  MigrationTracker migration(report);
  for (std::size_t m = 0; m < schedule.machine_count(); ++m) {
    diagnose_machine(jobs, schedule.machine(m), k, report, m);
    for (const Assignment& a : schedule.machine(m).assignments()) {
      migration.see(a.job, m);
    }
  }
}

void diagnose_raw_schedule(const JobSet& jobs,
                           std::span<const std::vector<Assignment>> machines,
                           std::size_t k, diag::Report& report) {
  MigrationTracker migration(report);
  for (std::size_t m = 0; m < machines.size(); ++m) {
    diagnose_assignments(jobs, machines[m], k, report, m);
    for (const Assignment& a : machines[m]) migration.see(a.job, m);
  }
}

namespace {

/// Per-segment checks of one assignment (POBP-SCHED-003/004/005) plus the
/// scheduled-length sum, verdict only.
bool segments_fast(const std::vector<Segment>& segs, Time release,
                   Time deadline, Duration expected_length) {
  Duration scheduled = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const Segment& seg = segs[i];
    if (seg.empty()) return false;                // POBP-SCHED-003
    if (seg.begin < release || seg.end > deadline) {
      return false;                               // POBP-SCHED-005
    }
    if (i > 0 && segs[i - 1].end > seg.begin) {
      return false;                               // POBP-SCHED-004
    }
    scheduled += seg.length();
  }
  return scheduled == expected_length;            // POBP-SCHED-006
}

/// One machine's share of validate_fast: the same predicates
/// diagnose_machine checks, first failure wins.  Schedules reaching this
/// path are MachineSchedule-built (normalized), but nothing here assumes
/// it — the verdict matches the diagnostics engine either way.
bool validate_machine_fast(const JobSet& jobs, const MachineSchedule& ms,
                           std::size_t k, ValidateScratch& s) {
  Time earliest = std::numeric_limits<Time>::max();
  for (const Assignment& a : ms.assignments()) {
    if (a.job >= jobs.size()) return false;       // POBP-SCHED-001
    const Job& job = jobs[a.job];
    if (a.segments.empty()) return false;         // POBP-SCHED-002
    if (!segments_fast(a.segments, job.release, job.deadline, job.length)) {
      return false;                               // POBP-SCHED-003..006
    }
    // All segments are non-empty past segments_fast.
    const std::size_t preemptions = a.segments.size() - 1;
    if (k != kUnboundedPreemptions && preemptions > k) {
      return false;                               // POBP-SCHED-007
    }
    // Sorted past segments_fast: the first segment begins earliest.
    earliest = std::min(earliest, a.segments.front().begin);
  }
  // Machine exclusivity (POBP-SCHED-008): with the timeline sorted by
  // begin, adjacent disjointness implies pairwise disjointness — and the
  // verdict is independent of the tie order among equal begins (two
  // non-empty segments with the same begin always overlap).  Each entry is
  // keyed by its begin above the machine's earliest and carries the
  // segment's index into `ends`.
  auto& sweep = s.sweep.entries;
  auto& ends = s.sweep_end;
  sweep.clear();
  ends.clear();
  for (const Assignment& a : ms.assignments()) {
    for (const Segment& seg : a.segments) {
      sweep.push_back({.key = radix_offset(seg.begin, earliest),
                       .payload = static_cast<std::uint32_t>(ends.size())});
      ends.push_back(seg.end);
    }
  }
  POBP_ASSERT(ends.size() <= std::numeric_limits<std::uint32_t>::max());
  s.sweep.sort();
  std::uint64_t prev_end = 0;  // as an offset from `earliest`
  for (const RadixEntry& entry : sweep) {
    if (prev_end > entry.key) return false;
    prev_end = radix_offset(ends[entry.payload], earliest);
  }
  return true;
}

}  // namespace

bool validate_fast(const JobSet& jobs, const Schedule& schedule, std::size_t k,
                   ValidateScratch& scratch) {
  POBP_FAULT_POINT(kValidate);
  if (scratch.seen.size() < jobs.size()) scratch.seen.resize(jobs.size(), 0);
  scratch.touched.clear();
  bool ok = true;
  for (std::size_t m = 0; ok && m < schedule.machine_count(); ++m) {
    const MachineSchedule& ms = schedule.machine(m);
    if (!validate_machine_fast(jobs, ms, k, scratch)) {
      ok = false;
      break;
    }
    // Non-migration (POBP-SCHED-009); job ids are in range per the machine
    // check above.
    for (const Assignment& a : ms.assignments()) {
      if (scratch.seen[a.job] != 0) {
        ok = false;
        break;
      }
      scratch.seen[a.job] = 1;
      scratch.touched.push_back(a.job);
    }
  }
  for (const JobId id : scratch.touched) scratch.seen[id] = 0;
  return ok;
}

ValidationResult validate_machine(const JobSet& jobs,
                                  const MachineSchedule& ms, std::size_t k) {
  diag::Report report;
  diagnose_machine(jobs, ms, k, report);
  if (report.ok()) return {};
  return ValidationResult::failure(report.first_error());
}

ValidationResult validate(const JobSet& jobs, const Schedule& schedule,
                          std::size_t k) {
  POBP_FAULT_POINT(kValidate);
  diag::Report report;
  diagnose_schedule(jobs, schedule, k, report);
  if (report.ok()) return {};
  for (const diag::Diagnostic& d : report.diagnostics()) {
    if (d.severity != diag::Severity::kError) continue;
    // Historical format: machine-scoped failures carry a "machine N: "
    // prefix; the migration rule's message already names the job.
    if (d.where.machine && d.rule != rules::kSchedMigration) {
      return ValidationResult::failure(
          "machine " + std::to_string(*d.where.machine) + ": " + d.message);
    }
    return ValidationResult::failure(d.message);
  }
  return {};
}

}  // namespace pobp
