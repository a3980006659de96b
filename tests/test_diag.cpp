// Tests for the diagnostics engine: every failure branch of every checker
// must emit its stable rule id (pobp/diag/registry.hpp), multi-violation
// inputs must report *all* violations, and the first-failure shims must
// stay faithful to the Report they wrap.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/diag/registry.hpp"
#include "pobp/diag/render.hpp"
#include "pobp/forest/bas.hpp"
#include "pobp/schedule/interval_condition.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/schedule/validate.hpp"

namespace pobp {
namespace {

using diag::Report;
using diag::Severity;
namespace rules = diag::rules;

JobSet two_jobs() {
  JobSet jobs;
  jobs.add({0, 10, 4, 1.0});  // job 0
  jobs.add({2, 20, 6, 2.0});  // job 1
  return jobs;
}

// --- registry ---------------------------------------------------------------

TEST(DiagRegistry, CatalogueIsSortedAndComplete) {
  const auto all = diag::all_rules();
  ASSERT_FALSE(all.empty());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const diag::RuleInfo& a,
                                const diag::RuleInfo& b) { return a.id < b.id; }));
  for (const auto& rule : all) {
    EXPECT_FALSE(rule.title.empty()) << rule.id;
    EXPECT_FALSE(rule.paper_ref.empty()) << rule.id;
    EXPECT_FALSE(rule.description.empty()) << rule.id;
  }
}

TEST(DiagRegistry, EveryNamedIdResolves) {
  for (std::string_view id :
       {rules::kSchedUnknownJob, rules::kSchedEmptyAssignment,
        rules::kSchedEmptySegment, rules::kSchedUnsortedSegments,
        rules::kSchedWindowEscape, rules::kSchedLengthMismatch,
        rules::kSchedPreemptionBudget, rules::kSchedMachineConflict,
        rules::kSchedMigration, rules::kLaminarInterleaving,
        rules::kBasMaskSize, rules::kBasAncestorDependence,
        rules::kBasDegreeOverflow, rules::kJobMalformed,
        rules::kIntervalOverload, rules::kGenParamDomain,
        rules::kGenOverflow}) {
    const auto* info = diag::find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->id, id);
  }
  EXPECT_EQ(diag::find_rule("POBP-NOPE-001"), nullptr);
}

// --- Report mechanics -------------------------------------------------------

TEST(DiagReport, SeverityDefaultsFromRegistryAndCanBeOverridden) {
  Report report;
  report.add(std::string(rules::kSchedWindowEscape), "escape");
  report.add(std::string(rules::kIntervalOverload), Severity::kWarning,
             "overload");
  report.add("POBP-NOPE-001", "unknown rules default to error");
  ASSERT_EQ(report.size(), 3u);
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kError);
  EXPECT_EQ(report.diagnostics()[1].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics()[2].severity, Severity::kError);
  EXPECT_EQ(report.error_count(), 2u);
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.first_error(), "escape");
}

TEST(DiagReport, WarningsAloneAreOk) {
  Report report;
  report.add(std::string(rules::kIntervalOverload), Severity::kWarning, "w");
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.first_error(), "");
}

TEST(DiagReport, CountByRuleAndRuleIds) {
  Report report;
  report.add(std::string(rules::kSchedWindowEscape), "a");
  report.add(std::string(rules::kSchedWindowEscape), "b");
  report.add(std::string(rules::kLaminarInterleaving), "c");
  EXPECT_EQ(report.count(rules::kSchedWindowEscape), 2u);
  EXPECT_EQ(report.count(rules::kLaminarInterleaving), 1u);
  EXPECT_EQ(report.count(rules::kSchedMigration), 0u);
  const auto ids = report.rule_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], rules::kSchedWindowEscape);
  EXPECT_EQ(ids[1], rules::kLaminarInterleaving);
}

TEST(DiagReport, MergeAppendsPreservingOrder) {
  Report a;
  a.add(std::string(rules::kSchedWindowEscape), "first");
  Report b;
  b.add(std::string(rules::kLaminarInterleaving), "second");
  a.merge(std::move(b));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.diagnostics()[1].message, "second");
}

TEST(DiagReport, PayloadChainingAndLocationRendering) {
  Report report;
  diag::Location where;
  where.machine = 0;
  where.job = 3;
  where.segment = 2;
  where.begin = 4;
  where.end = 9;
  auto& d = report.add(std::string(rules::kSchedWindowEscape), "msg", where)
                .with("release", std::int64_t{7})
                .with("kind", "window");
  ASSERT_EQ(d.payload.size(), 2u);
  EXPECT_EQ(d.payload[0].second, "7");
  const std::string loc = where.to_string();
  EXPECT_NE(loc.find("machine 0"), std::string::npos);
  EXPECT_NE(loc.find("job#3"), std::string::npos);
  const std::string line = d.to_string();
  EXPECT_NE(line.find("POBP-SCHED-005"), std::string::npos);
  EXPECT_NE(line.find("error"), std::string::npos);
}

// --- Def. 2.1 schedule rules ------------------------------------------------

TEST(DiagSchedule, UnknownJobStopsFurtherChecks) {
  Report report;
  diagnose_assignment(two_jobs(), Assignment{7, {{0, 1}}}, 0, report);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].rule, rules::kSchedUnknownJob);
}

TEST(DiagSchedule, EmptyAssignmentList) {
  Report report;
  diagnose_assignment(two_jobs(), Assignment{0, {}}, 0, report);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].rule, rules::kSchedEmptyAssignment);
}

TEST(DiagSchedule, EmptySegmentDoesNotAlsoChargeTheBudget) {
  // job0: p = 4, window [0, 10).  One empty segment among two real ones:
  // rule 003 fires once, and with k = 1 the two *non-empty* segments are
  // within budget, so 007 must stay silent — one defect, one finding.
  Report report;
  diagnose_assignment(two_jobs(), Assignment{0, {{0, 2}, {5, 5}, {8, 10}}}, 1,
                      report);
  EXPECT_EQ(report.count(rules::kSchedEmptySegment), 1u);
  EXPECT_EQ(report.count(rules::kSchedPreemptionBudget), 0u);
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(DiagSchedule, ReversedSegmentIsEmptySegmentRule) {
  Report report;
  diagnose_assignment(two_jobs(), Assignment{0, {{6, 2}}}, 0, report);
  EXPECT_EQ(report.count(rules::kSchedEmptySegment), 1u);
}

TEST(DiagSchedule, UnsortedAndOverlappingSegments) {
  Report report;
  diagnose_assignment(two_jobs(), Assignment{1, {{8, 11}, {2, 5}}}, 1, report);
  EXPECT_GE(report.count(rules::kSchedUnsortedSegments), 1u);

  Report overlap;
  diagnose_assignment(two_jobs(), Assignment{1, {{2, 6}, {4, 6}}}, 1, overlap);
  EXPECT_GE(overlap.count(rules::kSchedUnsortedSegments), 1u);
}

TEST(DiagSchedule, WindowEscapeBothSides) {
  Report report;
  // job1 window is [2, 20): one segment starts early, one ends late.
  diagnose_assignment(two_jobs(), Assignment{1, {{0, 3}, {18, 21}}}, 1, report);
  EXPECT_EQ(report.count(rules::kSchedWindowEscape), 2u);
}

TEST(DiagSchedule, LengthMismatch) {
  Report report;
  diagnose_assignment(two_jobs(), Assignment{0, {{0, 3}}}, 0, report);
  ASSERT_EQ(report.count(rules::kSchedLengthMismatch), 1u);
  const auto& d = *std::find_if(
      report.diagnostics().begin(), report.diagnostics().end(),
      [](const auto& x) { return x.rule == rules::kSchedLengthMismatch; });
  EXPECT_NE(d.message.find("expected 4"), std::string::npos);
}

TEST(DiagSchedule, PreemptionBudget) {
  Report report;
  diagnose_assignment(two_jobs(), Assignment{1, {{2, 4}, {6, 8}, {10, 12}}}, 1,
                      report);
  EXPECT_EQ(report.count(rules::kSchedPreemptionBudget), 1u);

  Report within;
  diagnose_assignment(two_jobs(), Assignment{1, {{2, 4}, {6, 8}, {10, 12}}}, 2,
                      within);
  EXPECT_EQ(within.count(rules::kSchedPreemptionBudget), 0u);
  EXPECT_TRUE(within.ok());

  Report unbounded;
  diagnose_assignment(two_jobs(), Assignment{1, {{2, 4}, {6, 8}, {10, 12}}},
                      kUnboundedPreemptions, unbounded);
  EXPECT_TRUE(unbounded.ok());
}

TEST(DiagSchedule, MultiViolationAssignmentReportsAll) {
  // job0 (p = 4, window [0, 10)), k = 0: empty segment (003), escape past
  // the deadline (005), wrong total (006), over budget (007) — all at once.
  Report report;
  diagnose_assignment(two_jobs(), Assignment{0, {{0, 2}, {3, 3}, {9, 12}}}, 0,
                      report);
  EXPECT_EQ(report.count(rules::kSchedEmptySegment), 1u);
  EXPECT_EQ(report.count(rules::kSchedWindowEscape), 1u);
  EXPECT_EQ(report.count(rules::kSchedLengthMismatch), 1u);
  EXPECT_EQ(report.count(rules::kSchedPreemptionBudget), 1u);
  EXPECT_EQ(report.error_count(), 4u);
}

TEST(DiagSchedule, MachineConflictAcrossJobs) {
  const JobSet jobs = two_jobs();
  MachineSchedule ms;
  ms.add({0, {{0, 4}}});
  ms.add({1, {{3, 9}}});
  Report report;
  diagnose_machine(jobs, ms, kUnboundedPreemptions, report, 0);
  ASSERT_EQ(report.count(rules::kSchedMachineConflict), 1u);
  EXPECT_EQ(report.diagnostics()[0].where.machine, std::size_t{0});
}

TEST(DiagSchedule, RawAssignmentsSpanMatchesMachineSchedule) {
  const JobSet jobs = two_jobs();
  const std::vector<Assignment> raw = {{0, {{0, 4}}}, {1, {{3, 9}}}};
  Report report;
  diagnose_assignments(jobs, raw, kUnboundedPreemptions, report);
  EXPECT_EQ(report.count(rules::kSchedMachineConflict), 1u);
}

TEST(DiagSchedule, MigrationAcrossMachines) {
  JobSet jobs;
  jobs.add({0, 40, 8, 1.0});
  Schedule schedule(2);
  schedule.machine(0).add({0, {{0, 4}}});
  schedule.machine(1).add({0, {{10, 14}}});
  Report report;
  diagnose_schedule(jobs, schedule, kUnboundedPreemptions, report);
  EXPECT_EQ(report.count(rules::kSchedMigration), 1u);
  // Each half also mis-sums p_j on its machine — still reported per machine.
  EXPECT_EQ(report.count(rules::kSchedLengthMismatch), 2u);
}

TEST(DiagSchedule, CleanScheduleHasNoFindings) {
  const JobSet jobs = two_jobs();
  MachineSchedule ms;
  ms.add({0, {{0, 2}, {8, 10}}});
  ms.add({1, {{2, 8}}});
  Report report;
  diagnose_machine(jobs, ms, 1, report);
  EXPECT_TRUE(report.empty());
}

// --- shims ------------------------------------------------------------------

TEST(DiagShims, ValidateMachineReportsFirstError) {
  const JobSet jobs = two_jobs();
  MachineSchedule ms;
  ms.add({1, {{1, 7}}});  // release is 2
  const auto r = validate_machine(jobs, ms);
  EXPECT_FALSE(r);
  EXPECT_NE(r.error.find("outside the job window"), std::string::npos);
}

TEST(DiagShims, ValidatePrefixesMachineButNotMigration) {
  JobSet jobs;
  jobs.add({0, 40, 4, 1.0});
  Schedule bad(2);
  bad.machine(1).add({0, {{0, 3}}});  // wrong length on machine 1
  const auto r = validate(jobs, bad, kUnboundedPreemptions);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.error.rfind("machine 1: ", 0), 0u) << r.error;

  // The job appears in full on both machines: each machine validates on
  // its own, so migration is the only error the shim can surface.
  Schedule migrated(2);
  migrated.machine(0).add({0, {{0, 4}}});
  migrated.machine(1).add({0, {{10, 14}}});
  const auto m = validate(jobs, migrated, kUnboundedPreemptions);
  EXPECT_FALSE(m);
  EXPECT_NE(m.error.find("more than one machine"), std::string::npos);
  EXPECT_EQ(m.error.find("machine 0: "), std::string::npos);
}

// --- laminarity (§4.1) ------------------------------------------------------

TEST(DiagLaminar, InterleavingReported) {
  JobSet jobs;
  jobs.add({0, 40, 4, 1.0});  // job 0
  jobs.add({0, 40, 4, 1.0});  // job 1
  MachineSchedule ms;
  ms.add({0, {{0, 2}, {4, 6}}});
  ms.add({1, {{2, 4}, {6, 8}}});  // a1 < b1 < a2 < b2
  EXPECT_FALSE(is_laminar(ms));
  Report report;
  diagnose_laminar(ms, report, 2);
  ASSERT_EQ(report.count(rules::kLaminarInterleaving), 1u);
  const auto& d = report.diagnostics()[0];
  EXPECT_EQ(d.where.machine, std::size_t{2});
  const bool names_open_job = std::any_of(
      d.payload.begin(), d.payload.end(),
      [](const auto& kv) { return kv.first == "open_job"; });
  EXPECT_TRUE(names_open_job);
}

TEST(DiagLaminar, NestedPreemptionIsClean) {
  MachineSchedule ms;
  ms.add({0, {{0, 2}, {6, 8}}});
  ms.add({1, {{2, 4}}});
  ms.add({2, {{4, 6}}});
  EXPECT_TRUE(is_laminar(ms));
  Report report;
  diagnose_laminar(ms, report);
  EXPECT_TRUE(report.empty());
}

// --- interval condition (§4.1) ----------------------------------------------

TEST(DiagInterval, OverloadedWindowReported) {
  JobSet jobs;
  for (int i = 0; i < 3; ++i) jobs.add({0, 10, 5, 1.0});  // demand 15 > 10
  const std::vector<JobId> subset = {0, 1, 2};
  EXPECT_FALSE(preemptive_feasible(jobs, subset));
  Report report;
  diagnose_interval_condition(jobs, subset, report);
  ASSERT_EQ(report.count(rules::kIntervalOverload), 1u);
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kError);

  Report lint;
  diagnose_interval_condition(jobs, subset, lint, Severity::kWarning);
  EXPECT_TRUE(lint.ok());
  EXPECT_EQ(lint.count(Severity::kWarning), 1u);
}

TEST(DiagInterval, FeasibleSubsetIsClean) {
  JobSet jobs;
  jobs.add({0, 10, 5, 1.0});
  jobs.add({0, 10, 5, 1.0});
  const std::vector<JobId> subset = {0, 1};
  EXPECT_TRUE(preemptive_feasible(jobs, subset));
  Report report;
  diagnose_interval_condition(jobs, subset, report);
  EXPECT_TRUE(report.empty());
}

// --- k-BAS (Defs. 3.1–3.2) --------------------------------------------------

Forest chain_with_leaves() {
  //  0 → 1 → 2, with leaves 3, 4 under 2.
  Forest f;
  f.add(1);
  f.add(1, 0);
  f.add(1, 1);
  f.add(1, 2);
  f.add(1, 2);
  return f;
}

TEST(DiagBas, MaskSizeMismatchShortCircuits) {
  const Forest f = chain_with_leaves();
  Report report;
  diagnose_bas(f, SubForest{{1, 1}}, 1, report);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].rule, rules::kBasMaskSize);
}

TEST(DiagBas, AncestorDependenceAndDegreeOverflow) {
  const Forest f = chain_with_leaves();
  // Node 1 deleted: node 2 becomes a component root under kept ancestor 0
  // (BAS-002), and node 2 keeps both children with k = 1 (BAS-003).
  const SubForest sel{{1, 0, 1, 1, 1}};
  Report report;
  diagnose_bas(f, sel, 1, report);
  EXPECT_EQ(report.count(rules::kBasAncestorDependence), 1u);
  EXPECT_EQ(report.count(rules::kBasDegreeOverflow), 1u);
  EXPECT_EQ(report.error_count(), 2u);

  const auto shim = validate_bas(f, sel, 1);
  EXPECT_FALSE(shim);
  EXPECT_FALSE(shim.error.empty());
}

TEST(DiagBas, ValidSelectionIsClean) {
  const Forest f = chain_with_leaves();
  Report report;
  diagnose_bas(f, SubForest{{1, 1, 1, 1, 0}}, 1, report);
  EXPECT_TRUE(report.empty());
  EXPECT_TRUE(validate_bas(f, SubForest{{1, 1, 1, 1, 0}}, 1));
}

// --- renderers --------------------------------------------------------------

TEST(DiagRender, TextListsEveryFindingAndSummary) {
  Report report;
  diagnose_assignment(two_jobs(), Assignment{0, {{0, 2}, {3, 3}, {9, 12}}}, 0,
                      report);
  const std::string text = diag::to_text(report);
  for (const auto& id : report.rule_ids()) {
    EXPECT_NE(text.find(id), std::string::npos) << id;
  }
  EXPECT_NE(text.find("4 error"), std::string::npos);
  EXPECT_EQ(diag::to_text(Report{}), "no findings\n");
}

TEST(DiagRender, SarifNamesRulesAndResults) {
  Report report;
  report.add(std::string(rules::kSchedWindowEscape), "a \"quoted\" message")
      .with("release", std::int64_t{7});
  const std::string sarif = diag::to_sarif(report);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("POBP-SCHED-005"), std::string::npos);
  EXPECT_NE(sarif.find("\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace pobp
