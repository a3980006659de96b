// The rule catalogue: every stable diagnostic id the library can emit.
//
// Rules are registered centrally (registry.cpp) rather than via static
// initializers in the emitting modules — static registration objects in
// static libraries are silently dropped by the linker unless forced, and a
// single table is also the natural place to keep the paper cross-references
// that docs/LINT.md renders.
#pragma once

#include <span>
#include <string_view>

#include "pobp/diag/diagnostic.hpp"

namespace pobp::diag {

struct RuleInfo {
  std::string_view id;          ///< stable, e.g. "POBP-SCHED-005"
  Severity default_severity;
  std::string_view title;       ///< short noun phrase
  std::string_view paper_ref;   ///< paper anchor, e.g. "Def. 2.1(b)"
  std::string_view description; ///< one-paragraph explanation
};

/// All registered rules, ordered by id.
std::span<const RuleInfo> all_rules();

/// Lookup by id (nullptr when unknown).
const RuleInfo* find_rule(std::string_view id);

// Stable rule ids.  New rules append within their family; ids are never
// reused or renumbered (tests and external tooling match on them).
namespace rules {

// Schedule feasibility (Def. 2.1 plus the multi-machine extension).
inline constexpr std::string_view kSchedUnknownJob = "POBP-SCHED-001";
inline constexpr std::string_view kSchedEmptyAssignment = "POBP-SCHED-002";
inline constexpr std::string_view kSchedEmptySegment = "POBP-SCHED-003";
inline constexpr std::string_view kSchedUnsortedSegments = "POBP-SCHED-004";
inline constexpr std::string_view kSchedWindowEscape = "POBP-SCHED-005";
inline constexpr std::string_view kSchedLengthMismatch = "POBP-SCHED-006";
inline constexpr std::string_view kSchedPreemptionBudget = "POBP-SCHED-007";
inline constexpr std::string_view kSchedMachineConflict = "POBP-SCHED-008";
inline constexpr std::string_view kSchedMigration = "POBP-SCHED-009";

// Laminar normal form (§4.1).
inline constexpr std::string_view kLaminarInterleaving = "POBP-LAM-001";

// k-BAS selection rules (Defs. 3.1–3.2).
inline constexpr std::string_view kBasMaskSize = "POBP-BAS-001";
inline constexpr std::string_view kBasAncestorDependence = "POBP-BAS-002";
inline constexpr std::string_view kBasDegreeOverflow = "POBP-BAS-003";

// Input loading (CSV / manifest / JSONL hardening).
inline constexpr std::string_view kIoParse = "POBP-IO-001";
inline constexpr std::string_view kIoNumeric = "POBP-IO-002";
inline constexpr std::string_view kIoJobDomain = "POBP-IO-003";

// Instance-level job rules.
inline constexpr std::string_view kJobMalformed = "POBP-JOB-001";

// Solve-option rules (the checked schedule_bounded entry points).
inline constexpr std::string_view kOptMachineCount = "POBP-OPT-001";
inline constexpr std::string_view kOptExactSeedLimit = "POBP-OPT-002";

// Serving-layer fault containment (Session::run boundary) and the
// streaming admission control (StreamEngine, docs/SERVING.md).
inline constexpr std::string_view kRunPipelineFault = "POBP-RUN-001";
inline constexpr std::string_view kRunDeadline = "POBP-RUN-002";
inline constexpr std::string_view kRunBudget = "POBP-RUN-003";
inline constexpr std::string_view kRunAdmission = "POBP-RUN-004";
inline constexpr std::string_view kRunTenantQuota = "POBP-RUN-005";
inline constexpr std::string_view kRunRateLimited = "POBP-RUN-006";
inline constexpr std::string_view kRunBreakerOpen = "POBP-RUN-007";
inline constexpr std::string_view kRunCachePressure = "POBP-RUN-008";

// Hall-type interval feasibility (§4.1).
inline constexpr std::string_view kIntervalOverload = "POBP-INT-001";

// Generator parameter ranges (Appendix B).
inline constexpr std::string_view kGenParamDomain = "POBP-GEN-001";
inline constexpr std::string_view kGenOverflow = "POBP-GEN-002";

// Source-level static analysis (src/srclint, `pobp_srclint` /
// `pobp lint-src`).  These rules lint the repository's own source tree
// against the project engineering contracts (docs/PERF.md,
// docs/ENGINE.md); each is suppressible at a site with a
// `// POBP-SRC-nnn: reason` comment on the finding line or the line
// above.
inline constexpr std::string_view kSrcNakedAlloc = "POBP-SRC-001";
inline constexpr std::string_view kSrcHotPathAlloc = "POBP-SRC-002";
inline constexpr std::string_view kSrcImplicitMemoryOrder = "POBP-SRC-003";
inline constexpr std::string_view kSrcNondeterminism = "POBP-SRC-004";
inline constexpr std::string_view kSrcLayering = "POBP-SRC-005";
inline constexpr std::string_view kSrcThrowInContainment = "POBP-SRC-006";
inline constexpr std::string_view kSrcUnboundedRetry = "POBP-SRC-008";
inline constexpr std::string_view kSrcRawIntrinsics = "POBP-SRC-009";
inline constexpr std::string_view kSrcDefaultHash = "POBP-SRC-010";

}  // namespace rules

}  // namespace pobp::diag
