#include "pobp/diag/registry.hpp"

#include <algorithm>

namespace pobp::diag {
namespace {

using rules::kBasAncestorDependence;
using rules::kBasDegreeOverflow;
using rules::kBasMaskSize;
using rules::kGenOverflow;
using rules::kGenParamDomain;
using rules::kIntervalOverload;
using rules::kIoJobDomain;
using rules::kIoNumeric;
using rules::kIoParse;
using rules::kJobMalformed;
using rules::kLaminarInterleaving;
using rules::kOptExactSeedLimit;
using rules::kOptMachineCount;
using rules::kRunAdmission;
using rules::kRunBreakerOpen;
using rules::kRunBudget;
using rules::kRunCachePressure;
using rules::kRunDeadline;
using rules::kRunPipelineFault;
using rules::kRunRateLimited;
using rules::kRunTenantQuota;
using rules::kSchedEmptyAssignment;
using rules::kSchedEmptySegment;
using rules::kSchedLengthMismatch;
using rules::kSchedMachineConflict;
using rules::kSchedMigration;
using rules::kSchedPreemptionBudget;
using rules::kSchedUnknownJob;
using rules::kSchedUnsortedSegments;
using rules::kSchedWindowEscape;
using rules::kSrcDefaultHash;
using rules::kSrcHotPathAlloc;
using rules::kSrcImplicitMemoryOrder;
using rules::kSrcLayering;
using rules::kSrcNakedAlloc;
using rules::kSrcNondeterminism;
using rules::kSrcThrowInContainment;
using rules::kSrcRawIntrinsics;
using rules::kSrcUnboundedRetry;

// Ordered by id; find_rule binary-searches this table.
constexpr RuleInfo kCatalogue[] = {
    {kBasMaskSize, Severity::kError, "selection mask size mismatch",
     "Def. 3.1",
     "A sub-forest selection must carry exactly one keep flag per node of "
     "the host forest; a mask of any other size cannot describe a "
     "sub-forest."},
    {kBasAncestorDependence, Severity::kError,
     "ancestor independence violated", "Def. 3.2",
     "A kept node whose parent is deleted roots a component of the "
     "sub-forest and therefore must not have any kept proper ancestor; "
     "otherwise the selection is not ancestor-independent."},
    {kBasDegreeOverflow, Severity::kError, "degree bound exceeded",
     "Def. 3.1",
     "Every kept node may retain at most k kept children (per-node bounds "
     "in the generalized variant); more kept children than the bound "
     "breaks the k-bounded-degree property."},
    {kGenParamDomain, Severity::kError, "generator parameters out of domain",
     "Appendix B",
     "The Appendix-B lower-bound construction requires k >= 1 and "
     "branching factor K > k (the paper instantiates K = 2k)."},
    {kGenOverflow, Severity::kError, "generator range overflow",
     "Appendix B",
     "Job lengths in the Appendix-B instance grow as (3K^2)^L * (3K-1); "
     "for the chosen (K, L) the tick arithmetic would overflow int64 (or "
     "exceed the job budget), so the instance cannot be materialized "
     "exactly."},
    {kIntervalOverload, Severity::kError, "interval demand exceeds capacity",
     "§4.1",
     "Hall-type feasibility: for every interval [r, d] spanned by a "
     "release and a deadline, the total length of jobs whose windows lie "
     "inside it must not exceed d - r; an overloaded interval proves the "
     "set has no preemptive schedule."},
    {kIoParse, Severity::kError, "unparseable input", "§2.1 (instances)",
     "A jobs CSV, batch manifest or JSONL instance file is syntactically "
     "malformed (missing header, wrong cell count, non-numeric cell, "
     "truncated JSON); the instance cannot be loaded."},
    {kIoNumeric, Severity::kError, "numeric field out of range",
     "§2.1 (tick arithmetic)",
     "A parsed numeric field is NaN, infinite, fractional where a tick is "
     "required, or outside the int64 tick range; admitting it would make "
     "downstream tick arithmetic overflow or become undefined."},
    {kIoJobDomain, Severity::kError, "job outside the §2.1 domain",
     "§2.1",
     "A syntactically valid row describes a job violating the instance "
     "domain: length < 1, value <= 0, a window shorter than the length, or "
     "a window so wide that d - r overflows int64."},
    {kJobMalformed, Severity::kError, "malformed job", "§2.1",
     "A job must satisfy p >= 1, val > 0 and window d - r >= p; otherwise "
     "it cannot be feasibly scheduled even alone."},
    {kLaminarInterleaving, Severity::kError, "interleaved preemptions",
     "§4.1, Fig. 1",
     "In a laminar schedule the 'preempts' relation forms a forest: "
     "segments a1 < b1 < a2 < b2 of two jobs (each resuming under the "
     "other) are forbidden.  Interleavings break the Schedule Forest "
     "reduction."},
    {kOptMachineCount, Severity::kError, "machine count out of domain",
     "§2.1 (multi-machine)",
     "The multi-machine setting schedules on m >= 1 identical non-migrative "
     "machines; machine_count = 0 describes no machine to place work on."},
    {kOptExactSeedLimit, Severity::kError, "exact seed instance too large",
     "§2.1 (OPT∞)",
     "The exact ∞-preemptive seed enumerates job subsets with "
     "branch-and-bound, which is exponential in n; instances beyond the "
     "supported bound would effectively never terminate, so the checked "
     "entry points reject them instead (use the greedy-density seed)."},
    {kRunPipelineFault, Severity::kError, "pipeline fault contained",
     "§4 (pipeline)",
     "An exception or internal invariant failure escaped the solve "
     "pipeline for one instance and was caught at the Session boundary; "
     "the instance has no result but the batch and the process continue."},
    {kRunDeadline, Severity::kError, "solve deadline exceeded",
     "§4.3 (LSA_CS as fallback)",
     "The instance's wall-clock deadline (SolveBudget::deadline_s) expired "
     "before the pipeline finished, and the degrade policy did not produce "
     "a fallback result."},
    {kRunBudget, Severity::kError, "solve operation budget exhausted",
     "§4.3 (LSA_CS as fallback)",
     "The instance's cooperative operation budget (SolveBudget::max_ops) "
     "ran out before the pipeline finished, and the degrade policy did not "
     "produce a fallback result."},
    {kRunAdmission, Severity::kError, "submission shed at admission",
     "§4.3 (overload behaviour)",
     "The streaming engine's bounded submission queue was full (or the "
     "engine was shutting down) and the request was submitted on the "
     "non-blocking path, so admission control shed it instead of queueing; "
     "the request was never solved and can be resubmitted."},
    {kRunTenantQuota, Severity::kError, "tenant in-flight quota exceeded",
     "§4.3 (overload behaviour)",
     "The submitting tenant already had the configured maximum number of "
     "requests in flight (StreamOptions::tenant_max_in_flight), so "
     "admission control rejected this one to protect other tenants; the "
     "request was never solved and can be resubmitted after completions."},
    {kRunRateLimited, Severity::kError, "tenant rate limit exceeded",
     "§4.3 (overload behaviour)",
     "The submitting tenant's token bucket (StreamOptions::tenant_rate / "
     "SubmitOptions::rate_limit) was empty, so admission control shed this "
     "request before it touched the queue; the request was never solved "
     "and can be resubmitted once the bucket refills."},
    {kRunBreakerOpen, Severity::kError, "tenant circuit breaker open",
     "§4.3 (overload behaviour)",
     "The tenant's circuit breaker tripped after N consecutive contained "
     "pipeline faults (POBP-RUN-001) and is shedding submissions while "
     "open; after the cooldown a limited number of half-open probe "
     "admissions either close it again or re-open it."},
    {kRunCachePressure, Severity::kWarning, "solve cache under pressure",
     "§4.3 (overload behaviour)",
     "The content-addressed solve cache (docs/CACHE.md) is thrashing: "
     "CLOCK evictions are keeping pace with insertions, so entries are "
     "reclaimed before their first hit and the duplicate-stream fast path "
     "stays cold.  Raise the cache byte budget or reduce the keyed "
     "diversity of the stream; results are unaffected (the cache is "
     "bit-transparent), only latency is."},
    {kSchedUnknownJob, Severity::kError, "unknown job id", "Def. 2.1",
     "An assignment references a job id outside the instance."},
    {kSchedEmptyAssignment, Severity::kError, "empty segment list",
     "Def. 2.1",
     "A scheduled job must execute in at least one segment."},
    {kSchedEmptySegment, Severity::kError, "empty or inverted segment",
     "Def. 2.1(a)",
     "Every execution segment [begin, end) must have begin < end; "
     "zero-length or inverted segments carry no machine time and usually "
     "indicate generator or serialization bugs."},
    {kSchedUnsortedSegments, Severity::kError,
     "segments not sorted or overlapping", "Def. 2.1(a)",
     "A job's segments must be sorted by start time and pairwise disjoint "
     "(adjacency allowed); overlap within a job double-books the "
     "machine."},
    {kSchedWindowEscape, Severity::kError, "segment outside job window",
     "Def. 2.1(b)",
     "Every segment of job j must lie inside [r_j, d_j): work before "
     "release or after deadline does not count."},
    {kSchedLengthMismatch, Severity::kError, "processed length mismatch",
     "Def. 2.1(b)",
     "The segments of a scheduled job must sum to exactly p_j; a job is "
     "only counted when fully processed."},
    {kSchedPreemptionBudget, Severity::kError, "preemption budget exceeded",
     "Def. 2.1(c)",
     "A k-preemptive schedule allows at most k preemptions per job, i.e. "
     "at most k+1 segments."},
    {kSchedMachineConflict, Severity::kError, "machine double-booked",
     "Def. 2.1(a)",
     "Segments of different jobs on the same machine must not overlap: "
     "one machine executes at most one job at any moment."},
    {kSchedMigration, Severity::kError, "job scheduled on two machines",
     "§2.1 (multi-machine)",
     "The multi-machine setting is non-migrative: a job's segments must "
     "all live on a single machine."},
    {kSrcNakedAlloc, Severity::kError, "naked allocation",
     "docs/PERF.md (allocation discipline)",
     "Raw new/delete/malloc/free outside the allocator module (allocspy).  "
     "All ownership goes through containers and smart pointers, so the "
     "counting hooks and the zero-allocation perf gate see every "
     "allocation.  Suppress with `// POBP-SRC-001: reason`."},
    {kSrcHotPathAlloc, Severity::kError, "allocation call on the hot path",
     "docs/PERF.md (zero-allocation hot path)",
     "An allocation-capable call (new/delete, malloc-family, "
     "make_unique/make_shared) inside a pooled `*_into` producer or a "
     "function marked `// POBP_NOALLOC`.  Hot-path functions recycle "
     "caller-owned storage; capacity operations (reserve/resize) are the "
     "only sanctioned growth.  Suppress with `// POBP-SRC-002: reason`."},
    {kSrcImplicitMemoryOrder, Severity::kError,
     "atomic operation without explicit memory order",
     "docs/PERF.md (batch dispatch)",
     "A std::atomic load/store/RMW in the concurrency-bearing modules "
     "(engine, util, solvers) relying on the implicit seq_cst default.  "
     "Every atomic op must spell its std::memory_order so the "
     "synchronization protocol is reviewable and TSan findings map to "
     "stated intent.  Suppress with `// POBP-SRC-003: reason`."},
    {kSrcNondeterminism, Severity::kError,
     "nondeterminism in result-affecting code",
     "docs/ENGINE.md (determinism contract)",
     "Result-affecting modules must be pure functions of (jobs, options): "
     "unseeded randomness (rand/random_device), wall-clock reads "
     "(system_clock), or iteration over unordered_{map,set} feeding "
     "results would break bit-identity across worker counts.  Suppress "
     "with `// POBP-SRC-004: reason`."},
    {kSrcLayering, Severity::kError, "module layering violation",
     "DESIGN.md (module layers)",
     "An #include crossing the declared layer map upward (e.g. schedule "
     "or core including engine, diag including a solver).  The layer map "
     "mirrors the CMake link graph; a violating include compiles today "
     "and becomes a cycle tomorrow.  Suppress with "
     "`// POBP-SRC-005: reason`."},
    {kSrcThrowInContainment, Severity::kError,
     "throw inside a fault-containment boundary",
     "docs/ROBUSTNESS.md (fault containment)",
     "`try_*` entry points are the containment boundary: they convert "
     "every pipeline failure into an Expected/diag::Report outcome.  A "
     "throw statement inside one can escape to a pool worker and take "
     "down the batch.  Suppress with `// POBP-SRC-006: reason`."},
    {kSrcUnboundedRetry, Severity::kError,
     "unbounded sleep-retry loop in the engine",
     "docs/ROBUSTNESS.md (retry discipline)",
     "A loop in src/engine/ that sleeps between iterations (a retry/"
     "backoff loop) must be bounded: either an explicit attempt cap "
     "(an `attempt`/`max_retries`-style counter in the loop) or a "
     "BudgetGuard poll/charge so the request's SolveBudget can stop it.  "
     "An unbounded sleep-retry can stall a pool worker forever and blow "
     "through every request deadline.  Suppress with "
     "`// POBP-SRC-008: reason`."},
    {kSrcRawIntrinsics, Severity::kError,
     "raw ISA intrinsic outside the portable SIMD wrapper",
     "docs/PERF.md (portable SIMD)",
     "Vector kernels must go through pobp/util/simd.hpp, whose "
     "vector-extension helpers compile on every GCC/Clang target and "
     "degrade to a scalar fallback elsewhere.  A raw x86 `_mm*`/"
     "`__m128`-family or NEON `vld1`-style intrinsic pins the file to "
     "one ISA, breaks the scalar build, and bypasses the wrapper's "
     "bit-identity contract.  Suppress with `// POBP-SRC-009: reason`."},
    {kSrcDefaultHash, Severity::kError,
     "implementation-defined hashing on a result path",
     "docs/CACHE.md (keying)",
     "std::hash and the std::unordered_* containers hash with an "
     "implementation-defined function: the same bytes key different "
     "buckets across standard libraries and builds, which breaks "
     "cross-build determinism wherever hashing can reach results or "
     "cache keys.  Result-path modules use the flat open-addressing "
     "indexes (MachineSchedule) or the specified mixers in "
     "engine/cache.cpp instead.  Suppress with "
     "`// POBP-SRC-010: reason` where only membership is observed."},
};

constexpr bool catalogue_sorted() {
  for (std::size_t i = 1; i < std::size(kCatalogue); ++i) {
    if (!(kCatalogue[i - 1].id < kCatalogue[i].id)) return false;
  }
  return true;
}
static_assert(catalogue_sorted(), "rule catalogue must be ordered by id");

}  // namespace

std::span<const RuleInfo> all_rules() { return kCatalogue; }

const RuleInfo* find_rule(std::string_view id) {
  const auto it = std::lower_bound(
      std::begin(kCatalogue), std::end(kCatalogue), id,
      [](const RuleInfo& info, std::string_view key) { return info.id < key; });
  if (it == std::end(kCatalogue) || it->id != id) return nullptr;
  return it;
}

}  // namespace pobp::diag
