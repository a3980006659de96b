// The Leftmost Schedule Algorithm and its classify-and-select wrapper
// (Algorithm 2, §4.3.2), plus the k = 0 variant (§5) and the iterative
// multi-machine extension (§4.3.4).
//
// LSA processes jobs in descending density order.  For each job it keeps a
// working set S of at most k+1 idle segments inside [r_j, d_j): starting
// from the k+1 leftmost, while the job does not fit it swaps the shortest
// member of S for the next idle segment to the right; the job is scheduled
// leftmost into S when it fits and discarded when the window's idle
// segments are exhausted.  A job scheduled into ≤ k+1 segments is preempted
// ≤ k times.
//
// LSA alone guarantees a constant fraction only when the instance's length
// ratio is bounded; LSA_CS therefore classifies jobs into length classes
// with ratio ≤ k+1 (≤ 2 when k = 0), runs LSA per class on an empty
// machine, and returns the best class — losing the log_{k+1} P
// (resp. log₂ P) classification factor.  On lax jobs (λ_j ≥ k+1) this
// yields val ≥ OPT∞ / (6·log_{k+1} P)   (Lemma 4.10); for k = 0 it yields
// val ≥ OPT∞ / (3·log₂ P)               (§5).
//
// Every entry point reads the jobs through a JobSetView (a JobSet converts
// to one in place, without a copy); the allocating forms are one-call
// conveniences over the pooled `_into` forms the solve pipeline uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pobp/schedule/schedule.hpp"
#include "pobp/schedule/timeline.hpp"

namespace pobp {

struct LsaResult {
  MachineSchedule schedule;
  std::vector<JobId> scheduled;  ///< J_in, in the order LSA accepted them
  std::vector<JobId> rejected;   ///< J_out
};

/// Greedy consideration order inside LSA.  The paper runs LSA "with the
/// difference that the jobs are sorted by their density rather than by
/// value" (§4.3.2) — kValue is the original Albagli-Kim et al. [1] order,
/// kept for the ablation benches.
enum class LsaOrder {
  kDensity,  ///< descending val(j)/p_j (denser_first) — the paper's choice
  kValue,    ///< descending val(j) — Albagli-Kim's original
};

/// Reusable buffers for LSA and its classify-and-select wrapper.  The
/// timeline and the two staging results are pooled: their run/slot storage
/// survives clear(), so a warmed scratch makes every lsa_*_into form
/// allocation-free.
struct LsaScratch {
  std::vector<JobId> order;          ///< consideration-order staging
  RadixSort density;                 ///< kDensity's sort
  std::vector<Segment> working;      ///< Alg. 2's working set S
  std::vector<Segment> placed;       ///< leftmost-fill staging
  std::vector<std::pair<std::size_t, JobId>> classes;  ///< (class, id) pairs
  std::vector<JobId> class_members;  ///< one class's members, contiguous
  std::vector<JobId> residual;       ///< multi-machine leftover staging
  IdleTimeline timeline;             ///< pooled busy-run timeline
  LsaResult attempt;                 ///< per-class staging (lsa_cs_into)
  LsaResult cs_best;                 ///< winning-class staging (multi form)
  std::vector<std::uint32_t> class_of;      ///< per candidate, classify stage
  std::vector<std::uint32_t> class_counts;  ///< counting-sort histogram
  std::vector<std::int64_t> class_bounds;   ///< base^c length boundaries
  std::vector<std::int64_t> class_vals;     ///< gathered per-candidate keys
};

/// Plain LSA over `candidates` on one (initially empty) machine.
/// k is the preemption bound (k = 0 means en-bloc / non-preemptive).
LsaResult lsa(const JobSetView& jobs, std::span<const JobId> candidates,
              std::size_t k, LsaOrder order = LsaOrder::kDensity);

/// What classify-and-select groups by.  The paper's Alg. 2 classifies by
/// length (ratio ≤ k+1 per class ⇒ price O(log_{k+1} P)); §1.4 notes that
/// classifying the same machinery by value or density extends
/// Albagli-Kim's O(1) results to O(log ρ) and O(log σ) respectively
/// (ratio-2 classes: near-unit value / density within each class).
enum class ClassifyBy {
  kLength,   ///< base max(k+1, 2) length classes — Alg. 2 / §5
  kValue,    ///< factor-2 value classes — price O(log ρ)
  kDensity,  ///< factor-2 density classes — price O(log σ)
};

/// Classify-and-select wrapper: partition `candidates` into ratio-bounded
/// classes, run LSA per class on an empty machine, return the best class.
LsaResult lsa_cs(const JobSetView& jobs, std::span<const JobId> candidates,
                 std::size_t k, ClassifyBy by = ClassifyBy::kLength,
                 LsaOrder order = LsaOrder::kDensity);

/// Iterative multi-machine extension: machine i runs LSA_CS on the jobs the
/// first i−1 machines rejected (the residual technique of [2], which costs
/// at most +1 in the price).
Schedule lsa_cs_multi(const JobSetView& jobs,
                      std::span<const JobId> candidates, std::size_t k,
                      std::size_t machine_count);

/// Pooled forms: write into `out` (cleared/reset first, slot storage
/// recycled — zero heap allocations once scratch and `out` are warmed).
/// `out` must not alias the scratch staging results.
void lsa_into(const JobSetView& jobs, std::span<const JobId> candidates,
              std::size_t k, LsaOrder order, LsaScratch& scratch,
              LsaResult& out);
void lsa_cs_into(const JobSetView& jobs, std::span<const JobId> candidates,
                 std::size_t k, ClassifyBy by, LsaOrder order,
                 LsaScratch& scratch, LsaResult& out);
void lsa_cs_multi_into(const JobSetView& jobs,
                       std::span<const JobId> candidates, std::size_t k,
                       std::size_t machine_count, LsaScratch& scratch,
                       Schedule& out);

/// The LSA_CS classification kernel, exposed for the kernel bench and the
/// SoaEquivalence tests: computes every candidate's class (length /
/// value / density per `by`) and groups `scratch.classes` by ascending
/// class with members in candidates order — exactly the (class, id) pairs
/// a stable sort by class would produce, but via a 4-lane classify pass
/// (exponent-bit classes, power-of-base boundary table) and a counting
/// sort over the bounded class range.  Returns the number of distinct
/// classes.
std::size_t lsa_classify(const JobSetView& jobs,
                         std::span<const JobId> candidates, std::size_t k,
                         ClassifyBy by, LsaScratch& scratch);

/// The length-class index of a job for class base `base` (≥ 2): the unique
/// c ≥ 0 with base^c ≤ p_j < base^(c+1).
std::size_t length_class(Duration length, std::size_t base);

}  // namespace pobp
