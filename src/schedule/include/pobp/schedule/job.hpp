// Job model (Section 2.1 of the paper).
//
// Each job j carries ⟨release r_j, deadline d_j, length p_j⟩ and a value
// val(j) > 0.  A JobSet is an immutable-by-convention set of jobs with
// instance-level metric helpers (n, P, ρ, σ, λ_max) used throughout §4.
//
// Layout (docs/PERF.md, "Columnar core"): a JobSet stores its jobs as
// four contiguous columns — release, deadline, length, value — and
// converts implicitly to JobSetView, the borrowed pointer view every solve
// kernel takes, the way std::string converts to std::string_view.  `Job`
// is the record type of the IO/API surface: add() takes one, and
// operator[] and iteration assemble one by value from the columns.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "pobp/schedule/time.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/radix.hpp"
#include "pobp/util/rational.hpp"

namespace pobp {

using JobId = std::uint32_t;

struct Job {
  Time release = 0;
  Time deadline = 0;
  Duration length = 0;
  Value value = 1.0;

  /// Window w(j) = d_j − r_j (§4.3.1).
  constexpr Duration window() const { return deadline - release; }

  /// Relative laxity λ_j = (d_j − r_j) / p_j (Def. 4.4), exact.
  Rational laxity() const { return Rational(window(), length); }

  /// Density σ_j = val(j) / p_j (§4.3.2).
  double density() const {
    return value / static_cast<double>(length);
  }

  /// A job is well-formed iff it can be feasibly scheduled alone.
  /// Overflow-safe (a window d − r that overflows int64 is malformed, not
  /// UB) and NaN/inf values are rejected, so untrusted inputs can be
  /// screened with this predicate before window()/laxity() are ever called.
  constexpr bool well_formed() const {
    Duration w = 0;
    if (__builtin_sub_overflow(deadline, release, &w)) return false;
    return length >= 1 && value > 0 &&
           value <= std::numeric_limits<double>::max() && w >= length;
  }
};

class JobSet;

/// Borrowed columnar view of a job set: one pointer per attribute, indexed
/// by JobId.  Valid while the JobSet (or JobColumns) it was taken from is
/// alive and unmodified; like a std::string_view, a view of a temporary
/// must not outlive the full expression.
struct JobSetView {
  const Time* release = nullptr;
  const Time* deadline = nullptr;
  const Duration* length = nullptr;
  const Value* value = nullptr;
  std::size_t n = 0;

  std::size_t size() const { return n; }

  /// Density σ_j = val(j) / p_j — same expression as Job::density().
  double density(JobId id) const {
    POBP_DASSERT(id < n);
    return value[id] / static_cast<double>(length[id]);
  }
};

namespace detail {

/// Sign of x1·y1 − x2·y2, exactly, for finite x ≥ 0 and integer-valued
/// y ≥ 1 (a value and a length converted to double).
///
/// Rounding is monotone, so unequal rounded products already order the
/// exact ones.  Equal finite ones are told apart by their rounding errors,
/// which fma computes exactly: x·y is a multiple of the last bit of x
/// (≥ 2^-1074, y being an integer), so the error is a multiple of 2^-1074
/// holding at most 53 significant bits — and 0 when the product rounds
/// into the subnormal range, where half an ulp is below 2^-1074.  Two
/// products that both overflow to +inf have x ≥ 2^960 (y ≤ 2^63), so
/// scaling both x by 2^-64 is exact and brings both products back into
/// range.
inline int compare_products(double x1, double y1, double x2, double y2) {
  double p1 = x1 * y1;
  double p2 = x2 * y2;
  if (p1 == p2 && std::isinf(p1)) {
    x1 = std::ldexp(x1, -64);
    x2 = std::ldexp(x2, -64);
    p1 = x1 * y1;
    p2 = x2 * y2;
  }
  if (p1 != p2) return p1 < p2 ? -1 : 1;
  const double e1 = std::fma(x1, y1, -p1);
  const double e2 = std::fma(x2, y2, -p2);
  return (e1 > e2) - (e1 < e2);
}

}  // namespace detail

/// The density order of the greedy seed and of LSA: true iff `a` is
/// strictly denser than `b` — v_a·p_b > v_b·p_a, compared exactly on the
/// values and the lengths as doubles — or as dense with a smaller id.  A
/// strict total order on distinct ids, as std::sort requires; it differs
/// from comparing the rounded cross-products only where those tie.
inline bool denser_first(const JobSetView& jobs, JobId a, JobId b) {
  const int c = detail::compare_products(
      jobs.value[a], static_cast<double>(jobs.length[b]), jobs.value[b],
      static_cast<double>(jobs.length[a]));
  return c != 0 ? c > 0 : a < b;
}

/// The density sort of the greedy seed and of LSA: orders the positions
/// of `ids` by denser_first of the jobs there, leaving sort.entries[i]'s
/// payload the position in `ids` of the i-th densest job.  The key is the
/// high half of the rounded quotient v/p's bit pattern, densest first: a
/// density is a non-negative finite double, and those order as their bit
/// patterns do, so a larger key comes from a larger rounded quotient.
/// Rounding is monotone, so that quotient comes from the larger exact v/p,
/// and denser_first says the same; runs of equal keys are ordered by
/// denser_first itself.  So the order is exactly denser_first's.
void sort_denser_first(const JobSetView& jobs, std::span<const JobId> ids,
                       RadixSort& sort);

/// Owning column storage: a JobSet's own storage, and a detached copy of
/// one wherever columns must outlive their set (the solve cache's entries).
struct JobColumns {
  std::vector<Time> release;
  std::vector<Time> deadline;
  std::vector<Duration> length;
  std::vector<Value> value;

  std::size_t size() const { return release.size(); }

  /// Copies `jobs`'s columns.  Allocates nothing once the vectors have
  /// grown to the largest set seen.
  void build(const JobSet& jobs);

  JobSetView view() const {
    return {release.data(), deadline.data(), length.data(), value.data(),
            release.size()};
  }
};

/// A problem instance: the set J.
class JobSet {
 public:
  /// Iterates the jobs in id order, yielding each by value.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Job;
    using difference_type = std::ptrdiff_t;
    using reference = Job;

    Iterator() = default;
    Iterator(const JobSet* jobs, JobId id) : jobs_(jobs), id_(id) {}

    Job operator*() const { return (*jobs_)[id_]; }
    Iterator& operator++() {
      ++id_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++id_;
      return before;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const JobSet* jobs_ = nullptr;
    JobId id_ = 0;
  };

  JobSet() = default;
  explicit JobSet(const std::vector<Job>& jobs) {
    reserve(jobs.size());
    for (const Job& j : jobs) add(j);
  }

  /// Room for `n` jobs in every column, so the next adds up to that size
  /// allocate nothing.
  void reserve(std::size_t n) {
    columns_.release.reserve(n);
    columns_.deadline.reserve(n);
    columns_.length.reserve(n);
    columns_.value.reserve(n);
  }

  /// Append a job; returns its id.  Malformed jobs (untrusted input can
  /// reach this) throw pobp::InternalError rather than aborting, and leave
  /// the set unchanged.
  JobId add(const Job& job) {
    POBP_CHECK_MSG(job.well_formed(), "malformed job");
    const auto id = static_cast<JobId>(size());
    try {
      columns_.release.push_back(job.release);
      columns_.deadline.push_back(job.deadline);
      columns_.length.push_back(job.length);
      columns_.value.push_back(job.value);
    } catch (...) {  // a failed push_back must not leave ragged columns
      columns_.release.resize(id);
      columns_.deadline.resize(id);
      columns_.length.resize(id);
      throw;
    }
    return id;
  }

  std::size_t size() const { return columns_.size(); }
  bool empty() const { return columns_.release.empty(); }
  Job operator[](JobId id) const {
    POBP_DASSERT(id < size());
    return {columns_.release[id], columns_.deadline[id], columns_.length[id],
            columns_.value[id]};
  }

  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, static_cast<JobId>(size())}; }

  /// The columns in place; no copy.
  operator JobSetView() const { return columns_.view(); }

  /// Σ val(j) over the whole set.
  Value total_value() const;

  /// Σ val(j) over a subset given by ids.
  Value value_of(std::span<const JobId> ids) const;

  /// Σ p_j over the whole set.
  Duration total_length() const;

  Duration min_length() const;
  Duration max_length() const;

  /// P = max_j p_j / min_j p_j, as an exact rational (Def. in §1.3).
  Rational length_ratio_P() const {
    return Rational(max_length(), min_length());
  }

  /// λ_max = max_j λ_j (Def. 4.4).
  Rational max_laxity() const;

  /// Latest deadline — the scheduling horizon (0 for the empty set).
  Time horizon() const;

  /// Earliest release.
  Time earliest_release() const;

 private:
  JobColumns columns_;
};

inline void JobColumns::build(const JobSet& jobs) {
  const JobSetView v = jobs;
  release.assign(v.release, v.release + v.n);
  deadline.assign(v.deadline, v.deadline + v.n);
  length.assign(v.length, v.length + v.n);
  value.assign(v.value, v.value + v.n);
}

/// All job ids [0, n).
std::vector<JobId> all_ids(const JobSet& jobs);

}  // namespace pobp
