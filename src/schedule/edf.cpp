#include "pobp/schedule/edf.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <vector>

#include "pobp/util/assert.hpp"
#include "pobp/util/checked.hpp"
#include "pobp/util/radix.hpp"
#include "pobp/util/simd.hpp"

namespace pobp {
namespace {

/// Loads `subset` into scratch.by_release / scratch.rel_sorted in
/// (release asc, id asc) order — the presorted input edf_simulate reads.
///
/// The sort runs on packed 64-bit keys (release in the high word, id in
/// the low word) whenever every release fits in [0, 2^32): unsigned key
/// order is then exactly the (release asc, id asc) comparator order, and
/// the sort touches one contiguous u64 array instead of gathering two Job
/// fields per comparison.  Out-of-range releases fall back to the
/// comparator sort — same order, by definition.
void sort_by_release(const JobSetView& jobs, std::span<const JobId> subset,
                     EdfScratch& s) {
  auto& by_release = s.by_release;
  auto& rel = s.rel_sorted;
  const std::size_t count = subset.size();
  rel.resize(count);
  bool packable = true;
  std::uint64_t max_rel = 0;
  std::uint64_t max_id = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Time r = jobs.release[subset[i]];
    rel[i] = r;
    packable &= static_cast<std::uint64_t>(r) < (std::uint64_t{1} << 32);
    max_rel = std::max(max_rel, static_cast<std::uint64_t>(r));
    max_id = std::max(max_id, static_cast<std::uint64_t>(subset[i]));
  }
  if (packable) {
    auto& keys = s.keys;
    keys.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      keys[i] = (static_cast<std::uint64_t>(rel[i]) << 32) | subset[i];
    }
    // Stable byte passes low-to-high — id half first, release half second
    // — give the full lexicographic (release, id) order; each half only
    // pays for the bytes its maximum value reaches.  Wide value ranges
    // make the pass count exceed what O(n log n) on a flat u64 array
    // costs, so the radix path is gated on the measured crossover.
    const auto bytes_of = [](std::uint64_t v) {
      unsigned b = 0;
      for (; v != 0; v >>= 8) ++b;
      return b;
    };
    if (bytes_of(max_id) + bytes_of(max_rel) <= 4) {
      radix_sort_u64_bytes(keys, s.keys_tmp, 0, max_id);
      radix_sort_u64_bytes(keys, s.keys_tmp, 32, max_rel);
    } else {
      std::sort(keys.begin(), keys.end());
    }
    by_release.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      by_release[i] = static_cast<JobId>(keys[i]);
      rel[i] = static_cast<Time>(keys[i] >> 32);
    }
  } else {
    by_release.assign(subset.begin(), subset.end());
    std::sort(by_release.begin(), by_release.end(), [&](JobId a, JobId b) {
      if (jobs.release[a] != jobs.release[b]) {
        return jobs.release[a] < jobs.release[b];
      }
      return a < b;
    });
    for (std::size_t i = 0; i < count; ++i) {
      rel[i] = jobs.release[by_release[i]];
    }
  }
}

/// The EDF loop.  Input is presorted: scratch.by_release holds the jobs in
/// (release asc, id asc) order and scratch.rel_sorted their releases, as
/// sort_by_release or EdfAdmission leave them.  Record=false skips all
/// segment bookkeeping (the feasibility probes); Record=true leaves the
/// merged run log in scratch.runs.  Every scratch.remaining entry touched
/// is zeroed again before returning, so the job-indexed arrays stay
/// sparsely clean even on early (infeasible) exits.  The sweep reads
/// releases from the contiguous rel_sorted column.
template <bool Record>
bool edf_simulate(const JobSetView& jobs, EdfScratch& s) {
  const auto& by_release = s.by_release;
  const auto& rel = s.rel_sorted;
  const std::size_t count = by_release.size();
  POBP_DASSERT(rel.size() == count);

  if (s.remaining.size() < jobs.size()) s.remaining.resize(jobs.size(), 0);
  for (const JobId id : by_release) {
    POBP_ASSERT_MSG(s.remaining[id] == 0, "duplicate job id in EDF subset");
    s.remaining[id] = jobs.length[id];
  }

  auto& ready = s.ready;  // min-heap on (deadline, id): strict total order
  ready.clear();
  if (Record) s.runs.clear();

  // First index in rel[from..) with a release strictly after `now` — the
  // admission frontier.  rel is contiguous, so the scan is a 4-lane
  // compare against broadcast `now` with a scalar tail.
  const auto released_until = [&](std::size_t from, Time now) {
    std::size_t i = from;
    const simd::i64x4 vnow = simd::broadcast_i64(now);
    while (i + simd::kLanes <= count) {
      if (simd::any_true(simd::cmp_gt(simd::load_i64(rel.data() + i), vnow))) {
        break;
      }
      i += simd::kLanes;
    }
    while (i < count && rel[i] <= now) ++i;
    return i;
  };

  const bool feasible = [&] {
    std::size_t next_release = 0;
    Time now = 0;
    if (count > 0) now = rel.front();

    while (next_release < count || !ready.empty()) {
      // Admit everything released by `now`.
      const std::size_t admit_end = released_until(next_release, now);
      while (next_release < admit_end) {
        const JobId id = by_release[next_release++];
        ready.emplace_back(jobs.deadline[id], id);
        std::push_heap(ready.begin(), ready.end(), std::greater<>{});
      }
      if (ready.empty()) {
        now = rel[next_release];
        continue;
      }
      const JobId top = ready.front().second;
      // Run the earliest-deadline job until it completes or the next
      // release.  A completion past INT64_MAX misses every deadline: the
      // machine stays busy at least that long, so whichever job finishes
      // last is late.
      if (add_overflows(now, s.remaining[top])) return false;
      Time until = now + s.remaining[top];
      if (next_release < count) {
        until = std::min(until, rel[next_release]);
      }
      POBP_DASSERT(now < until);
      if (Record) {
        if (!s.runs.empty() && s.runs.back().job == top &&
            s.runs.back().segment.end == now) {
          s.runs.back().segment.end = until;  // no real preemption happened
        } else {
          s.runs.push_back({{now, until}, top});
        }
      }
      s.remaining[top] -= until - now;
      now = until;
      if (s.remaining[top] == 0) {
        if (now > jobs.deadline[top]) return false;
        std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
        ready.pop_back();
      } else if (now > jobs.deadline[top]) {
        return false;  // already late; bail out early
      }
    }
    return true;
  }();

  for (const JobId id : by_release) s.remaining[id] = 0;
  return feasible;
}

}  // namespace

bool edf_feasible(const JobSetView& jobs, std::span<const JobId> subset,
                  EdfScratch& scratch) {
  sort_by_release(jobs, subset, scratch);
  return edf_simulate</*Record=*/false>(jobs, scratch);
}

void EdfAdmission::clear() {
  ids_.clear();
  rel_.clear();
  periods_.clear();
}

bool EdfAdmission::try_admit(const JobSetView& jobs, JobId id, EdfScratch& s) {
  const Time r = jobs.release[id];
  const std::size_t n = ids_.size();

  // id's slot in (release, id) order.
  std::size_t lo = 0;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (rel_[mid] < r || (rel_[mid] == r && ids_[mid] < id)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const std::size_t pos = lo;
  // An admitted id sits exactly at its own slot.  Checked here because a
  // probe the bounds decide never reaches edf_simulate's duplicate check.
  POBP_ASSERT_MSG(pos == n || ids_[pos] != id, "job is already admitted");

  // The window opens at the start of the busy period holding r, or at r
  // when the machine is idle then (no admitted job is released at an idle
  // instant).  `latest` is the latest deadline among the window's jobs.
  const auto after = std::upper_bound(
      periods_.begin(), periods_.end(), r,
      [](Time t, const BusyPeriod& b) { return t < b.start; });
  auto first_period = after;  // first busy period the window covers
  Time start = r;
  Time end = r;
  Time latest = jobs.deadline[id];
  if (after != periods_.begin() && std::prev(after)->end > r) {
    first_period = std::prev(after);
    start = first_period->start;
    end = first_period->end;
    latest = std::max(latest, first_period->latest);
  }

  // Grow the window by p_id, then absorb every later busy period that
  // starts before it drains, whole: each one's jobs arrive before it ends.
  // An end past INT64_MAX means the window's last job finishes after every
  // representable deadline.  A period's span end − start can itself exceed
  // INT64_MAX (a start near INT64_MIN), so it is added in unsigned
  // arithmetic against the exact headroom INT64_MAX − end.
  if (add_overflows(end, jobs.length[id])) return false;
  end += jobs.length[id];
  auto covered_end = after;  // one past the last busy period absorbed
  for (; covered_end != periods_.end() && covered_end->start < end;
       ++covered_end) {
    const auto span = static_cast<std::uint64_t>(covered_end->end) -
                      static_cast<std::uint64_t>(covered_end->start);
    const auto headroom =
        static_cast<std::uint64_t>(std::numeric_limits<Time>::max()) -
        static_cast<std::uint64_t>(end);
    if (span > headroom) return false;
    end = static_cast<Time>(static_cast<std::uint64_t>(end) + span);
    latest = std::max(latest, covered_end->latest);
  }

  // The machine runs the window's jobs back to back from start to end, so
  // the last of them completes at end.  Two bounds settle most probes:
  //  * end > latest: that last job is late, whatever EDF runs first.
  //  * end ≤ d_id: id and every job EDF ranks below it — deadline ≥ d_id —
  //    complete by end, so on time, and the jobs ranked above id run
  //    exactly as without it (lower-ranked work never delays them).
  // Only d_id < end ≤ latest needs the window's EDF run.
  if (end > latest) return false;
  if (end > jobs.deadline[id]) {
    const std::size_t first = static_cast<std::size_t>(
        std::lower_bound(rel_.begin(), rel_.begin() + pos, start) -
        rel_.begin());
    const std::size_t last = static_cast<std::size_t>(
        std::lower_bound(rel_.begin() + pos, rel_.end(), end) - rel_.begin());
    // The window's admitted jobs plus id, presorted (id at pos).
    s.by_release.assign(ids_.begin() + first, ids_.begin() + last);
    s.rel_sorted.assign(rel_.begin() + first, rel_.begin() + last);
    s.by_release.insert(s.by_release.begin() + (pos - first), id);
    s.rel_sorted.insert(s.rel_sorted.begin() + (pos - first), r);
    if (!edf_simulate</*Record=*/false>(jobs, s)) return false;
  }

  // Commit: the merged window replaces every busy period it covers.
  ids_.insert(ids_.begin() + pos, id);
  rel_.insert(rel_.begin() + pos, r);
  if (first_period == covered_end) {
    periods_.insert(first_period, {start, end, latest});
  } else {
    *first_period = {start, end, latest};
    periods_.erase(first_period + 1, covered_end);
  }
  return true;
}

bool edf_schedule_into(const JobSetView& jobs, std::span<const JobId> subset,
                       EdfScratch& s, MachineSchedule& out) {
  out.clear();
  sort_by_release(jobs, subset, s);
  if (!edf_simulate</*Record=*/true>(jobs, s)) return false;

  // Bucket the run log into per-job segment lists with one counting pass,
  // then materialize assignments in release order (the order the original
  // simulator emitted them in).
  const std::size_t n_jobs = s.by_release.size();
  if (s.slot.size() < jobs.size()) s.slot.resize(jobs.size(), 0);
  if (s.seg_count.size() < jobs.size()) s.seg_count.resize(jobs.size(), 0);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    s.slot[s.by_release[i]] = static_cast<std::uint32_t>(i);
  }
  for (const EdfScratch::Run& run : s.runs) ++s.seg_count[run.job];

  s.seg_cursor.assign(n_jobs + 1, 0);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    s.seg_cursor[i + 1] = s.seg_cursor[i] + s.seg_count[s.by_release[i]];
  }
  s.seg_buf.resize(s.runs.size());
  for (const EdfScratch::Run& run : s.runs) {
    s.seg_buf[s.seg_cursor[s.slot[run.job]]++] = run.segment;
  }
  // The cursors now sit at each slot's end = the next slot's begin.

  out.reserve(n_jobs);
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const JobId id = s.by_release[i];
    const std::uint32_t end = s.seg_cursor[i];
    out.append_sorted(id, {s.seg_buf.data() + begin,
                           static_cast<std::size_t>(end - begin)});
    begin = end;
    s.seg_count[id] = 0;  // restore sparse cleanliness
  }
  return true;
}

std::optional<MachineSchedule> edf_schedule(const JobSetView& jobs,
                                            std::span<const JobId> subset) {
  EdfScratch scratch;
  MachineSchedule out;
  if (!edf_schedule_into(jobs, subset, scratch, out)) return std::nullopt;
  return out;
}

}  // namespace pobp
