#include "pobp/schedule/edf.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "pobp/util/assert.hpp"
#include "pobp/util/checked.hpp"

namespace pobp {
namespace {

/// Fills the window columns from s.id, already in (release, id) order.
void gather_columns(const JobSetView& jobs, EdfScratch& s) {
  const std::size_t count = s.id.size();
  s.release.resize(count);
  s.deadline.resize(count);
  s.remaining.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const JobId id = s.id[i];
    s.release[i] = jobs.release[id];
    s.deadline[i] = jobs.deadline[id];
    s.remaining[i] = jobs.length[id];
  }
}

/// Loads `subset` into the window columns in (release, id) order.  A
/// subset already strictly in that order — the greedy's admitted set, a
/// machine the EDF loop built, the strict jobs of one — is copied as is.
/// Other orders (the exact seed's B&B members, arbitrary input schedules,
/// test oracles) take a plain comparator sort.
void sort_by_release(const JobSetView& jobs, std::span<const JobId> subset,
                     EdfScratch& s) {
  const auto before = [&](JobId a, JobId b) {
    return jobs.release[a] != jobs.release[b]
               ? jobs.release[a] < jobs.release[b]
               : a < b;
  };
  s.id.assign(subset.begin(), subset.end());
  std::size_t i = 1;
  while (i < subset.size() && before(subset[i - 1], subset[i])) ++i;
  if (i < subset.size()) {
    std::sort(s.id.begin(), s.id.end(), before);
    POBP_ASSERT_MSG(std::adjacent_find(s.id.begin(), s.id.end()) == s.id.end(),
                    "duplicate job id in EDF subset");
  }
  gather_columns(jobs, s);
}

/// The EDF loop, over the window columns (slots in (release, id) order, as
/// sort_by_release or EdfAdmission leave them).  Record=false skips all
/// segment bookkeeping (the feasibility probes); Record=true leaves the
/// merged run log in scratch.runs.  Consumes scratch.remaining.
///
/// The ready set holds slots.  While at most kEdfSortedReadyCap are ready
/// it is an array sorted by (deadline, id), latest first, so the job to
/// run is at the back: an admission is one short insertion, a completion a
/// pop_back.  One more ready job reverses the array — earliest first is a
/// valid binary min-heap — and the set stays a heap in the same order
/// until it drains.  The order is total, so both forms pick the same job.
template <bool Record>
bool edf_simulate(EdfScratch& s) {
  const std::size_t count = s.id.size();
  const Time* const rel = s.release.data();
  const Time* const dl = s.deadline.data();
  const JobId* const ids = s.id.data();
  Duration* const rem = s.remaining.data();
  POBP_DASSERT(s.release.size() == count && s.deadline.size() == count &&
               s.remaining.size() == count);
  if (s.ready.size() < count) s.ready.resize(count);
  std::uint32_t* const ready = s.ready.data();
  if (Record) s.runs.clear();
  s.ready_heaped = false;

  // a runs before b: (deadline, id) order.  As the heap's "less", the
  // reversed form keeps the earliest slot on top.
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    return dl[a] != dl[b] ? dl[a] < dl[b] : ids[a] < ids[b];
  };
  const auto after = [&](std::uint32_t a, std::uint32_t b) {
    return before(b, a);
  };
  std::size_t n_ready = 0;
  bool heap = false;
  const auto push = [&](std::uint32_t slot) {
    if (!heap && n_ready == kEdfSortedReadyCap) {
      std::reverse(ready, ready + n_ready);
      heap = true;
      s.ready_heaped = true;
    }
    if (heap) {
      ready[n_ready++] = slot;
      std::push_heap(ready, ready + n_ready, after);
      return;
    }
    std::size_t i = n_ready++;
    for (; i > 0 && before(ready[i - 1], slot); --i) ready[i] = ready[i - 1];
    ready[i] = slot;
  };

  std::size_t next_release = 0;
  Time now = count > 0 ? rel[0] : 0;
  while (next_release < count || n_ready > 0) {
    // Admit everything released by `now`.
    while (next_release < count && rel[next_release] <= now) {
      push(static_cast<std::uint32_t>(next_release++));
    }
    if (n_ready == 0) {
      now = rel[next_release];
      continue;
    }
    const std::uint32_t top = heap ? ready[0] : ready[n_ready - 1];
    // Run the earliest-deadline job until it completes or the next
    // release.  A completion past INT64_MAX misses every deadline: the
    // machine stays busy at least that long, so whichever job finishes
    // last is late.
    if (add_overflows(now, rem[top])) return false;
    Time until = now + rem[top];
    if (next_release < count) until = std::min(until, rel[next_release]);
    POBP_DASSERT(now < until);
    if (Record) {
      if (!s.runs.empty() && s.runs.back().slot == top &&
          s.runs.back().segment.end == now) {
        s.runs.back().segment.end = until;  // no real preemption happened
      } else {
        s.runs.push_back({{now, until}, top});
      }
    }
    rem[top] -= until - now;
    now = until;
    if (now > dl[top]) return false;  // late, finished or not
    if (rem[top] != 0) continue;
    if (!heap) {
      --n_ready;
    } else {
      std::pop_heap(ready, ready + n_ready, after);
      heap = --n_ready > 0;
    }
  }
  return true;
}

}  // namespace

bool edf_feasible(const JobSetView& jobs, std::span<const JobId> subset,
                  EdfScratch& scratch) {
  sort_by_release(jobs, subset, scratch);
  return edf_simulate</*Record=*/false>(scratch);
}

void EdfAdmission::clear() {
  ids_.clear();
  rel_.clear();
  periods_.clear();
  counts_ = {};
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
  // probe the bounds decide never reaches the EDF loop.
  POBP_ASSERT_MSG(pos == n || ids_[pos] != id, "job is already admitted");

  const auto bound_reject = [&] {
    ++counts_.bound_rejected;
    return false;
  };

  // The window opens at the start of the busy period holding r, or at r
  // when the machine is idle then (no admitted job is released at an idle
  // instant).  `latest` is the latest deadline among the stages' jobs.
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

  // Stage 0 is the holding period plus id; each later busy period that
  // starts before the running end is absorbed whole as the next stage,
  // since its jobs all arrive before it ends.  Every stage's jobs are
  // released at or after `start` and need end − start ticks together, so
  // once the running end passes the stages' latest deadline one of them
  // is late: reject there.  An end past INT64_MAX passes every deadline.
  // A period's span end − start can itself exceed INT64_MAX (a start near
  // INT64_MIN), so it is added in unsigned arithmetic against the exact
  // headroom INT64_MAX − end.
  if (add_overflows(end, jobs.length[id])) return bound_reject();
  end += jobs.length[id];
  if (end > latest) return bound_reject();
  auto covered_end = after;  // one past the last busy period absorbed
  for (; covered_end != periods_.end() && covered_end->start < end;
       ++covered_end) {
    const auto span = static_cast<std::uint64_t>(covered_end->end) -
                      static_cast<std::uint64_t>(covered_end->start);
    const auto headroom =
        static_cast<std::uint64_t>(std::numeric_limits<Time>::max()) -
        static_cast<std::uint64_t>(end);
    if (span > headroom) return bound_reject();
    end = static_cast<Time>(static_cast<std::uint64_t>(end) + span);
    latest = std::max(latest, covered_end->latest);
    if (end > latest) return bound_reject();
  }

  // The machine runs the window's jobs back to back from start to end.
  // If end ≤ d_id, id and every job EDF ranks below it — deadline ≥ d_id —
  // complete by end, so on time, and the jobs ranked above id run exactly
  // as without it (lower-ranked work never delays them).  Otherwise only
  // the window's EDF run decides.
  if (end <= jobs.deadline[id]) {
    ++counts_.bound_accepted;
  } else {
    ++counts_.simulated;
    const auto first = static_cast<std::size_t>(
        std::lower_bound(rel_.begin(), rel_.begin() + pos, start) -
        rel_.begin());
    const auto last = static_cast<std::size_t>(
        std::lower_bound(rel_.begin() + pos, rel_.end(), end) - rel_.begin());
    // The window's admitted jobs plus id at its slot, in (release, id)
    // order.
    const std::size_t at = pos - first;
    s.id.resize(last - first + 1);
    std::copy(ids_.begin() + first, ids_.begin() + pos, s.id.begin());
    s.id[at] = id;
    std::copy(ids_.begin() + pos, ids_.begin() + last,
              s.id.begin() + at + 1);
    gather_columns(jobs, s);
    const bool feasible = edf_simulate</*Record=*/false>(s);
    counts_.past_sorted_cap += s.ready_heaped;
    if (!feasible) return false;
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
  if (!edf_simulate</*Record=*/true>(s)) return false;

  // Bucket the run log into per-slot segment lists with one counting pass,
  // then materialize assignments in slot (release) order, the order the
  // original simulator emitted them in.
  const std::size_t n_jobs = s.id.size();
  s.seg_cursor.assign(n_jobs + 1, 0);
  for (const EdfScratch::Run& run : s.runs) ++s.seg_cursor[run.slot + 1];
  for (std::size_t i = 1; i <= n_jobs; ++i) {
    s.seg_cursor[i] += s.seg_cursor[i - 1];
  }
  s.seg_buf.resize(s.runs.size());
  for (const EdfScratch::Run& run : s.runs) {
    s.seg_buf[s.seg_cursor[run.slot]++] = run.segment;
  }
  // The cursors now sit at each slot's end = the next slot's begin.

  out.reserve(n_jobs);
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const std::uint32_t end = s.seg_cursor[i];
    out.append_sorted(s.id[i], {s.seg_buf.data() + begin,
                                static_cast<std::size_t>(end - begin)});
    begin = end;
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
