#include "pobp/schedule/edf.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "pobp/util/assert.hpp"
#include "pobp/util/checked.hpp"

namespace pobp {
namespace {

constexpr std::size_t kNoRank = std::numeric_limits<std::size_t>::max();

/// The highest set bit of `words` at or below `pos`, or kNoRank.
std::size_t prev_set(const std::uint64_t* words, std::size_t pos) {
  std::size_t w = pos >> 6;
  std::uint64_t word = words[w] & (~std::uint64_t{0} >> (63 - (pos & 63)));
  while (word == 0) {
    if (w == 0) return kNoRank;
    word = words[--w];
  }
  return (w << 6) + 63 - static_cast<std::size_t>(std::countl_zero(word));
}

/// The lowest set bit of `words` at or above `pos`, or `n` if none is
/// below `n` (no bit at or past `n` is ever set).
std::size_t next_set(const std::uint64_t* words, std::size_t pos,
                     std::size_t n) {
  if (pos >= n) return n;
  std::size_t w = pos >> 6;
  const std::size_t end_word = (n + 63) >> 6;
  std::uint64_t word = words[w] & (~std::uint64_t{0} << (pos & 63));
  while (word == 0) {
    if (++w == end_word) return n;
    word = words[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
}

/// The bits of word `w` that lie in [lo, hi); hi > lo.
std::uint64_t range_mask(std::size_t w, std::size_t lo, std::size_t hi) {
  std::uint64_t mask = ~std::uint64_t{0};
  if (w == lo >> 6) mask &= ~std::uint64_t{0} << (lo & 63);
  if (w == (hi - 1) >> 6) mask &= ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
  return mask;
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
  const std::size_t count = s.id.size();
  s.release.resize(count);
  s.deadline.resize(count);
  s.remaining.resize(count);
  for (std::size_t slot = 0; slot < count; ++slot) {
    const JobId id = s.id[slot];
    s.release[slot] = jobs.release[id];
    s.deadline[slot] = jobs.deadline[id];
    s.remaining[slot] = jobs.length[id];
  }
}

/// The EDF loop, over the window columns (slots in (release, id) order, as
/// sort_by_release or EdfAdmission::gather_window leave them).
/// Record=false skips all segment bookkeeping (the admission probes);
/// Record=true leaves the merged run log in scratch.runs.  Consumes
/// scratch.remaining.
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

void EdfAdmission::rank(const JobSetView& jobs,
                        std::span<const JobId> candidates, RadixSort& sort) {
  const std::size_t n = candidates.size();
  POBP_ASSERT(n <= std::numeric_limits<Rank>::max());
  // (release, id) order, least significant part first: a pass over the ids
  // only when the candidates are not ascending already, then one over the
  // releases, offset from the earliest.
  auto& entries = sort.entries;
  entries.resize(n);
  bool ascending = true;
  Time earliest = std::numeric_limits<Time>::max();
  for (std::size_t i = 0; i < n; ++i) {
    const JobId id = candidates[i];
    entries[i] = {.key = id, .payload = id};
    ascending &= i == 0 || candidates[i - 1] <= id;
    earliest = std::min(earliest, jobs.release[id]);
  }
  if (!ascending) sort.sort();
  for (RadixEntry& e : entries) {
    e.key = radix_offset(jobs.release[e.payload], earliest);
  }
  sort.sort();
  release_.resize(n);
  deadline_.resize(n);
  length_.resize(n);
  id_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const JobId id = entries[r].payload;
    // A repeated id ranks next to itself.
    POBP_ASSERT_MSG(r == 0 || id != id_[r - 1],
                    "duplicate job id among the candidates");
    release_[r] = jobs.release[id];
    deadline_[r] = jobs.deadline[id];
    length_[r] = jobs.length[id];
    id_[r] = id;
  }
  periods_.resize(n);
  clear();
}

void EdfAdmission::clear() {
  const std::size_t words = (id_.size() + 63) / 64;
  admitted_.assign(words, 0);
  starts_.assign(words, 0);
  counts_ = {};
}

bool EdfAdmission::try_admit(Rank c, EdfScratch& s) {
  const std::size_t n = id_.size();
  POBP_DASSERT(c < n);
  // Checked here because a probe the bounds decide never reaches the EDF
  // loop.
  POBP_ASSERT_MSG(!admitted(c), "job is already admitted");
  const Time r = release_[c];
  const std::uint64_t* const starts = starts_.data();

  const auto bound_reject = [&] {
    ++counts_.bound_rejected;
    return false;
  };

  // The window opens at the start of the busy period holding r, or at r
  // when the machine is idle then.  A period holding r starts either
  // below c's rank — then it is the last period there, if it ends after
  // r — or at r itself with a larger id, above c.  The second needs no
  // search: a window opened at r with c alone (a stage no job can
  // overrun, r + p_c ≤ d_c) absorbs it as the next stage and reaches the
  // same end, latest deadline and verdict.  `latest` is the latest
  // deadline among the stages' jobs.
  std::size_t first = c;
  Time end = r;
  Time latest = deadline_[c];
  const std::size_t holding = prev_set(starts, c);  // c's own bit is clear
  if (holding != kNoRank && periods_[holding].end > r) {
    first = holding;
    end = periods_[holding].end;
    latest = std::max(latest, periods_[holding].latest);
  }

  // Stage 0 is the holding period plus c; each later busy period that
  // starts before the running end is absorbed whole as the next stage,
  // since its jobs all arrive before it ends.  Every stage's jobs are
  // released at or after the window's start and need end − start ticks
  // together, so once the running end passes the stages' latest deadline
  // one of them is late: reject there.  An end past INT64_MAX passes every
  // deadline.  A period's span end − start can itself exceed INT64_MAX (a
  // start near INT64_MIN), so it is added in unsigned arithmetic against
  // the exact headroom INT64_MAX − end.
  if (add_overflows(end, length_[c])) return bound_reject();
  end += length_[c];
  if (end > latest) return bound_reject();
  std::size_t next = next_set(starts, c + 1, n);  // first later period
  for (; next < n && release_[next] < end;
       next = next_set(starts, next + 1, n)) {
    const Period& period = periods_[next];
    const auto span = static_cast<std::uint64_t>(period.end) -
                      static_cast<std::uint64_t>(release_[next]);
    const auto headroom =
        static_cast<std::uint64_t>(std::numeric_limits<Time>::max()) -
        static_cast<std::uint64_t>(end);
    if (span > headroom) return bound_reject();
    end = static_cast<Time>(static_cast<std::uint64_t>(end) + span);
    latest = std::max(latest, period.latest);
    if (end > latest) return bound_reject();
  }
  // The window's admitted jobs are the admitted ranks in [first, next).

  // The machine runs the window's jobs back to back from start to end.
  // If end ≤ d_c, c and every job EDF ranks below it — deadline ≥ d_c —
  // complete by end, so on time, and the jobs ranked above c run exactly
  // as without it (lower-ranked work never delays them).  Otherwise only
  // the window's EDF run decides.
  if (end <= deadline_[c]) {
    ++counts_.bound_accepted;
  } else {
    ++counts_.simulated;
    gather_window(c, first, next, s);
    const bool feasible = edf_simulate</*Record=*/false>(s);
    counts_.past_sorted_cap += s.ready_heaped;
    if (!feasible) return false;
  }

  // Commit: c is admitted, and one period starting at `first` replaces
  // every period the window covered.
  admitted_[c >> 6] |= std::uint64_t{1} << (c & 63);
  for (std::size_t w = first >> 6; w <= (next - 1) >> 6; ++w) {
    starts_[w] &= ~range_mask(w, first, next);
  }
  starts_[first >> 6] |= std::uint64_t{1} << (first & 63);
  periods_[first] = {end, latest};
  return true;
}

void EdfAdmission::gather_window(Rank c, std::size_t first, std::size_t last,
                                 EdfScratch& s) const {
  const std::size_t lo_word = first >> 6;
  const std::size_t hi_word = (last - 1) >> 6;
  const auto word_at = [&](std::size_t w) {
    std::uint64_t word = admitted_[w];
    if (w == (c >> 6)) word |= std::uint64_t{1} << (c & 63);
    return word & range_mask(w, first, last);
  };
  std::size_t count = 0;
  for (std::size_t w = lo_word; w <= hi_word; ++w) {
    count += static_cast<std::size_t>(std::popcount(word_at(w)));
  }
  s.release.resize(count);
  s.deadline.resize(count);
  s.remaining.resize(count);
  s.id.resize(count);
  std::size_t slot = 0;
  for (std::size_t w = lo_word; w <= hi_word; ++w) {
    for (std::uint64_t word = word_at(w); word != 0; word &= word - 1) {
      const std::size_t r = (w << 6) + static_cast<std::size_t>(
                                           std::countr_zero(word));
      s.release[slot] = release_[r];
      s.deadline[slot] = deadline_[r];
      s.remaining[slot] = length_[r];
      s.id[slot] = id_[r];
      ++slot;
    }
  }
}

void EdfAdmission::admitted_ids(std::vector<JobId>& out) const {
  out.clear();
  for (std::size_t w = 0; w < admitted_.size(); ++w) {
    for (std::uint64_t word = admitted_[w]; word != 0; word &= word - 1) {
      out.push_back(id_[(w << 6) + static_cast<std::size_t>(
                                       std::countr_zero(word))]);
    }
  }
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
