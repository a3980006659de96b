#include "pobp/schedule/schedule.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

namespace pobp {

std::vector<Segment> normalized(std::vector<Segment> segs) {
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) {
              return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
            });
  std::vector<Segment> out;
  out.reserve(segs.size());
  for (const Segment& s : segs) {
    if (s.empty()) continue;
    if (!out.empty() && out.back().end >= s.begin) {
      out.back().end = std::max(out.back().end, s.end);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

void normalize_in_place(std::vector<Segment>& segs) {
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) {
              return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
            });
  std::size_t out = 0;
  for (const Segment& s : segs) {
    if (s.empty()) continue;
    if (out != 0 && segs[out - 1].end >= s.begin) {
      segs[out - 1].end = std::max(segs[out - 1].end, s.end);
    } else {
      segs[out++] = s;
    }
  }
  segs.resize(out);
}

// --- flat job index ---------------------------------------------------------
//
// Open addressing over a power-of-two bucket array; each bucket packs
// (job + 1) << 32 | slot, with 0 marking an empty bucket.  Compared with
// the std::unordered_map it replaces, lookups stay O(1) but insertion does
// no per-node allocation and clear() is a memset, so a recycled
// MachineSchedule never touches the heap for its index.

namespace {

inline std::uint64_t index_hash(JobId job) {
  return (static_cast<std::uint64_t>(job) + 1) * 0x9E3779B97F4A7C15ULL;
}

}  // namespace

const std::uint64_t* MachineSchedule::index_lookup(JobId job) const {
  if (buckets_.empty()) return nullptr;
  const std::uint64_t key = static_cast<std::uint64_t>(job) + 1;
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t b = index_hash(job) & mask;; b = (b + 1) & mask) {
    const std::uint64_t entry = buckets_[b];
    if (entry == 0) return nullptr;
    if ((entry >> 32) == key) return &buckets_[b];
  }
}

void MachineSchedule::index_insert(JobId job, std::uint32_t pos) {
  // Jobs are JobSet indices, so job + 1 always fits the 32-bit key field.
  POBP_ASSERT(job != std::numeric_limits<JobId>::max());
  if (buckets_.size() < 2 * (live_ + 1)) index_grow(live_ + 1);
  const std::size_t mask = buckets_.size() - 1;
  std::size_t b = index_hash(job) & mask;
  while (buckets_[b] != 0) b = (b + 1) & mask;
  buckets_[b] = ((static_cast<std::uint64_t>(job) + 1) << 32) | pos;
}

void MachineSchedule::index_grow(std::size_t min_entries) {
  std::size_t cap = buckets_.empty() ? 16 : buckets_.size() * 2;
  while (cap < 2 * min_entries) cap *= 2;
  std::vector<std::uint64_t> old;
  old.swap(buckets_);
  buckets_.assign(cap, 0);
  const std::size_t mask = cap - 1;
  for (const std::uint64_t entry : old) {
    if (entry == 0) continue;
    std::size_t b =
        index_hash(static_cast<JobId>((entry >> 32) - 1)) & mask;
    while (buckets_[b] != 0) b = (b + 1) & mask;
    buckets_[b] = entry;
  }
}

// --- assignment slots -------------------------------------------------------

Assignment& MachineSchedule::new_slot(JobId job) {
  if (live_ == slots_.size()) slots_.emplace_back();
  Assignment& slot = slots_[live_];
  slot.job = job;
  slot.segments.clear();  // capacity retained — this is the recycling
  index_insert(job, static_cast<std::uint32_t>(live_));
  ++live_;
  return slot;
}

void MachineSchedule::add(Assignment assignment) {
  POBP_CHECK_MSG(!contains(assignment.job), "job already scheduled");
  POBP_CHECK_MSG(!assignment.segments.empty(), "empty assignment");
  normalize_in_place(assignment.segments);
  new_slot(assignment.job)
      .segments.assign(assignment.segments.begin(), assignment.segments.end());
}

void MachineSchedule::add_sorted(Assignment assignment) {
  append_sorted(assignment.job,
                {assignment.segments.data(), assignment.segments.size()});
}

void MachineSchedule::append_sorted(JobId job,
                                    std::span<const Segment> segments) {
  POBP_CHECK_MSG(!contains(job), "job already scheduled");
  POBP_CHECK_MSG(!segments.empty(), "empty assignment");
#ifndef NDEBUG
  // Equivalence with add(): normalized() must be a no-op, which requires
  // sorted, non-empty, *strictly* separated segments (touching ones would
  // have been merged).
  for (std::size_t i = 0; i < segments.size(); ++i) {
    POBP_DASSERT(!segments[i].empty());
    POBP_DASSERT(i == 0 || segments[i - 1].end < segments[i].begin);
  }
#endif
  new_slot(job).segments.assign(segments.begin(), segments.end());
}

void MachineSchedule::clear() {
  live_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

void MachineSchedule::assign_from(const MachineSchedule& other) {
  if (this == &other) return;
  clear();
  for (const Assignment& a : other.assignments()) {
    append_sorted(a.job, {a.segments.data(), a.segments.size()});
  }
}

void MachineSchedule::reserve(std::size_t jobs) {
  slots_.reserve(jobs);
  if (jobs > 0 && buckets_.size() < 2 * jobs) index_grow(jobs);
}

const Assignment* MachineSchedule::find(JobId job) const {
  const std::uint64_t* entry = index_lookup(job);
  if (entry == nullptr) return nullptr;
  return &slots_[static_cast<std::uint32_t>(*entry)];
}

std::vector<JobId> MachineSchedule::scheduled_jobs() const {
  std::vector<JobId> ids;
  ids.reserve(live_);
  for (const Assignment& a : assignments()) ids.push_back(a.job);
  return ids;
}

Value MachineSchedule::total_value(const JobSet& jobs) const {
  Value sum = 0;
  for (const Assignment& a : assignments()) sum += jobs[a.job].value;
  return sum;
}

std::size_t MachineSchedule::max_preemptions() const {
  std::size_t worst = 0;
  for (const Assignment& a : assignments()) {
    worst = std::max(worst, a.preemptions());
  }
  return worst;
}

Duration MachineSchedule::busy_time() const {
  Duration sum = 0;
  for (const Assignment& a : assignments()) sum += total_length(a.segments);
  return sum;
}

std::vector<MachineSchedule::TaggedSegment> MachineSchedule::timeline() const {
  std::vector<TaggedSegment> out;
  timeline_into(out);
  return out;
}

void MachineSchedule::timeline_into(std::vector<TaggedSegment>& out) const {
  out.clear();
  out.reserve(segment_count());
  for (const Assignment& a : assignments()) {
    for (const Segment& s : a.segments) out.push_back({s, a.job});
  }
  std::sort(out.begin(), out.end(),
            [](const TaggedSegment& a, const TaggedSegment& b) {
              return a.segment.begin < b.segment.begin;
            });
}

std::size_t MachineSchedule::segment_count() const {
  std::size_t count = 0;
  for (const Assignment& a : assignments()) count += a.segments.size();
  return count;
}

std::string MachineSchedule::to_string(const JobSet& jobs) const {
  std::ostringstream os;
  for (const TaggedSegment& ts : timeline()) {
    os << "  [" << ts.segment.begin << ", " << ts.segment.end << ") job#"
       << ts.job << " (val=" << jobs[ts.job].value << ")\n";
  }
  return os.str();
}

void Schedule::reset(std::size_t machine_count) {
  POBP_ASSERT(machine_count >= 1);
  if (machines_.size() > machine_count) machines_.resize(machine_count);
  for (MachineSchedule& m : machines_) m.clear();
  while (machines_.size() < machine_count) machines_.emplace_back();
}

void Schedule::assign_from(const Schedule& other) {
  if (this == &other) return;
  reset(other.machine_count());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machines_[m].assign_from(other.machine(m));
  }
}

std::optional<std::size_t> Schedule::machine_of(JobId job) const {
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    if (machines_[m].contains(job)) return m;
  }
  return std::nullopt;
}

Value Schedule::total_value(const JobSet& jobs) const {
  Value sum = 0;
  for (const MachineSchedule& m : machines_) sum += m.total_value(jobs);
  return sum;
}

std::size_t Schedule::job_count() const {
  std::size_t count = 0;
  for (const MachineSchedule& m : machines_) count += m.job_count();
  return count;
}

std::size_t Schedule::max_preemptions() const {
  std::size_t worst = 0;
  for (const MachineSchedule& m : machines_) {
    worst = std::max(worst, m.max_preemptions());
  }
  return worst;
}

std::vector<JobId> Schedule::scheduled_jobs() const {
  std::vector<JobId> ids;
  for (const MachineSchedule& m : machines_) {
    auto sub = m.scheduled_jobs();
    ids.insert(ids.end(), sub.begin(), sub.end());
  }
  return ids;
}

Value JobSet::total_value() const {
  Value sum = 0;
  for (const Value v : columns_.value) sum += v;
  return sum;
}

Value JobSet::value_of(std::span<const JobId> ids) const {
  Value sum = 0;
  for (const JobId id : ids) sum += (*this)[id].value;
  return sum;
}

Duration JobSet::total_length() const {
  Duration sum = 0;
  for (const Duration p : columns_.length) sum += p;
  return sum;
}

Duration JobSet::min_length() const {
  POBP_ASSERT(!empty());
  return *std::min_element(columns_.length.begin(), columns_.length.end());
}

Duration JobSet::max_length() const {
  POBP_ASSERT(!empty());
  return *std::max_element(columns_.length.begin(), columns_.length.end());
}

Rational JobSet::max_laxity() const {
  POBP_ASSERT(!empty());
  // λ_a < λ_b ⟺ w_a·p_b < w_b·p_a, exact in 128 bits: Rational's int64
  // cross-multiplication overflows on well-formed windows near INT64_MAX.
  const auto window = [&](JobId id) {
    return static_cast<__int128>(columns_.deadline[id]) - columns_.release[id];
  };
  JobId best = 0;
  for (JobId id = 1; id < size(); ++id) {
    if (window(best) * columns_.length[id] <
        window(id) * columns_.length[best]) {
      best = id;
    }
  }
  return (*this)[best].laxity();
}

Time JobSet::horizon() const {
  if (empty()) return 0;
  return *std::max_element(columns_.deadline.begin(), columns_.deadline.end());
}

Time JobSet::earliest_release() const {
  POBP_ASSERT(!empty());
  return *std::min_element(columns_.release.begin(), columns_.release.end());
}

void sort_denser_first(const JobSetView& jobs, std::span<const JobId> ids,
                       RadixSort& sort) {
  auto& entries = sort.entries;
  entries.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(jobs.density(ids[i]));
    entries[i] = {.key = ~bits >> 32, .payload = static_cast<std::uint32_t>(i)};
  }
  sort.sort();
  const auto denser = [&](const RadixEntry& a, const RadixEntry& b) {
    return denser_first(jobs, ids[a.payload], ids[b.payload]);
  };
  for (auto run = entries.begin(); run != entries.end();) {
    auto end = run + 1;
    while (end != entries.end() && end->key == run->key) ++end;
    if (end - run > 1) std::sort(run, end, denser);
    run = end;
  }
}

std::vector<JobId> all_ids(const JobSet& jobs) {
  std::vector<JobId> ids(jobs.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<JobId>(i);
  }
  return ids;
}

}  // namespace pobp
