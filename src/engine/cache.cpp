#include "pobp/engine/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "pobp/diag/registry.hpp"
#include "pobp/util/assert.hpp"

namespace pobp {
namespace {

// splitmix64 finalizer: the avalanche stage of every mix below.  Chosen
// over std::hash (POBP-SRC-010) because it is fully specified — the same
// bytes key the same entry on every platform, standard library and build.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint64_t kSeedLo = 0xcbf29ce484222325ull;  // FNV offset basis
constexpr std::uint64_t kSeedHi = 0x9ae16a3b2f90404full;

std::uint64_t fold(std::uint64_t acc, std::uint64_t x) {
  return (acc ^ mix64(x)) * kFnvPrime;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Rough resident-size estimate of one machine schedule: slots + segments.
std::size_t machine_bytes(const MachineSchedule& ms) {
  std::size_t bytes = ms.job_count() * sizeof(Assignment);
  for (const Assignment& a : ms.assignments()) {
    bytes += a.segments.size() * sizeof(Segment);
  }
  return bytes;
}

std::size_t schedule_bytes(const Schedule& s) {
  std::size_t bytes = s.machine_count() * sizeof(MachineSchedule);
  for (std::size_t m = 0; m < s.machine_count(); ++m) {
    bytes += machine_bytes(s.machine(m));
  }
  return bytes;
}

}  // namespace

// --- shard ------------------------------------------------------------------

struct SolveCache::Shard {
  /// One cached solve.  Slots are recycled: eviction keeps the vectors'
  /// and schedules' capacity so re-publishing into a freed slot is mostly
  /// allocation-free.
  struct Entry {
    CacheKey key;
    std::uint64_t params_sig = 0;
    std::uint32_t n = 0;
    bool live = false;
    bool referenced = false;     ///< CLOCK second-chance bit
    bool delta_capable = false;  ///< seed/full schedules populated
    bool has_strict = false;     ///< strict schedule populated too

    // Verbatim copy of the instance's job columns: the collision guard on
    // hits and the ground truth for the delta changed-mask.
    JobColumns jobs;
    std::vector<std::uint64_t> subhashes;

    ScheduleResult result;
    Schedule seed{1};
    Schedule strict_sched{1};
    Schedule full_sched{1};

    std::size_t bytes = 0;
  };

  mutable util::Mutex mutex;
  std::vector<Entry> entries POBP_GUARDED_BY(mutex);
  std::size_t bytes POBP_GUARDED_BY(mutex) = 0;
  std::size_t live POBP_GUARDED_BY(mutex) = 0;
  std::size_t clock_hand POBP_GUARDED_BY(mutex) = 0;

  std::uint64_t hits POBP_GUARDED_BY(mutex) = 0;
  std::uint64_t misses POBP_GUARDED_BY(mutex) = 0;
  std::uint64_t insertions POBP_GUARDED_BY(mutex) = 0;
  std::uint64_t evictions POBP_GUARDED_BY(mutex) = 0;
  std::uint64_t delta_hits POBP_GUARDED_BY(mutex) = 0;

  /// Index of the live entry holding `key`, or entries.size().  Linear
  /// scan over the (byte-budget-bounded) slot array: 16 bytes per probe,
  /// branch-free on the common mismatch, and immune to tombstone decay.
  std::size_t find(const CacheKey& key) const POBP_REQUIRES(mutex) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].live && entries[i].key == key) return i;
    }
    return entries.size();
  }

  /// Evicts one entry by CLOCK/second-chance.  False when nothing is live.
  bool evict_one() POBP_REQUIRES(mutex) {
    if (live == 0) return false;
    for (;;) {
      Entry& e = entries[clock_hand];
      clock_hand = (clock_hand + 1) % entries.size();
      if (!e.live) continue;
      if (e.referenced) {
        e.referenced = false;  // second chance
        continue;
      }
      e.live = false;
      bytes -= e.bytes;
      e.bytes = 0;
      --live;
      ++evictions;
      return true;
    }
  }
};

// --- construction -----------------------------------------------------------

SolveCache::SolveCache(SolveCacheOptions options) : options_(options) {
  const std::size_t count = round_up_pow2(std::max<std::size_t>(
      1, options_.shards));
  shard_mask_ = count - 1;
  shard_budget_ = std::max<std::size_t>(1, options_.max_bytes / count);
  shards_ = std::make_unique<Shard[]>(count);
}

SolveCache::~SolveCache() = default;

std::size_t SolveCache::shard_count() const { return shard_mask_ + 1; }

SolveCache::Shard& SolveCache::shard_for(std::uint64_t params_sig,
                                         std::size_t n) const {
  // Sharding on (params, n) only — not the full key — pins every possible
  // delta neighbor of an instance into the same shard, so the neighbor
  // scan happens under the single lock the lookup already holds.
  return shards_[mix64(params_sig ^ mix64(n)) & shard_mask_];
}

// --- keying -----------------------------------------------------------------

std::uint64_t SolveCache::params_signature(const ScheduleOptions& options,
                                           bool approximate) {
  std::uint64_t sig = kSeedLo;
  sig = fold(sig, options.k);
  sig = fold(sig, options.machine_count);
  sig = fold(sig, static_cast<std::uint64_t>(options.seed));
  sig = fold(sig, options.use_tm ? 1 : 0);
  // The approximate (degraded / sampled) tier keys under a disjoint
  // signature so it can never alias an exact result.
  sig = fold(sig, approximate ? 0x5eed5eed5eed5eedull : 0);
  return sig;
}

void SolveCache::job_subhashes(const JobSetView& view, std::uint64_t* out) {
  // Independent per job — no loop-carried state — so the compiler can
  // vectorize the column reads; doubles are hashed by bit pattern, which
  // is exactly the equality the determinism contract cares about.
  for (std::size_t i = 0; i < view.n; ++i) {
    std::uint64_t h = mix64(static_cast<std::uint64_t>(view.release[i]));
    h = mix64(h ^ static_cast<std::uint64_t>(view.deadline[i]));
    h = mix64(h ^ static_cast<std::uint64_t>(view.length[i]));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(view.value[i]));
    out[i] = h;
  }
}

CacheKey SolveCache::instance_key(const JobSetView& view,
                                  const std::uint64_t* subhashes,
                                  std::uint64_t params_sig) {
  CacheKey key{kSeedHi, kSeedLo};
  for (std::size_t i = 0; i < view.n; ++i) {
    // Positional mixing: lane-rotated on the hi word so swapping two jobs
    // changes both words.
    key.lo = (key.lo ^ subhashes[i]) * kFnvPrime;
    key.hi = (key.hi ^ std::rotl(subhashes[i], 31) ^ i) * kFnvPrime;
  }
  key.lo = mix64(key.lo ^ view.n);
  key.hi = mix64(key.hi ^ params_sig);
  return key;
}

// --- lookup / publish -------------------------------------------------------

namespace {

/// Byte-for-byte column equality — the collision guard.  memcmp over the
/// four contiguous columns, so the common (equal) case is a straight
/// vectorized compare.
bool columns_equal(const JobColumns& stored, const JobSetView& view) {
  if (stored.size() != view.n) return false;
  const std::size_t n = view.n;
  if (n == 0) return true;  // empty columns may have null data pointers
  return std::memcmp(stored.release.data(), view.release,
                     n * sizeof(Time)) == 0 &&
         std::memcmp(stored.deadline.data(), view.deadline,
                     n * sizeof(Time)) == 0 &&
         std::memcmp(stored.length.data(), view.length,
                     n * sizeof(Duration)) == 0 &&
         std::memcmp(stored.value.data(), view.value,
                     n * sizeof(Value)) == 0;
}

void copy_columns(const JobSetView& view, JobColumns& out) {
  out.release.assign(view.release, view.release + view.n);
  out.deadline.assign(view.deadline, view.deadline + view.n);
  out.length.assign(view.length, view.length + view.n);
  out.value.assign(view.value, view.value + view.n);
}

void assign_result(const ScheduleResult& from, ScheduleResult& to) {
  to.schedule.assign_from(from.schedule);
  to.value = from.value;
  to.unbounded_value = from.unbounded_value;
  to.degraded = from.degraded;
}

}  // namespace

bool SolveCache::try_get(const CacheKey& key, const JobSetView& jobs,
                         std::uint64_t params_sig, ScheduleResult& out) {
  Shard& shard = shard_for(params_sig, jobs.n);
  util::MutexLock lock(shard.mutex);
  const std::size_t i = shard.find(key);
  if (i == shard.entries.size()) {
    ++shard.misses;
    return false;
  }
  Shard::Entry& e = shard.entries[i];
  if (e.params_sig != params_sig || !columns_equal(e.jobs, jobs)) {
    ++shard.misses;  // 128-bit collision: treat as a miss, never serve
    return false;
  }
  e.referenced = true;
  ++shard.hits;
  assign_result(e.result, out);
  return true;
}

std::size_t SolveCache::insert(const CacheKey& key, const JobSetView& jobs,
                               const std::uint64_t* subhashes,
                               std::uint64_t params_sig,
                               const ScheduleResult& result,
                               const Schedule* seed,
                               const Schedule* strict_sched,
                               const Schedule* full_sched) {
  const bool delta_capable = seed != nullptr && full_sched != nullptr;
  const bool has_strict = delta_capable && strict_sched != nullptr;
  std::size_t need = sizeof(Shard::Entry) +
                     jobs.n * (2 * sizeof(Time) + sizeof(Duration) +
                               sizeof(Value) + sizeof(std::uint64_t)) +
                     schedule_bytes(result.schedule);
  if (delta_capable) need += schedule_bytes(*seed) + schedule_bytes(*full_sched);
  if (has_strict) need += schedule_bytes(*strict_sched);
  if (need > shard_budget_) return 0;  // would monopolize the shard

  Shard& shard = shard_for(params_sig, jobs.n);
  util::MutexLock lock(shard.mutex);
  if (shard.find(key) != shard.entries.size()) return 0;  // already published

  std::size_t evicted = 0;
  while (shard.bytes + need > shard_budget_) {
    if (!shard.evict_one()) break;
    ++evicted;
  }

  // Recycle the first dead slot (capacity-preserving) or grow by one.
  std::size_t slot = shard.entries.size();
  for (std::size_t i = 0; i < shard.entries.size(); ++i) {
    if (!shard.entries[i].live) {
      slot = i;
      break;
    }
  }
  if (slot == shard.entries.size()) shard.entries.emplace_back();
  Shard::Entry& e = shard.entries[slot];

  e.key = key;
  e.params_sig = params_sig;
  e.n = static_cast<std::uint32_t>(jobs.n);
  copy_columns(jobs, e.jobs);
  e.subhashes.assign(subhashes, subhashes + jobs.n);
  assign_result(result, e.result);
  e.delta_capable = delta_capable;
  e.has_strict = has_strict;
  if (delta_capable) {
    e.seed.assign_from(*seed);
    e.full_sched.assign_from(*full_sched);
  }
  if (has_strict) e.strict_sched.assign_from(*strict_sched);
  e.bytes = need;
  e.live = true;
  e.referenced = true;
  shard.bytes += need;
  ++shard.live;
  ++shard.insertions;
  return evicted;
}

// --- delta neighbors --------------------------------------------------------

bool SolveCache::copy_delta_neighbor(const JobSetView& jobs,
                                     const std::uint64_t* subhashes,
                                     std::uint64_t params_sig,
                                     DeltaNeighbor& out) {
  if (!delta_enabled()) return false;
  const std::size_t budget = options_.delta_max_jobs;
  Shard& shard = shard_for(params_sig, jobs.n);
  util::MutexLock lock(shard.mutex);

  // Bounded scan: sub-hash arrays are compared with an early-out counter,
  // so a non-neighbor costs O(first budget+1 diffs) column-width compares.
  constexpr std::size_t kMaxCandidates = 8;
  std::size_t candidates = 0;
  for (std::size_t i = 0;
       i < shard.entries.size() && candidates < kMaxCandidates; ++i) {
    Shard::Entry& e = shard.entries[i];
    if (!e.live || !e.delta_capable || e.params_sig != params_sig ||
        e.n != jobs.n) {
      continue;
    }
    ++candidates;
    std::size_t diffs = 0;
    for (std::size_t j = 0; j < jobs.n && diffs <= budget; ++j) {
      if (e.subhashes[j] != subhashes[j]) ++diffs;
    }
    if (diffs == 0 || diffs > budget) continue;  // exact dup or too far

    // Confirm on the columns themselves: the changed mask must mark every
    // attribute-wise difference, sub-hash collisions included, or a reused
    // machine could silently carry a stale job.
    out.changed.assign(jobs.n, 0);
    out.changed_count = 0;
    bool confirmed = true;
    for (std::size_t j = 0; j < jobs.n; ++j) {
      const bool differs = e.jobs.release[j] != jobs.release[j] ||
                           e.jobs.deadline[j] != jobs.deadline[j] ||
                           e.jobs.length[j] != jobs.length[j] ||
                           std::bit_cast<std::uint64_t>(e.jobs.value[j]) !=
                               std::bit_cast<std::uint64_t>(jobs.value[j]);
      if (differs) {
        out.changed[j] = 1;
        if (++out.changed_count > budget) {
          confirmed = false;
          break;
        }
      }
    }
    if (!confirmed || out.changed_count == 0) continue;

    out.seed.assign_from(e.seed);
    out.has_strict = e.has_strict;
    if (e.has_strict) out.strict_sched.assign_from(e.strict_sched);
    out.full_sched.assign_from(e.full_sched);
    e.referenced = true;
    ++shard.delta_hits;
    return true;
  }
  return false;
}

// --- introspection ----------------------------------------------------------

CacheStats SolveCache::stats() const {
  CacheStats total;
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    const Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.delta_hits += shard.delta_hits;
    total.bytes += shard.bytes;
    total.entries += shard.live;
  }
  return total;
}

diag::Report SolveCache::check_pressure() const {
  const CacheStats s = stats();
  diag::Report report;
  // Thrash heuristic: at least half of everything ever published has been
  // evicted again.  A warm cache evicts rarely; sustained churn means the
  // byte budget cannot hold the duplicate working set and hit rates will
  // stay near zero no matter how long the stream runs.
  if (s.insertions >= 8 && s.evictions * 2 >= s.insertions) {
    report
        .add(std::string(diag::rules::kRunCachePressure),
             "solve cache is thrashing: evictions keep pace with "
             "insertions, so entries rarely survive to their first hit; "
             "raise the cache byte budget (docs/CACHE.md)")
        .with("insertions", s.insertions)
        .with("evictions", s.evictions)
        .with("bytes", s.bytes)
        .with("budget_bytes", options_.max_bytes);
  }
  return report;
}

void SolveCache::clear() {
  for (std::size_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mutex);
    shard.entries.clear();
    shard.entries.shrink_to_fit();
    shard.bytes = 0;
    shard.live = 0;
    shard.clock_hand = 0;
  }
}

}  // namespace pobp
