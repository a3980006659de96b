#include "pobp/lsa/lsa.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "pobp/schedule/timeline.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/checked.hpp"
#include "pobp/util/simd.hpp"

namespace pobp {
namespace {

/// Fills `scratch.order` with the candidates in the configured greedy
/// order (ties by id, deterministic).
void consideration_order(const JobSetView& jobs,
                         std::span<const JobId> candidates, LsaOrder order,
                         LsaScratch& scratch) {
  auto& out = scratch.order;
  if (order == LsaOrder::kDensity) {
    sort_denser_first(jobs, candidates, scratch.density);
    out.resize(candidates.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = candidates[scratch.density.entries[i].payload];
    }
  } else {
    out.assign(candidates.begin(), candidates.end());
    std::sort(out.begin(), out.end(), [&](JobId a, JobId b) {
      if (jobs.value[a] != jobs.value[b]) return jobs.value[a] > jobs.value[b];
      return a < b;
    });
  }
}

/// Factor-2 class of a positive finite double, straight from the IEEE-754
/// exponent bits: max(0, ilogb(x) − ilogb(1e-30)) with ilogb(1e-30) = −100.
/// For normal x the biased exponent (bits >> 52, sign bit is 0) is
/// ilogb(x) + 1023, so the class is max(0, (bits >> 52) − 923); subnormals
/// have biased exponent 0 and true ilogb < −1022 < −100, so both
/// formulations clamp to class 0 — identical for every positive finite x.
std::uint32_t ratio2_class(double x) {
  POBP_ASSERT(x > 0);
  std::int64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  const std::int64_t cls = (bits >> 52) - 923;
  return static_cast<std::uint32_t>(cls < 0 ? 0 : cls);
}

/// Tries to place job `id` with at most k+1 segments; returns true and
/// occupies the timeline on success.  `working` and `placed` are reusable
/// staging buffers.
bool try_place(const JobSetView& jobs, JobId id, std::size_t k,
               IdleTimeline& timeline, MachineSchedule& schedule,
               std::vector<Segment>& working, std::vector<Segment>& placed) {
  const Duration job_length = jobs.length[id];
  const Segment window{jobs.release[id], jobs.deadline[id]};
  const std::size_t cap = k + 1;

  // Working set S: the current candidate idle segments, kept in time order.
  working.clear();
  Duration sum = 0;
  Time cursor = window.begin;
  bool exhausted = false;

  auto fetch_next = [&]() -> bool {
    const auto gap = timeline.next_idle(cursor, window);
    if (!gap) {
      exhausted = true;
      return false;
    }
    working.push_back(*gap);
    sum += gap->length();
    cursor = gap->end;
    return true;
  };

  // Start with the leftmost ≤ k+1 idle segments (line 12 of Alg. 2).
  while (working.size() < cap && fetch_next()) {
  }

  for (;;) {
    BudgetGuard::poll();  // one operation per working-set exchange
    if (sum >= job_length) {
      // Schedule leftmost: fill the members of S in time order.
      Duration todo = job_length;
      placed.clear();
      for (const Segment& slot : working) {
        if (todo == 0) break;
        const Duration take = std::min(todo, slot.length());
        placed.push_back({slot.begin, slot.begin + take});
        todo -= take;
      }
      POBP_DASSERT(todo == 0);
      for (const Segment& s : placed) timeline.occupy(s);
      schedule.append_sorted(id, {placed.data(), placed.size()});
      return true;
    }
    if (exhausted || working.empty()) return false;
    // Remove the shortest member of S and replace it with the next idle
    // segment to the right (line 18).
    const auto shortest = std::min_element(
        working.begin(), working.end(), [](const Segment& a, const Segment& b) {
          if (a.length() != b.length()) return a.length() < b.length();
          return a.begin < b.begin;
        });
    sum -= shortest->length();
    working.erase(shortest);
    fetch_next();
    if (exhausted && sum < job_length) return false;
  }
}

/// Alg. 2 on one empty machine, offering the jobs in the order given.
void place_in_order(const JobSetView& jobs, std::span<const JobId> ordered,
                    std::size_t k, LsaScratch& scratch, LsaResult& out) {
  out.schedule.clear();
  out.scheduled.clear();
  out.rejected.clear();
  scratch.timeline.clear();
  for (const JobId id : ordered) {
    BudgetGuard::poll();  // one operation per placement attempt
    if (try_place(jobs, id, k, scratch.timeline, out.schedule, scratch.working,
                  scratch.placed)) {
      out.scheduled.push_back(id);
    } else {
      out.rejected.push_back(id);
    }
  }
}

}  // namespace

std::size_t length_class(Duration length, std::size_t base) {
  POBP_ASSERT(base >= 2 && length >= 1);
  return static_cast<std::size_t>(
      floor_log(static_cast<std::int64_t>(base), length));
}

std::size_t lsa_classify(const JobSetView& jobs,
                         std::span<const JobId> candidates, std::size_t k,
                         ClassifyBy by, LsaScratch& scratch) {
  const std::size_t base = std::max<std::size_t>(k + 1, 2);
  const std::size_t m = candidates.size();
  auto& cls_of = scratch.class_of;
  cls_of.resize(m);
  std::uint32_t max_cls = 0;

  if (by == ClassifyBy::kLength) {
    // Gather the lengths into one contiguous run (the classify loop below
    // then uses plain vector loads), tracking the maximum: it bounds the
    // boundary table, so the compare-accumulate never touches powers no
    // candidate can reach.
    auto& vals = scratch.class_vals;
    vals.resize(m);
    std::int64_t max_len = 1;
    for (std::size_t i = 0; i < m; ++i) {
      const Duration len = jobs.length[candidates[i]];
      POBP_ASSERT(len >= 1);
      vals[i] = len;
      max_len = std::max<std::int64_t>(max_len, len);
    }
    // Boundary table: the powers base^c (c ≥ 1) up to max_len.
    // length_class(p) = #{c ≥ 1 : base^c ≤ p} — exact integer compares
    // replacing floor_log's division loop, and the count over the table is
    // one 4-lane compare-accumulate per boundary.
    auto& bounds = scratch.class_bounds;
    bounds.clear();
    const auto b64 = static_cast<std::int64_t>(base);
    for (std::int64_t p = b64; p <= max_len; p *= b64) {
      bounds.push_back(p);
      if (p > max_len / b64) break;  // next power exceeds max_len
    }
    const std::size_t nb = bounds.size();
    std::size_t i = 0;
    for (; i + simd::kLanes <= m; i += simd::kLanes) {
      const simd::i64x4 len = simd::load_i64(vals.data() + i);
      simd::i64x4 acc = simd::broadcast_i64(0);
      for (std::size_t c = 0; c < nb; ++c) {
        // Lanes are -1 where bounds[c] <= len; subtracting counts them.
        acc = simd::sub_i64(acc,
                            simd::cmp_le(simd::broadcast_i64(bounds[c]), len));
      }
      for (std::size_t j = 0; j < simd::kLanes; ++j) {
        cls_of[i + j] = static_cast<std::uint32_t>(simd::lane(acc, j));
      }
    }
    for (; i < m; ++i) {
      const std::int64_t len = vals[i];
      std::uint32_t c = 0;
      while (c < nb && bounds[c] <= len) ++c;
      cls_of[i] = c;
    }
    // The candidate holding max_len counts every boundary, so the largest
    // class is exactly nb (0 when there are no candidates).
    max_cls = m == 0 ? 0 : static_cast<std::uint32_t>(nb);
  } else {
    std::size_t i = 0;
    double buf[simd::kLanes];
    for (; i + simd::kLanes <= m; i += simd::kLanes) {
      for (std::size_t j = 0; j < simd::kLanes; ++j) {
        const JobId id = candidates[i + j];
        const double x =
            by == ClassifyBy::kValue ? jobs.value[id] : jobs.density(id);
        POBP_ASSERT(x > 0);
        buf[j] = x;
      }
      const simd::i64x4 bits = simd::bitcast_i64(simd::load_f64(buf));
      const simd::i64x4 cls = simd::max_i64(
          simd::sub_i64(simd::shr_i64(bits, 52), simd::broadcast_i64(923)),
          simd::broadcast_i64(0));
      for (std::size_t j = 0; j < simd::kLanes; ++j) {
        const auto c = static_cast<std::uint32_t>(simd::lane(cls, j));
        cls_of[i + j] = c;
        max_cls = std::max(max_cls, c);
      }
    }
    for (; i < m; ++i) {
      const JobId id = candidates[i];
      const double x =
          by == ClassifyBy::kValue ? jobs.value[id] : jobs.density(id);
      const std::uint32_t c = ratio2_class(x);
      cls_of[i] = c;
      max_cls = std::max(max_cls, c);
    }
  }

  // Counting sort over the bounded class range: stable by construction, so
  // the grouped (class, id) pairs are exactly what a stable sort by class
  // over candidates order produces.
  auto& counts = scratch.class_counts;
  counts.assign(static_cast<std::size_t>(max_cls) + 2, 0);
  for (std::size_t i = 0; i < m; ++i) ++counts[cls_of[i] + 1];
  std::size_t distinct = 0;
  for (std::size_t c = 1; c < counts.size(); ++c) {
    if (counts[c] != 0) ++distinct;
    counts[c] += counts[c - 1];
  }
  auto& classes = scratch.classes;
  classes.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    classes[counts[cls_of[i]]++] = {cls_of[i], candidates[i]};
  }
  return distinct;
}

void lsa_into(const JobSetView& jobs, std::span<const JobId> candidates,
              std::size_t k, LsaOrder order, LsaScratch& scratch,
              LsaResult& out) {
  consideration_order(jobs, candidates, order, scratch);
  place_in_order(jobs, scratch.order, k, scratch, out);
}

LsaResult lsa(const JobSetView& jobs, std::span<const JobId> candidates,
              std::size_t k, LsaOrder order) {
  LsaScratch scratch;
  LsaResult result;
  lsa_into(jobs, candidates, k, order, scratch, result);
  return result;
}

void lsa_cs_into(const JobSetView& jobs, std::span<const JobId> candidates,
                 std::size_t k, ClassifyBy by, LsaOrder order,
                 LsaScratch& scratch, LsaResult& out) {
  POBP_ASSERT(&out != &scratch.attempt);
  out.schedule.clear();
  out.scheduled.clear();
  out.rejected.clear();
  if (candidates.empty()) return;

  // Bucket by class: grouped in ascending class order.  The candidates
  // are put in consideration order once, and the classify stage's counting
  // sort is stable, so each class's members come out in the order sorting
  // that class alone would give: the order is a strict total order.
  consideration_order(jobs, candidates, order, scratch);
  lsa_classify(jobs, scratch.order, k, by, scratch);

  Value best_value = -1;
  auto& classes = scratch.classes;
  auto& members = scratch.class_members;
  for (std::size_t i = 0; i < classes.size();) {
    const std::size_t cls = classes[i].first;
    members.clear();
    for (; i < classes.size() && classes[i].first == cls; ++i) {
      members.push_back(classes[i].second);
    }
    BudgetGuard::poll();  // one operation per class attempt
    place_in_order(jobs, members, k, scratch, scratch.attempt);
    // Same assignment-order summation as MachineSchedule::total_value.
    Value v = 0;
    for (const Assignment& a : scratch.attempt.schedule.assignments()) {
      v += jobs.value[a.job];
    }
    if (v > best_value) {
      best_value = v;
      // The losing result's storage swaps back into the staging slot and
      // gets recycled by the next class attempt.
      std::swap(out, scratch.attempt);
    }
  }
  // J_out of the winner = everything not scheduled by the winning class.
  out.rejected.clear();
  for (const JobId id : candidates) {
    if (!out.schedule.contains(id)) out.rejected.push_back(id);
  }
}

LsaResult lsa_cs(const JobSetView& jobs, std::span<const JobId> candidates,
                 std::size_t k, ClassifyBy by, LsaOrder order) {
  LsaScratch scratch;
  LsaResult best;
  lsa_cs_into(jobs, candidates, k, by, order, scratch, best);
  return best;
}

void lsa_cs_multi_into(const JobSetView& jobs,
                       std::span<const JobId> candidates, std::size_t k,
                       std::size_t machine_count, LsaScratch& scratch,
                       Schedule& out) {
  POBP_CHECK(machine_count >= 1);
  out.reset(machine_count);
  auto& remaining = scratch.residual;
  remaining.assign(candidates.begin(), candidates.end());
  for (std::size_t m = 0; m < machine_count && !remaining.empty(); ++m) {
    lsa_cs_into(jobs, remaining, k, ClassifyBy::kLength, LsaOrder::kDensity,
                scratch, scratch.cs_best);
    out.machine(m).assign_from(scratch.cs_best.schedule);
    remaining.assign(scratch.cs_best.rejected.begin(),
                     scratch.cs_best.rejected.end());
  }
}

Schedule lsa_cs_multi(const JobSetView& jobs,
                      std::span<const JobId> candidates, std::size_t k,
                      std::size_t machine_count) {
  LsaScratch scratch;
  Schedule out(machine_count);
  lsa_cs_multi_into(jobs, candidates, k, machine_count, scratch, out);
  return out;
}

}  // namespace pobp
