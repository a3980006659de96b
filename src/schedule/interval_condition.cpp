#include "pobp/schedule/interval_condition.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "pobp/diag/registry.hpp"

namespace pobp {
namespace {

struct Item {
  Time release;
  Time deadline;
  Duration length;
};

/// Core sweep over explicit items.  For every release value r, scan items
/// with r_j >= r in deadline order and accumulate demand; the first time
/// the running demand overflows the interval [r, d_j], call
/// `on_overload(r, d_j, demand, capacity, witnesses)` and move to the next
/// release.  Returning false stops the whole sweep.
///
/// Demand and capacity are unsigned: d_j − r lies in [1, 2^64) for
/// r ≤ r_j < d_j, which int64 cannot always hold, and a demand past
/// 2^64 − 1 exceeds every capacity (it is reported saturated).
template <typename OverloadFn>
void interval_sweep(std::vector<Item> items, OverloadFn&& on_overload) {
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.deadline < b.deadline;
  });
  std::vector<Time> releases;
  releases.reserve(items.size());
  for (const Item& it : items) releases.push_back(it.release);
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()),
                 releases.end());

  for (const Time r : releases) {
    std::uint64_t demand = 0;
    std::size_t witnesses = 0;
    for (const Item& it : items) {  // deadline order
      if (it.release < r) continue;
      ++witnesses;
      const auto capacity = static_cast<std::uint64_t>(it.deadline) -
                            static_cast<std::uint64_t>(r);
      const bool past_max = __builtin_add_overflow(
          demand, static_cast<std::uint64_t>(it.length), &demand);
      if (past_max || demand > capacity) {
        if (past_max) demand = std::numeric_limits<std::uint64_t>::max();
        if (!on_overload(r, it.deadline, demand, capacity, witnesses)) return;
        break;  // one finding per release point; try the next r
      }
    }
  }
}

std::vector<Item> collect(const JobSet& jobs, std::span<const JobId> subset) {
  std::vector<Item> items;
  items.reserve(subset.size());
  for (const JobId id : subset) {
    const Job& j = jobs[id];
    items.push_back({j.release, j.deadline, j.length});
  }
  return items;
}

}  // namespace

bool preemptive_feasible(const JobSet& jobs, std::span<const JobId> subset) {
  bool feasible = true;
  interval_sweep(collect(jobs, subset),
                 [&](Time, Time, std::uint64_t, std::uint64_t, std::size_t) {
                   feasible = false;
                   return false;  // first overload settles the predicate
                 });
  return feasible;
}

void diagnose_interval_condition(const JobSet& jobs,
                                 std::span<const JobId> subset,
                                 diag::Report& report,
                                 std::optional<diag::Severity> severity) {
  interval_sweep(
      collect(jobs, subset),
      [&](Time r, Time d, std::uint64_t demand, std::uint64_t capacity,
          std::size_t witnesses) {
        std::ostringstream os;
        os << "interval [" << r << ", " << d << "] demands " << demand
           << " units of work but offers only " << capacity << " ("
           << witnesses << " jobs with windows inside it)";
        diag::Location loc;
        loc.begin = r;
        loc.end = d;
        auto& diagnostic =
            severity ? report.add(std::string(diag::rules::kIntervalOverload),
                                  *severity, os.str(), loc)
                     : report.add(std::string(diag::rules::kIntervalOverload),
                                  os.str(), loc);
        diagnostic.with("demand", demand)
            .with("capacity", capacity)
            .with("jobs", witnesses);
        return true;  // report every overloaded release point
      });
}

bool FeasibilityOracle::try_add(JobId id) {
  members_.push_back(id);
  // A full re-check is O(n²); for the B&B depths we use (n ≤ ~26) the
  // simplicity is worth more than an incremental data structure.
  if (preemptive_feasible(*jobs_, members_)) return true;
  members_.pop_back();
  return false;
}

void FeasibilityOracle::pop() {
  POBP_ASSERT(!members_.empty());
  members_.pop_back();
}

}  // namespace pobp
