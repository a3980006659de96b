// One stable LSD radix sort for the orders of the exact solve path.
//
// Every order the exact path sorts by is an integer, or monotone in one:
// the greedy seed's (release, id) ranking, the density order of the seed
// and of LSA, the schedule forest's segment timeline and the validator's
// exclusivity sweep (docs/PERF.md, "Radix orders").  Each caller maps its
// order onto a u64 key, lets a u32 payload — an id, a rank, a position —
// ride along, and sorts here:
//
//  * one counting pass histograms every byte on which some key differs
//    from the first; a byte all keys share costs nothing, so keys offset
//    from their minimum (radix_offset) cost one pass per byte of their
//    span, not of their magnitude;
//  * one scatter pass per counted byte, least significant first.  Each
//    pass is stable, so equal keys keep their input order, and sorts
//    compose: sorting by id and then by release gives (release, id) order;
//  * the scatter buffer lives in the caller's RadixSort, kept warm in its
//    scratch, so a warm sort allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

namespace pobp {

/// One sort entry: the key it is ordered by and the payload it carries.
struct RadixEntry {
  std::uint64_t key = 0;
  std::uint32_t payload = 0;
};

/// The key of `value` in a sort of values no smaller than `min`: value −
/// min, exact for every pair of int64s with value ≥ min, and ordered as
/// the values are.
inline std::uint64_t radix_offset(std::int64_t value, std::int64_t min) {
  return static_cast<std::uint64_t>(value) - static_cast<std::uint64_t>(min);
}

/// A stable LSD radix sort and its storage: the caller fills `entries`,
/// sort() orders them by key, equal keys in their input order.  Both
/// buffers keep their capacity, so a warm RadixSort sorts without
/// allocating.
class RadixSort {
 public:
  std::vector<RadixEntry> entries;

  /// Orders `entries` by key, stably.  Requires fewer than 2^32 entries.
  void sort();

 private:
  std::vector<RadixEntry> scatter_;  ///< the passes' other buffer
};

}  // namespace pobp
