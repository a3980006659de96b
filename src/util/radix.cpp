#include "pobp/util/radix.hpp"

#include <algorithm>
#include <limits>

#include "pobp/util/assert.hpp"

namespace pobp {

void RadixSort::sort() {
  const std::size_t n = entries.size();
  if (n < 2) return;
  POBP_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
  scatter_.resize(n);

  // The bytes on which some key differs from the first: the only ones
  // whose pass can move an entry.
  const std::uint64_t first = entries.front().key;
  std::uint64_t differ = 0;
  for (const RadixEntry& e : entries) differ |= e.key ^ first;
  unsigned shifts[8];
  unsigned passes = 0;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xff) != 0) shifts[passes++] = shift;
  }
  if (passes == 0) return;

  std::uint32_t counts[8][256];
  for (unsigned p = 0; p < passes; ++p) std::fill_n(counts[p], 256, 0u);
  for (const RadixEntry& e : entries) {
    for (unsigned p = 0; p < passes; ++p) {
      ++counts[p][(e.key >> shifts[p]) & 0xff];
    }
  }

  for (unsigned p = 0; p < passes; ++p) {
    std::uint32_t* const offset = counts[p];
    std::uint32_t sum = 0;
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint32_t here = offset[b];
      offset[b] = sum;
      sum += here;
    }
    const unsigned shift = shifts[p];
    for (const RadixEntry& e : entries) {
      scatter_[offset[(e.key >> shift) & 0xff]++] = e;
    }
    entries.swap(scatter_);
  }
}

}  // namespace pobp
