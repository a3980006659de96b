// Unit tests for src/util: rng, checked arithmetic, rational, stats,
// parallel_for, the radix sort, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "pobp/util/checked.hpp"
#include "pobp/util/parallel.hpp"
#include "pobp/util/radix.hpp"
#include "pobp/util/rational.hpp"
#include "pobp/util/rng.hpp"
#include "pobp/util/stats.hpp"
#include "pobp/util/table.hpp"

namespace pobp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b();
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t x = rng.uniform_int(-5, 17);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 17);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsAboutHalf) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(11);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  EXPECT_NE(child1(), child2());
}

TEST(Checked, AddSubMulBasics) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_EQ(checked_sub(2, 3), -1);
  EXPECT_EQ(checked_mul(-4, 3), -12);
}

TEST(Checked, PowBasics) {
  EXPECT_EQ(checked_pow(2, 10), 1024);
  EXPECT_EQ(checked_pow(12, 0), 1);
  EXPECT_EQ(checked_pow(1, 60), 1);
}

TEST(Checked, PowFitsInt64) {
  EXPECT_TRUE(pow_fits_int64(2, 62));
  EXPECT_FALSE(pow_fits_int64(2, 64));
  EXPECT_TRUE(pow_fits_int64(12, 17));
  EXPECT_FALSE(pow_fits_int64(12, 18));
}

TEST(Checked, ExactDiv) {
  EXPECT_EQ(exact_div(12, 4), 3);
  EXPECT_EQ(exact_div(-12, 4), -3);
}

TEST(Checked, FloorLog) {
  EXPECT_EQ(floor_log(2, 1), 0);
  EXPECT_EQ(floor_log(2, 2), 1);
  EXPECT_EQ(floor_log(2, 3), 1);
  EXPECT_EQ(floor_log(2, 1024), 10);
  EXPECT_EQ(floor_log(3, 80), 3);
  EXPECT_EQ(floor_log(3, 81), 4);
}

TEST(CheckedDeath, AddOverflowAborts) {
  EXPECT_DEATH(checked_add(INT64_MAX, 1), "overflow");
}

TEST(CheckedDeath, MulOverflowAborts) {
  EXPECT_DEATH(checked_mul(INT64_MAX / 2, 3), "overflow");
}

TEST(CheckedDeath, ExactDivNonDivisible) {
  EXPECT_DEATH(exact_div(7, 2), "not divisible");
}

TEST(Rational, NormalizesToLowestTerms) {
  const Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, NegativeDenominatorNormalized) {
  const Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
  EXPECT_EQ(Rational(4, 2), Rational(2));
  EXPECT_LE(Rational(-1, 2), Rational(0));
}

TEST(Rational, ToInt) {
  EXPECT_EQ(Rational(8, 2).to_int(), 4);
  EXPECT_TRUE(Rational(8, 2).is_integer());
  EXPECT_FALSE(Rational(7, 2).is_integer());
}

TEST(Rational, PowAndPaperLaxity) {
  // λ = 1 + 1/(3K−1) for K = 2 is 6/5.
  const Rational lambda = Rational(1) + Rational(1, 3 * 2 - 1);
  EXPECT_EQ(lambda, Rational(6, 5));
  EXPECT_EQ(pow(Rational(1, 2), 3), Rational(1, 8));
}

TEST(Rational, CrossReducedMultiplicationAvoidsOverflow) {
  // (a/b)·(b/a) with large a, b would overflow without cross-reduction.
  const std::int64_t big = 3'000'000'000LL;
  EXPECT_EQ(Rational(big, 7) * Rational(7, big), Rational(1));
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  Rng rng(13);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real(-10, 10);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(Percentile, ExactValues) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 5.5);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    count++;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, NestedCallsFallBackToSerial) {
  std::atomic<int> count{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { count++; });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, WaitIdleDrainsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { done++; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

/// RadixSort's oracle: std::stable_sort by key.
std::vector<RadixEntry> stable_by_key(std::vector<RadixEntry> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const RadixEntry& a, const RadixEntry& b) {
                     return a.key < b.key;
                   });
  return entries;
}

bool same_entries(const std::vector<RadixEntry>& a,
                  const std::vector<RadixEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const RadixEntry& x, const RadixEntry& y) {
                      return x.key == y.key && x.payload == y.payload;
                    });
}

TEST(RadixSort, MatchesAStableSortWhicheverBytesDiffer) {
  // Keys share a random base and differ only under a mask — one low, one
  // middle or one top byte, alternate bytes, or all of them — drawn from a
  // few values (long runs of equal keys: stability) or from many.  Each
  // payload is the entry's input position, so a pass that reorders equal
  // keys or skips a byte on which keys differ shows.  One RadixSort sorts
  // every case, larger and smaller, as a warm scratch does.
  Rng rng(91);
  RadixSort sort;
  const std::uint64_t masks[] = {
      0xff,  0xff00, 0xff000000, 0xff00000000000000, 0x00ff00ff00ff00ff,
      0xffff000000000000, ~std::uint64_t{0}};
  for (const std::size_t n :
       {0, 1, 2, 3, 17, 255, 256, 257, 1000, 4096, 100, 5}) {
    for (const std::uint64_t mask : masks) {
      for (const std::uint64_t pool : {std::uint64_t{3}, std::uint64_t{0}}) {
        const std::uint64_t base = rng();
        std::vector<std::uint64_t> values(pool);
        for (std::uint64_t& v : values) v = base ^ (rng() & mask);
        sort.entries.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t key =
              pool != 0 ? values[rng() % pool] : base ^ (rng() & mask);
          sort.entries[i] = {key, static_cast<std::uint32_t>(i)};
        }
        const std::vector<RadixEntry> want = stable_by_key(sort.entries);
        sort.sort();
        ASSERT_TRUE(same_entries(sort.entries, want))
            << "n " << n << ", mask " << std::hex << mask << ", pool "
            << pool;
      }
    }
  }
}

TEST(RadixSort, EqualKeysKeepTheirOrder) {
  RadixSort sort;
  for (std::uint32_t i = 0; i < 300; ++i) {
    sort.entries.push_back({i % 2 == 0 ? 7u : 0xff00000000000007u, i});
  }
  const std::vector<RadixEntry> want = stable_by_key(sort.entries);
  sort.sort();
  EXPECT_TRUE(same_entries(sort.entries, want));
  // No byte differs: nothing moves.
  for (RadixEntry& e : sort.entries) e.key = 42;
  const std::vector<RadixEntry> unchanged = sort.entries;
  sort.sort();
  EXPECT_TRUE(same_entries(sort.entries, unchanged));
}

TEST(RadixSort, OffsetsAreExactAcrossTheInt64Range) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(radix_offset(kMax, kMin), ~std::uint64_t{0});
  EXPECT_EQ(radix_offset(kMin, kMin), 0u);
  EXPECT_EQ(radix_offset(0, kMin), std::uint64_t{1} << 63);
  EXPECT_EQ(radix_offset(-1, kMin), (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(radix_offset(kMax, -1), std::uint64_t{1} << 63);
  EXPECT_EQ(radix_offset(5, -3), 8u);
}

TEST(Table, RendersAlignedRows) {
  Table t("demo", {"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({Table::fmt(std::int64_t{42}), Table::fmt(3.14159, 2), "x"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableDeath, RowWidthMismatchAborts) {
  Table t("demo", {"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

}  // namespace
}  // namespace pobp
