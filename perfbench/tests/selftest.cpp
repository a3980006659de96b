// Tests of the benchmark's own arithmetic: span self time, the percentile
// rule and the metric-name grammar.  Exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

using perfbench::Span;
using perfbench::SpanName;

Span span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.name = SpanName::kSolve;
  return s;
}

void test_self_times() {
  // Root [0, 100) with nested children: child [10, 40) holds a grandchild
  // [15, 25); the grandchild counts against the child only.
  {
    const std::vector<Span> spans = {span(0, 100, -1), span(10, 40, 0),
                                     span(15, 25, 1)};
    const auto self = perfbench::self_times(spans);
    expect(self[0] == 70, "root self time excludes its direct child");
    expect(self[1] == 20, "child self time excludes the grandchild");
    expect(self[2] == 10, "leaf self time is its duration");
  }
  // Adjacent children [0, 5) and [5, 10) in [0, 12): 2 left.
  {
    const std::vector<Span> spans = {span(0, 12, -1), span(0, 5, 0),
                                     span(5, 10, 0)};
    expect(perfbench::self_times(spans)[0] == 2, "adjacent children");
  }
  // Overlapping children are counted once; a child sticking out of its
  // parent is clipped to it.
  {
    const std::vector<Span> spans = {span(10, 30, -1), span(12, 20, 0),
                                     span(15, 25, 0), span(28, 40, 0)};
    // Covered: [12, 25) and [28, 30) -> 15 of 20.
    expect(perfbench::self_times(spans)[0] == 5,
           "overlapping children counted once, clipped to the parent");
  }
  // A root with no children keeps all of it; an inverted span reads 0.
  {
    const std::vector<Span> spans = {span(5, 9, -1), span(9, 5, -1)};
    const auto self = perfbench::self_times(spans);
    expect(self[0] == 4 && self[1] == 0, "childless and inverted spans");
  }
}

void test_percentile_rule() {
  using perfbench::supported_percentile;
  expect(supported_percentile(19) == 0, "19 samples support no percentile");
  expect(supported_percentile(20) == 50, "20 samples support the median");
  expect(supported_percentile(40) == 75, "40 samples support p75");
  expect(supported_percentile(999) == 95, "999 samples fall short of p99");
  expect(supported_percentile(1000) == 99, "1000 samples support p99");
  expect(supported_percentile(10000) == 99.9, "10000 samples support p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const perfbench::Tail t99 = perfbench::tail(v, 99);
  expect(t99.percentile == 99 && t99.value == 990 && t99.n == 1000,
         "p99 of 1..1000 is 990 by nearest rank");
  const perfbench::Tail capped = perfbench::tail({1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                  10, 11, 12, 13, 14, 15, 16,
                                                  17, 18, 19, 20, 21, 22},
                                                 99);
  expect(capped.percentile == 50 && capped.value == 11,
         "p99 of 22 samples is capped to the median");
  expect(perfbench::tail({}, 50).n == 0, "empty sample");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("op_p50_ms"), "underscores");
  expect(valid_metric_name("cache.hit_us.p99"), "dots");
  expect(valid_metric_name("engine.queue_wait_us.mean"), "mean suffix");
  expect(valid_metric_name("9lives-ok"), "leading digit and dash");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".hidden"), "leading dot");
  expect(!valid_metric_name("has space"), "space");
  expect(!valid_metric_name("slash/unit"), "slash");
  expect(!valid_metric_name(std::string(65, 'a')), "over 64 characters");

  perfbench::MetricSink sink;
  sink.add("ok_name", 1.5, "ms");
  sink.add("ok_name", 2, "ms");
  sink.add("bad name", 1, "ms");
  expect(sink.errors().size() == 2, "duplicate and malformed names rejected");
}

}  // namespace

int main() {
  test_self_times();
  test_percentile_rule();
  test_metric_names();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
