// E-ENGINE — batch-solve throughput of pobp::Engine vs worker count.
//
// Streams a fixed corpus of random instances through Engine::solve_batch_into
// at worker counts 1/2/4/8 and reports instances/sec and speedup over the
// 1-worker baseline.  Also re-checks the engine's determinism contract:
// every worker count must produce bit-identical schedules (batch dispatch
// decides which session solves an instance, never its result).
//
//   bench_engine_throughput [--smoke] [--instances N] [--repeats R]
//                           [--dup-rate R] [--json PATH] [--gate-allocs N]
//                           [--gate-scaling X] [--lenient-scaling]
//                           [--gate-cache-speedup X] [--gate-hit-allocs N]
//
// --smoke shrinks the corpus for CI (tools/ci_check.sh).  The speedup
// column is reported, not asserted by default: single-core runners
// legitimately show ~1x for every worker count.
//
// --dup-rate R adds the solve-cache experiment (docs/CACHE.md): a stream
// where each request is, with probability R, an exact duplicate of an
// earlier one, solved cache-off vs cold-cache vs warm-cache on one warmed
// single-worker engine.  Emits cache_off_dup_stream / cache_dup_stream /
// cache_warm_hit ns/op, the realized hit rate, and the warm-hit allocs/op
// (the O(1) copy-out contract).  --gate-cache-speedup X fails when the
// warm-cache pass is not at least X times faster than cache-off;
// --gate-hit-allocs N bounds warm-hit allocs/op (ci_check pins it to 0).
//
// Gates (tools/ci_check.sh perf stage):
//   --gate-allocs N    fail when steady-state allocs/solve exceeds N
//                      (machine-independent — always meaningful);
//   --gate-scaling X   fail when the 8-worker throughput is below X times
//                      the 1-worker throughput (only meaningful with ≥ 8
//                      real cores);
//   --lenient-scaling  demote a --gate-scaling failure to a warning — for
//                      CI runners with fewer cores than workers, where the
//                      floor is physically unreachable.
//
// --json writes BENCH_engine.json for the perf-regression gate
// (tools/bench_compare): ns/instance and instances/s at workers 1 and 8,
// the w8 scaling efficiency (speedup / 8, ungated — machine-sensitive),
// and the steady-state heap allocations per solve on a warmed session —
// the pooled result-arena contract that tools/ci_check.sh enforces
// strictly.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pobp/pobp.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/util/alloccount.hpp"
#include "pobp/util/rng.hpp"
#include "pobp/util/table.hpp"
#include "pobp/util/timing.hpp"

namespace pobp {
namespace {

std::vector<JobSet> make_corpus(std::size_t count) {
  Rng rng(20180616);  // SPAA'18
  std::vector<JobSet> instances;
  for (std::size_t i = 0; i < count; ++i) {
    JobGenConfig config;
    config.n = 24 + (i % 5) * 8;
    config.max_length = 1 << 7;
    config.horizon = 1 << 13;
    instances.push_back(random_jobs(config, rng));
  }
  return instances;
}

std::string fingerprint(const std::vector<ScheduleResult>& results) {
  std::string out;
  for (const ScheduleResult& r : results) {
    out += io::schedule_to_csv(r.schedule);
    out += '\n';
  }
  return out;
}

struct Gates {
  double max_allocs = -1;    ///< < 0 = no allocation gate
  double min_scaling = -1;   ///< < 0 = no scaling gate (w8 ≥ X · w1)
  bool lenient_scaling = false;
  double min_cache_speedup = -1;  ///< < 0 = no dup-stream speedup gate
  double max_hit_allocs = -1;     ///< < 0 = no warm-hit allocation gate
};

/// A request stream over `distinct` where each slot is, with probability
/// `dup_rate`, an exact duplicate of an earlier slot — the serving-loop
/// shape the solve cache targets (docs/CACHE.md).  Deterministic: the
/// stream depends only on (corpus, dup_rate).
std::vector<JobSet> dup_stream(const std::vector<JobSet>& distinct,
                               double dup_rate, std::size_t length) {
  Rng rng(424242);
  std::vector<JobSet> stream;
  stream.reserve(length);
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (fresh > 0 && rng.bernoulli(dup_rate)) {
      stream.push_back(distinct[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(fresh) - 1)) %
                                distinct.size()]);
    } else {
      stream.push_back(distinct[fresh % distinct.size()]);
      ++fresh;
    }
  }
  return stream;
}

/// The solve-cache experiment: a duplicate-heavy stream through one warmed
/// single-worker engine, cache off vs cold cache vs warm cache.  Reports
/// ns/op for each, the realized hit rate, and the warm-hit allocation
/// count (the O(1) copy-out contract: 0 allocs/op).  Returns the gate
/// failure count.
int run_cache(const std::vector<JobSet>& distinct, double dup_rate,
              bench::JsonWriter& json, const Gates& gates, bool counting) {
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};
  // Sized so the expected count of first occurrences equals the distinct
  // corpus: longer streams would wrap and push the realized duplicate
  // fraction above dup_rate.
  const std::size_t stream_len =
      dup_rate < 1.0
          ? static_cast<std::size_t>(
                static_cast<double>(distinct.size()) / (1.0 - dup_rate))
          : distinct.size() * 4;
  const std::vector<JobSet> stream = dup_stream(distinct, dup_rate,
                                                stream_len);
  std::vector<ScheduleResult> results;

  // Cache off: the baseline every duplicate pays full price for.
  double off_ns = 0;
  std::string expected;
  {
    Engine engine({.schedule = schedule, .workers = 1});
    engine.solve_batch_into(stream, {}, results);  // grow scratch + arena
    const Stopwatch timer;
    engine.solve_batch_into(stream, {}, results);
    off_ns = timer.seconds() * 1e9 / static_cast<double>(stream.size());
    expected = fingerprint(results);
  }
  json.metric("cache_off_dup_stream").ns(off_ns);

  // Cold cache over the same stream: first occurrences miss (and publish),
  // duplicates hit.  The engine is warmed first and the cache then
  // cleared, so the measured pass isolates cache behaviour from arena
  // growth.
  auto cache = std::make_shared<SolveCache>();
  Engine engine({.schedule = schedule,
                 .workers = 1,
                 .cache = cache,
                 .cache_mode = CacheMode::kReadWrite});
  engine.solve_batch_into(stream, {}, results);  // grow scratch + arena
  cache->clear();
  const EngineMetrics before = engine.metrics();
  double cold_ns = 0;
  {
    const Stopwatch timer;
    engine.solve_batch_into(stream, {}, results);
    cold_ns = timer.seconds() * 1e9 / static_cast<double>(stream.size());
  }
  if (fingerprint(results) != expected) {
    std::cerr << "FAIL: cached results differ from the cache-off baseline\n";
    return 1;
  }
  const EngineMetrics after = engine.metrics();
  const double hits = static_cast<double>(after.cache_hits -
                                          before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses -
                                            before.cache_misses);
  const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  json.metric("cache_dup_stream").ns(cold_ns);
  json.metric("cache_hit_rate").val(hit_rate);

  // Warm cache: every request hits — the O(1) copy-out path.
  double hit_ns = 0;
  double hit_allocs = -1;
  {
    bench::Metric& m = json.metric("cache_warm_hit");
    const Stopwatch timer;
    if (counting) {
      const alloccount::Scope scope;
      engine.solve_batch_into(stream, {}, results);
      hit_allocs = static_cast<double>(scope.allocations()) /
                   static_cast<double>(stream.size());
    } else {
      engine.solve_batch_into(stream, {}, results);
    }
    hit_ns = timer.seconds() * 1e9 / static_cast<double>(stream.size());
    m.ns(hit_ns);
    if (hit_allocs >= 0) m.allocs(hit_allocs);
  }
  if (fingerprint(results) != expected) {
    std::cerr << "FAIL: warm-hit results differ from the cache-off "
                 "baseline\n";
    return 1;
  }

  const double dup_speedup = cold_ns > 0 ? off_ns / cold_ns : 0;
  const double hit_speedup = hit_ns > 0 ? off_ns / hit_ns : 0;
  json.metric("cache_dup_speedup").val(dup_speedup);
  json.metric("cache_warm_speedup").val(hit_speedup);

  Table table("solve cache, " + Table::fmt(dup_rate * 100, 0) +
                  "% duplicate stream",
              {"mode", "ns/op", "speedup", "hit rate"});
  table.add_row({"cache off", Table::fmt(off_ns, 0), "1.00", "-"});
  table.add_row({"cold cache", Table::fmt(cold_ns, 0),
                 Table::fmt(dup_speedup, 2), Table::fmt(hit_rate, 3)});
  table.add_row({"warm cache", Table::fmt(hit_ns, 0),
                 Table::fmt(hit_speedup, 2), "1.000"});
  bench::emit(table);
  std::cout << "cache determinism: cached, warm-hit and uncached streams "
               "bit-identical over "
            << stream.size() << " requests\n";
  if (hit_allocs >= 0) {
    std::cout << "warm-hit allocs/op: " << hit_allocs << "\n";
  }

  int failures = 0;
  if (gates.min_cache_speedup >= 0) {
    // Gated on the warm-cache pass: the cold pass is structurally bounded
    // by 1 / miss-rate (every first occurrence still pays a full solve),
    // while the warm pass isolates the hit path the cache exists for.
    if (hit_speedup + 1e-9 < gates.min_cache_speedup) {
      std::cerr << "GATE cache speedup: warm-cache " << hit_speedup
                << "x below the floor of " << gates.min_cache_speedup
                << "x on the " << dup_rate * 100 << "% duplicate stream\n";
      ++failures;
    } else {
      std::cout << "gate cache speedup: ok (warm-cache " << hit_speedup
                << "x >= " << gates.min_cache_speedup << "x)\n";
    }
  }
  if (gates.max_hit_allocs >= 0) {
    if (hit_allocs < 0) {
      std::cerr << "GATE hit allocs: counting disarmed, cannot enforce\n";
      ++failures;
    } else if (hit_allocs > gates.max_hit_allocs) {
      std::cerr << "GATE hit allocs: " << hit_allocs
                << " allocs/op on the warm-hit path exceeds the limit of "
                << gates.max_hit_allocs << "\n";
      ++failures;
    } else {
      std::cout << "gate hit allocs: ok (" << hit_allocs << " <= "
                << gates.max_hit_allocs << ")\n";
    }
  }
  return failures;
}

int run(std::size_t instance_count, std::size_t repeats, double dup_rate,
        const std::string& json_path, const Gates& gates) {
  const std::vector<JobSet> instances = make_corpus(instance_count);
  const ScheduleOptions schedule{.k = 1, .machine_count = 2};
  const bool counting = alloccount::arm();

  bench::banner("E-ENGINE", "engine throughput",
                "solve_batch is deterministic across worker counts and "
                "scales with available cores");

  bench::JsonWriter json("engine");
  Table table("engine throughput",
              {"workers", "instances/s", "speedup", "mean solve ms"});
  double baseline = 0;
  double rate_w8 = 0;
  std::string expected;
  std::vector<ScheduleResult> results;  // reused: the harvest pattern
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    Engine engine({.schedule = schedule, .workers = workers});
    std::string got;
    for (std::size_t r = 0; r < repeats; ++r) {
      engine.solve_batch_into(instances, {}, results);
      got = fingerprint(results);
    }
    if (workers == 1) {
      expected = got;
    } else if (got != expected) {
      std::cerr << "FAIL: results with " << workers
                << " workers differ from the 1-worker baseline\n";
      return 1;
    }

    const EngineMetrics m = engine.metrics();
    const double rate = m.instances_per_second();
    if (workers == 1) baseline = rate;
    if (workers == 8) rate_w8 = rate;
    if (workers == 1 || workers == 8) {
      json.metric("solve_batch_w" + std::to_string(workers))
          .ns(rate > 0 ? 1e9 / rate : 0)
          .ops(rate);
    }
    table.add_row({Table::fmt(static_cast<std::uint64_t>(workers)),
                   Table::fmt(rate, 1),
                   Table::fmt(baseline > 0 ? rate / baseline : 0.0, 2),
                   Table::fmt(m.solve_seconds.mean() * 1e3, 3)});
  }
  bench::emit(table);
  std::cout << "\ndeterminism: all worker counts bit-identical over "
            << instance_count << " instances x " << repeats << " repeats\n";

  const double speedup_w8 = baseline > 0 ? rate_w8 / baseline : 0;
  json.metric("scaling_efficiency_w8").val(speedup_w8 / 8.0);
  std::cout << "scaling: w8 speedup " << speedup_w8 << "x (efficiency "
            << speedup_w8 / 8.0 << ")\n";

  // Steady-state allocations per solve: one warmed single-worker engine
  // solving into a reused results vector — the serving-loop shape.  The
  // warmup batch grows every scratch buffer and every pooled result
  // schedule; the measured batch must then stay off the heap.  This is the
  // result-arena contract — machine-independent and compared strictly by
  // tools/bench_compare (and gated absolutely by --gate-allocs).
  double steady_allocs = -1;
  {
    Engine engine({.schedule = schedule, .workers = 1});
    engine.solve_batch_into(instances, {}, results);  // grow scratch + arena
    bench::Metric& m = json.metric("steady_allocs_per_solve");
    if (counting) {
      const alloccount::Scope scope;
      engine.solve_batch_into(instances, {}, results);
      steady_allocs = static_cast<double>(scope.allocations()) /
                      static_cast<double>(instances.size());
      m.allocs(steady_allocs);
      std::cout << "steady-state allocs/solve: " << steady_allocs << "\n";
    } else {
      std::cout << "steady-state allocs/solve: (counting disarmed)\n";
    }
  }

  int failures = 0;
  if (dup_rate >= 0) {
    failures += run_cache(instances, dup_rate, json, gates, counting);
  }

  if (!json_path.empty() && !json.write(json_path)) return 1;

  if (gates.max_allocs >= 0) {
    if (steady_allocs < 0) {
      std::cerr << "GATE allocs: counting disarmed, cannot enforce\n";
      ++failures;
    } else if (steady_allocs > gates.max_allocs) {
      std::cerr << "GATE allocs: " << steady_allocs
                << " allocs/solve exceeds the limit of " << gates.max_allocs
                << "\n";
      ++failures;
    } else {
      std::cout << "gate allocs: ok (" << steady_allocs << " <= "
                << gates.max_allocs << ")\n";
    }
  }
  if (gates.min_scaling >= 0) {
    if (speedup_w8 + 1e-9 < gates.min_scaling) {
      if (gates.lenient_scaling) {
        std::cout << "gate scaling: WARN w8 speedup " << speedup_w8
                  << "x below the floor of " << gates.min_scaling
                  << "x (lenient mode: not failing)\n";
      } else {
        std::cerr << "GATE scaling: w8 speedup " << speedup_w8
                  << "x below the floor of " << gates.min_scaling << "x\n";
        ++failures;
      }
    } else {
      std::cout << "gate scaling: ok (w8 speedup " << speedup_w8 << "x >= "
                << gates.min_scaling << "x)\n";
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace pobp

int main(int argc, char** argv) {
  std::size_t instances = 64;
  std::size_t repeats = 3;
  double dup_rate = -1;
  std::string json_path;
  pobp::Gates gates;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      instances = 8;
      repeats = 1;
    } else if (arg == "--instances" && i + 1 < argc) {
      instances = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--dup-rate" && i + 1 < argc) {
      dup_rate = std::strtod(argv[++i], nullptr);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--gate-allocs" && i + 1 < argc) {
      gates.max_allocs = std::strtod(argv[++i], nullptr);
    } else if (arg == "--gate-scaling" && i + 1 < argc) {
      gates.min_scaling = std::strtod(argv[++i], nullptr);
    } else if (arg == "--lenient-scaling") {
      gates.lenient_scaling = true;
    } else if (arg == "--gate-cache-speedup" && i + 1 < argc) {
      gates.min_cache_speedup = std::strtod(argv[++i], nullptr);
    } else if (arg == "--gate-hit-allocs" && i + 1 < argc) {
      gates.max_hit_allocs = std::strtod(argv[++i], nullptr);
    } else {
      std::cerr << "usage: bench_engine_throughput [--smoke] "
                   "[--instances N] [--repeats R] [--dup-rate R] "
                   "[--json PATH] [--gate-allocs N] [--gate-scaling X] "
                   "[--lenient-scaling] [--gate-cache-speedup X] "
                   "[--gate-hit-allocs N]\n";
      return 2;
    }
  }
  return pobp::run(instances, repeats, dup_rate, json_path, gates);
}
