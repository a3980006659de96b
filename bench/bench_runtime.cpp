// E9 — runtime claims (google-benchmark).
//
// The paper states TM and LevelledContraction run in O(|V|) (§3.2/§3.3);
// EDF and LSA are sort/heap dominated.  Each benchmark sweeps the input
// size so the per-element time (reported via SetComplexityN) exposes the
// growth rate.
#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>

#include "pobp/bas/contraction.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/pobp.hpp"
#include "pobp/flow/migrative.hpp"
#include "pobp/io/wire.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/reduction/rebuild.hpp"
#include "pobp/schedule/edf.hpp"
#include "pobp/reduction/schedule_forest.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/gen/forest_gen.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/gen/schedule_gen.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/util/alloccount.hpp"
#include "pobp/util/budget.hpp"
#include "pobp/util/checked.hpp"
#include "pobp/util/rng.hpp"

namespace pobp {
namespace {

Forest make_forest(std::size_t n) {
  Rng rng(42);
  ForestGenConfig config;
  config.nodes = n;
  config.max_degree = 8;
  return random_forest(config, rng);
}

LaminarInstance make_laminar(std::size_t n) {
  Rng rng(43);
  LaminarGenConfig config;
  config.target_jobs = n;
  return random_laminar_instance(config, rng);
}

JobSet make_lax_jobs(std::size_t n) {
  Rng rng(44);
  JobGenConfig config;
  config.n = n;
  config.min_length = 1;
  config.max_length = 1024;
  config.min_laxity = 2.0;
  config.max_laxity = 8.0;
  config.horizon = static_cast<Time>(64) * static_cast<Time>(n);
  return random_jobs(config, rng);
}

void BM_TmOptimalBas(benchmark::State& state) {
  const Forest f = make_forest(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm_optimal_bas(f, 2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TmOptimalBas)->Range(1 << 10, 1 << 20)->Complexity(benchmark::oN);

void BM_LevelledContraction(benchmark::State& state) {
  const Forest f = make_forest(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(levelled_contraction(f, 2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LevelledContraction)
    ->Range(1 << 10, 1 << 20)
    ->Complexity(benchmark::oNLogN);

void BM_EdfSimulator(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  const std::vector<JobId> ids = all_ids(inst.jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(edf_schedule(inst.jobs, ids));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EdfSimulator)
    ->Range(1 << 10, 1 << 17)
    ->Complexity(benchmark::oNLogN);

void BM_Laminarize(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(laminarize(inst.jobs, inst.schedule));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Laminarize)->Range(1 << 10, 1 << 16)->Complexity(benchmark::oNLogN);

void BM_ScheduleForestBuild(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_schedule_forest(inst.jobs, inst.schedule));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScheduleForestBuild)
    ->Range(1 << 10, 1 << 17)
    ->Complexity(benchmark::oN);

void BM_FullReduction(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reduce_to_k_preemptive(inst.jobs, inst.schedule, 2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullReduction)
    ->Range(1 << 10, 1 << 16)
    ->Complexity(benchmark::oNLogN);

void BM_LsaCs(benchmark::State& state) {
  const JobSet jobs = make_lax_jobs(static_cast<std::size_t>(state.range(0)));
  const std::vector<JobId> ids = all_ids(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsa_cs(jobs, ids, 2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LsaCs)->Range(1 << 8, 1 << 14)->Complexity();

void BM_Validator(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_machine(inst.jobs, inst.schedule));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Validator)->Range(1 << 10, 1 << 17)->Complexity(benchmark::oNLogN);

void BM_OptInfinityBB(benchmark::State& state) {
  Rng rng(45);
  JobGenConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  config.max_length = 64;
  config.max_laxity = 3.0;
  config.horizon = 40 * 64;
  const JobSet jobs = random_jobs(config, rng);
  const std::vector<JobId> ids = all_ids(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt_infinity(jobs, ids));
  }
}
BENCHMARK(BM_OptInfinityBB)->DenseRange(10, 22, 4);


/// Records steady-state heap allocations per iteration as the "allocs_op"
/// counter (0 when the binary's counting hooks are disarmed, e.g. under the
/// sanitizer presets).  tools/bench_compare gates this strictly: the pooled
/// stages must stay allocation-free once their scratch has warmed up.
class AllocMeter {
 public:
  explicit AllocMeter(benchmark::State& state) : state_(state) {
    armed_ = pobp::alloccount::arm();
    start_ = pobp::alloccount::allocations();
  }
  ~AllocMeter() {
    state_.counters["allocs_op"] = benchmark::Counter(
        armed_ ? static_cast<double>(pobp::alloccount::allocations() - start_)
               : 0.0,
        benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  bool armed_ = false;
  std::uint64_t start_ = 0;
};

void BM_TmOptimalBasPooled(benchmark::State& state) {
  const Forest f = make_forest(static_cast<std::size_t>(state.range(0)));
  TmScratch scratch;
  TmResult result;
  tm_optimal_bas(f, 2, scratch, result);  // warm the scratch + result
  AllocMeter meter(state);
  for (auto _ : state) {
    tm_optimal_bas(f, 2, scratch, result);
    benchmark::DoNotOptimize(result.value);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TmOptimalBasPooled)
    ->Range(1 << 10, 1 << 20)
    ->Complexity(benchmark::oN);

// The whole greedy ∞-preemptive seed (ranking and density sort, one
// EdfAdmission probe per candidate per pass, the final EDF schedules) on a
// warm GreedyScratch.  The lax instance is about twice as long as its
// horizon, so roughly half the candidates are rejected by machine 0.
void greedy_seed_pooled(benchmark::State& state, std::size_t machines) {
  const JobSet jobs = make_lax_jobs(static_cast<std::size_t>(state.range(0)));
  const std::vector<JobId> ids = all_ids(jobs);
  GreedyScratch scratch;
  Schedule out(machines);
  greedy_infinity_multi_into(jobs, ids, machines, scratch, out);  // warm
  AllocMeter meter(state);
  for (auto _ : state) {
    greedy_infinity_multi_into(jobs, ids, machines, scratch, out);
    benchmark::DoNotOptimize(out.machine(0).job_count());
  }
  state.SetComplexityN(state.range(0));
}

void BM_GreedySeedPooled(benchmark::State& state) {
  greedy_seed_pooled(state, 1);
}
BENCHMARK(BM_GreedySeedPooled)
    ->Range(1 << 10, 1 << 12)
    ->Complexity(benchmark::oNLogN);

// Three machines, the shape of batch_large's (k, m) = (1, 3) group: passes
// 2 and 3 reuse the first pass's ranking and density order.
void BM_GreedySeedPooled3(benchmark::State& state) {
  greedy_seed_pooled(state, 3);
}
BENCHMARK(BM_GreedySeedPooled3)->Arg(1 << 10);

// The schedule forest of a laminar schedule (§4.1) on a warm
// ForestBuildScratch and ScheduleForest: the radix timeline, the sweep and
// the CSR segments and spans.
void BM_ScheduleForestBuildPooled(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  ScheduleForest sf;
  ForestBuildScratch scratch;
  build_schedule_forest(inst.jobs, inst.schedule, sf, scratch);  // warm
  AllocMeter meter(state);
  for (auto _ : state) {
    build_schedule_forest(inst.jobs, inst.schedule, sf, scratch);
    benchmark::DoNotOptimize(sf.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScheduleForestBuildPooled)
    ->Range(1 << 10, 1 << 12)
    ->Complexity(benchmark::oN);

void BM_FullReductionPooled(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  ReductionScratch scratch;
  (void)reduce_to_k_preemptive(inst.jobs, inst.schedule, 2, nullptr,
                               &scratch);  // warm the scratch
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_to_k_preemptive(inst.jobs, inst.schedule,
                                                    2, nullptr, &scratch));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullReductionPooled)
    ->Range(1 << 10, 1 << 16)
    ->Complexity(benchmark::oNLogN);

// One `pobp serve` request frame through io::try_parse_serve_request: the
// tape pass, the field reads and the request the call returns.  The frame
// carries n jobs of the serve workloads' shape, values written as %.17g
// digits.  With the thread's tape warm, the only allocations left are the
// request's own four job columns: none per job (docs/PERF.md, "Wire parse
// and frame writer").
void BM_ParseServeRequest(benchmark::State& state) {
  Rng rng(48);
  JobGenConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  config.max_length = 128;
  config.horizon = 4096;
  config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
  std::string line =
      "{\"id\":\"req-1\",\"tenant\":\"t1\",\"k\":1,\"machines\":2,"
      "\"jobs\":[";
  for (const Job& j : random_jobs(config, rng)) {
    if (line.back() != '[') line += ',';
    line += '[' + std::to_string(j.release) + ',' +
            std::to_string(j.deadline) + ',' + std::to_string(j.length) + ',';
    io::append_number(line, j.value);
    line += ']';
  }
  line += "],\"schedule\":true}";
  POBP_CHECK(io::try_parse_serve_request(line, 1).has_value());  // warm
  {
    AllocMeter meter(state);  // closed before SetItemsProcessed allocates
    for (auto _ : state) {
      auto request = io::try_parse_serve_request(line, 1);
      benchmark::DoNotOptimize(request);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseServeRequest)->Arg(64)->Arg(256);

// BudgetGuard::poll() cost, uninstalled (the common case: a thread-local
// pointer test) and installed (atomic op count + amortized clock check).
// docs/PERF.md relates these to the per-iteration stage costs above to
// substantiate the "< 1% overhead" claim.
void BM_BudgetPollUninstalled(benchmark::State& state) {
  for (auto _ : state) {
    BudgetGuard::poll();
  }
}
BENCHMARK(BM_BudgetPollUninstalled);

void BM_BudgetPollInstalled(benchmark::State& state) {
  SolveBudget budget;
  budget.deadline_s = 1e9;  // installed but never fires
  BudgetGuard guard(budget);
  const BudgetGuard::Scope scope(&guard);
  for (auto _ : state) {
    BudgetGuard::poll();
  }
}
BENCHMARK(BM_BudgetPollInstalled);

// --- SoA/SIMD kernel rows (docs/PERF.md "Kernel microbenchmarks") -----------
//
// Each vectorized kernel is paired with a *ScalarRef row: a bench-local
// copy of the pre-SoA scalar implementation, run on the same input.  One
// run of this binary therefore measures the speedup directly (tools/
// bench_compare prints the X / XScalarRef ratio), and each pair asserts
// result equality at setup so the rows can never drift apart silently.

Forest make_wide_forest(std::size_t n) {
  Rng rng(47);
  ForestGenConfig config;
  config.nodes = n;
  config.max_degree = 64;  // wide parents: the child merge dominates
  return random_forest(config, rng);
}

/// Pre-SoA TM DP, complete: per-node CSR child walks over id-indexed t/m
/// arrays with a comparator-based top-k selection, then the top-down
/// decision pass — the full algorithm the slot-indexed kernel replaced.
struct ScalarTmRef {
  std::vector<Value> t, m;
  std::vector<char> keep;
  std::vector<NodeId> topk;
  std::vector<std::pair<NodeId, char>> stack;
};

Value scalar_ref_tm(const Forest& forest, std::size_t k, ScalarTmRef& s) {
  enum : char { kRetain = 0, kPruneUp = 1 };
  const std::size_t n = forest.size();
  auto& t = s.t;
  auto& m = s.m;
  t.assign(n, 0);
  m.assign(n, 0);
  s.keep.assign(n, 0);
  const auto top_k_children = [&](NodeId u) -> std::span<const NodeId> {
    const std::span<const NodeId> kids = forest.children(u);
    if (kids.size() <= k) return kids;
    s.topk.assign(kids.begin(), kids.end());
    std::nth_element(s.topk.begin(),
                     s.topk.begin() + static_cast<std::ptrdiff_t>(k),
                     s.topk.end(), [&](NodeId a, NodeId b) {
                       if (t[a] != t[b]) return t[a] > t[b];
                       return a < b;
                     });
    return {s.topk.data(), k};
  };
  for (std::size_t i = n; i-- > 0;) {
    BudgetGuard::poll();
    const NodeId u = static_cast<NodeId>(i);
    Value t_u = forest.value(u);
    for (const NodeId c : top_k_children(u)) t_u += t[c];
    Value m_u = 0;
    for (const NodeId c : forest.children(u)) m_u += std::max(t[c], m[c]);
    t[u] = t_u;
    m[u] = m_u;
  }
  auto& stack = s.stack;
  stack.clear();
  for (const NodeId r : forest.roots()) {
    stack.emplace_back(r, t[r] >= m[r] ? kRetain : kPruneUp);
  }
  while (!stack.empty()) {
    const auto [u, decision] = stack.back();
    stack.pop_back();
    if (decision == kRetain) {
      s.keep[u] = 1;
      for (const NodeId c : top_k_children(u)) stack.emplace_back(c, kRetain);
    } else {
      for (const NodeId c : forest.children(u)) {
        stack.emplace_back(c, t[c] >= m[c] ? kRetain : kPruneUp);
      }
    }
  }
  Value total = 0;
  for (const NodeId r : forest.roots()) total += std::max(t[r], m[r]);
  return total;
}

void BM_TmChildMerge(benchmark::State& state) {
  const Forest f = make_wide_forest(static_cast<std::size_t>(state.range(0)));
  TmScratch scratch;
  TmResult result;
  tm_optimal_bas(f, 2, scratch, result);  // warm the scratch + result
  AllocMeter meter(state);
  for (auto _ : state) {
    tm_optimal_bas(f, 2, scratch, result);
    benchmark::DoNotOptimize(result.value);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TmChildMerge)->Range(1 << 12, 1 << 16)->Complexity(benchmark::oN);

void BM_TmChildMergeScalarRef(benchmark::State& state) {
  const Forest f = make_wide_forest(static_cast<std::size_t>(state.range(0)));
  ScalarTmRef ref;
  {  // the pair must agree before it is worth timing
    TmScratch scratch;
    TmResult result;
    tm_optimal_bas(f, 2, scratch, result);
    POBP_CHECK(scalar_ref_tm(f, 2, ref) == result.value);
    POBP_CHECK(ref.keep == result.selection.keep);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar_ref_tm(f, 2, ref));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TmChildMergeScalarRef)
    ->Range(1 << 12, 1 << 16)
    ->Complexity(benchmark::oN);

// The EDF loop has no vectorized part left, so this row has no scalar
// twin; tests/test_edf.cpp keeps the earlier loop as its exactness oracle.
// The pooled schedule on a laminar instance: a warm scratch and output.
void BM_EdfSweep(benchmark::State& state) {
  const LaminarInstance inst =
      make_laminar(static_cast<std::size_t>(state.range(0)));
  const std::vector<JobId> ids = all_ids(inst.jobs);
  EdfScratch scratch;
  MachineSchedule out;
  const JobSetView view = inst.jobs;
  (void)edf_schedule_into(view, ids, scratch, out);  // warm
  AllocMeter meter(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(edf_schedule_into(view, ids, scratch, out));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EdfSweep)->Range(1 << 12, 1 << 16)->Complexity(benchmark::oNLogN);

/// Pre-SoA LSA_CS classification: per-job ilogb / floor_log class and a
/// stable_sort of (class, id) pairs.
void scalar_ref_classify(const JobSet& jobs, std::span<const JobId> ids,
                         std::size_t base,
                         std::vector<std::pair<std::size_t, JobId>>& classes) {
  classes.clear();
  classes.reserve(ids.size());
  for (const JobId id : ids) {
    classes.emplace_back(
        floor_log(static_cast<std::int64_t>(base), jobs[id].length), id);
  }
  std::stable_sort(
      classes.begin(), classes.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
}

void BM_LsaClassify(benchmark::State& state) {
  const JobSet jobs = make_lax_jobs(static_cast<std::size_t>(state.range(0)));
  const std::vector<JobId> ids = all_ids(jobs);
  LsaScratch scratch;
  const JobSetView view = jobs;
  (void)lsa_classify(view, ids, 2, ClassifyBy::kLength, scratch);
  AllocMeter meter(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsa_classify(view, ids, 2, ClassifyBy::kLength, scratch));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LsaClassify)->Range(1 << 12, 1 << 16)->Complexity();

void BM_LsaClassifyScalarRef(benchmark::State& state) {
  const JobSet jobs = make_lax_jobs(static_cast<std::size_t>(state.range(0)));
  const std::vector<JobId> ids = all_ids(jobs);
  std::vector<std::pair<std::size_t, JobId>> classes;
  {  // grouped output must match the SIMD + counting-sort path exactly
    LsaScratch scratch;
    (void)lsa_classify(jobs, ids, 2, ClassifyBy::kLength, scratch);
    scalar_ref_classify(jobs, ids, 3, classes);
    POBP_CHECK(classes == scratch.classes);
  }
  for (auto _ : state) {
    scalar_ref_classify(jobs, ids, 3, classes);
    benchmark::DoNotOptimize(classes.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LsaClassifyScalarRef)->Range(1 << 12, 1 << 16)->Complexity();

/// Pre-SoA validate_machine_fast: scalar per-segment predicate loop plus a
/// comparator-sorted TaggedSegment timeline for machine exclusivity.
bool scalar_ref_validate(
    const JobSet& jobs, const MachineSchedule& ms,
    std::vector<MachineSchedule::TaggedSegment>& timeline) {
  for (const Assignment& a : ms.assignments()) {
    if (a.job >= jobs.size()) return false;
    const Job& job = jobs[a.job];
    if (a.segments.empty()) return false;
    Duration scheduled = 0;
    std::size_t prev = a.segments.size();
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
      const Segment& seg = a.segments[i];
      if (seg.empty()) return false;
      if (seg.begin < job.release || seg.end > job.deadline) return false;
      if (prev != a.segments.size() && a.segments[prev].end > seg.begin) {
        return false;
      }
      prev = i;
      scheduled += seg.length();
    }
    if (scheduled != job.length) return false;
  }
  ms.timeline_into(timeline);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    if (timeline[i - 1].segment.end > timeline[i].segment.begin) {
      return false;
    }
  }
  return true;
}

/// A preemption-heavy feasible instance: n/64 jobs × 64 unit segments each,
/// round-robin interleaved.  Wide segment lists drive the validator's 4-lane
/// predicate loop, and the exclusivity sweep sees all n segments — the two
/// halves of the kernel this row measures.
struct RoundRobinInstance {
  JobSet jobs;
  Schedule schedule{1};
};

RoundRobinInstance make_round_robin(std::size_t total_segments) {
  constexpr std::size_t kSegsPerJob = 64;
  const std::size_t jobs_n = std::max<std::size_t>(1, total_segments / kSegsPerJob);
  RoundRobinInstance inst;
  const Time horizon = static_cast<Time>(jobs_n * kSegsPerJob);
  for (std::size_t j = 0; j < jobs_n; ++j) {
    inst.jobs.add(Job{0, horizon, kSegsPerJob, 1.0});
  }
  std::vector<Segment> segs(kSegsPerJob);
  for (std::size_t j = 0; j < jobs_n; ++j) {
    for (std::size_t s = 0; s < kSegsPerJob; ++s) {
      const Time b = static_cast<Time>(s * jobs_n + j);
      segs[s] = {b, b + 1};
    }
    inst.schedule.machine(0).append_sorted(static_cast<JobId>(j), segs);
  }
  return inst;
}

void BM_ValidateFast(benchmark::State& state) {
  const RoundRobinInstance inst =
      make_round_robin(static_cast<std::size_t>(state.range(0)));
  ValidateScratch scratch;
  POBP_CHECK(
      validate_fast(inst.jobs, inst.schedule, kUnboundedPreemptions, scratch));
  AllocMeter meter(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_fast(inst.jobs, inst.schedule,
                                           kUnboundedPreemptions, scratch));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ValidateFast)
    ->Range(1 << 12, 1 << 16)
    ->Complexity(benchmark::oNLogN);

void BM_ValidateFastScalarRef(benchmark::State& state) {
  const RoundRobinInstance inst =
      make_round_robin(static_cast<std::size_t>(state.range(0)));
  std::vector<MachineSchedule::TaggedSegment> timeline;
  POBP_CHECK(
      scalar_ref_validate(inst.jobs, inst.schedule.machine(0), timeline));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scalar_ref_validate(inst.jobs, inst.schedule.machine(0), timeline));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ValidateFastScalarRef)
    ->Range(1 << 12, 1 << 16)
    ->Complexity(benchmark::oNLogN);

void BM_MigrativeFeasibility(benchmark::State& state) {
  Rng rng(46);
  JobGenConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  config.max_length = 256;
  config.max_laxity = 4.0;
  config.horizon = 64 * static_cast<Time>(state.range(0));
  const JobSet jobs = random_jobs(config, rng);
  const std::vector<JobId> ids = all_ids(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(migrative_feasible(jobs, ids, 4));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MigrativeFeasibility)->Range(1 << 4, 1 << 9)->Complexity();

}  // namespace
}  // namespace pobp
