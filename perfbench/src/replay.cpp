#include "replay.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "pobp/bas/tm.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/reduction/rebuild.hpp"
#include "pobp/reduction/schedule_forest.hpp"
#include "pobp/schedule/laminar.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/budget.hpp"

namespace perfbench {
namespace {

using pobp::Assignment;
using pobp::JobId;
using pobp::MachineSchedule;
using pobp::Schedule;
using pobp::SolveDeltaHint;

// The two delta-reuse predicates of k_preemption_combined_multi_into,
// restated here because the replay re-runs that function's body stage by
// stage.  A result mismatch against the engine flags any drift.
bool machine_reusable(const MachineSchedule& cur, const MachineSchedule& prev,
                      const std::uint8_t* changed) {
  if (cur.job_count() != prev.job_count()) return false;
  const std::span<const Assignment> ca = cur.assignments();
  const std::span<const Assignment> pa = prev.assignments();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (ca[i].job != pa[i].job) return false;
    if (changed[ca[i].job] != 0) return false;
    if (ca[i].segments != pa[i].segments) return false;
  }
  return true;
}

bool hint_usable(const SolveDeltaHint* delta, std::size_t machines) {
  return delta != nullptr && delta->seed != nullptr &&
         delta->strict_sched != nullptr && delta->full_sched != nullptr &&
         delta->job_changed != nullptr &&
         delta->seed->machine_count() == machines &&
         delta->strict_sched->machine_count() == machines &&
         delta->full_sched->machine_count() == machines;
}

}  // namespace

std::uint64_t result_digest(const pobp::ScheduleResult& result) {
  Digest d;
  d.add(result.schedule.machine_count());
  for (const MachineSchedule& ms : result.schedule.machines()) {
    d.add(ms.job_count());
    for (const Assignment& a : ms.assignments()) {
      d.add(a.job);
      d.add(a.segments.size());
      for (const pobp::Segment& s : a.segments) {
        d.add(static_cast<std::uint64_t>(s.begin));
        d.add(static_cast<std::uint64_t>(s.end));
      }
    }
  }
  d.add_double(result.value);
  d.add_double(result.unbounded_value);
  d.add(result.degraded ? 1 : 0);
  return d.h;
}

Replayer::Replayer(Tracer& tracer, pobp::SolveCache* cache)
    : tracer_(tracer), cache_(cache) {}

bool Replayer::solve(std::uint32_t request, const ReplayRequest& req,
                     pobp::ScheduleResult& out) {
  ++counts.solves;
  patched_ = false;
  const std::int64_t t0 = now_ns();
  bool answered = true;
  {
    const SpanScope root(tracer_, SpanName::kSolve, request, -1);
    answered = run(request, root.index(), req, out);
  }
  if (patched_) {
    counts.delta_solve_ns += now_ns() - t0;
    measure_delta(req, out);
  }
  return answered;
}

bool Replayer::run(std::uint32_t request, std::int32_t root,
                   const ReplayRequest& req, pobp::ScheduleResult& out) {
  if (!req.budget.has_value() || req.budget->unlimited()) {
    pipeline(request, root, req, out);
    return true;
  }
  // The engine's budgeted path: one guard around the full pipeline; when
  // it fires, the degrade policy answers on the approximate path.
  pobp::BudgetGuard guard(*req.budget);
  try {
    const pobp::BudgetGuard::Scope scope(&guard);
    pipeline(request, root, req, out);
    return true;
  } catch (const pobp::BudgetError&) {
    if (!req.degrade) {
      ++counts.failed;
      out = pobp::ScheduleResult{};
      return false;
    }
  }
  degraded(request, root, req, out);
  return true;
}

void Replayer::measure_delta(const ReplayRequest& req,
                             const pobp::ScheduleResult& answer) {
  // What the hint saves: the same Alg. 3 step, untraced and outside the
  // request's span, with and without the hint (best of two alternating
  // runs each).  Both must reproduce the answer.
  const pobp::JobSet& jobs = *req.jobs;
  pobp::CombinedOptions options;
  options.k = req.options.k;
  options.use_tm = req.options.use_tm;
  options.tm_fork_min_nodes = req.options.tm_fork_min_nodes;
  const SolveDeltaHint hint{&delta_.seed, &delta_.strict_sched,
                            &delta_.full_sched, delta_.changed.data()};
  std::int64_t best[2] = {INT64_MAX, INT64_MAX};  // with, without
  pobp::ScheduleResult check;
  for (int round = 0; round < 2; ++round) {
    for (int without = 0; without < 2; ++without) {
      const std::int64_t t0 = now_ns();
      pobp::k_preemption_combined_multi_into(jobs, s_.seed, options, nullptr,
                                             s_, check.schedule,
                                             without ? nullptr : &hint);
      best[without] = std::min(best[without], now_ns() - t0);
      check.value = check.schedule.total_value(jobs);
      check.unbounded_value = answer.unbounded_value;
      check.degraded = answer.degraded;
      if (result_digest(check) != result_digest(answer)) {
        ++counts.delta_mismatch;
      }
    }
  }
  counts.delta_with_ns += best[0];
  counts.delta_without_ns += best[1];
  ++counts.delta_replays;
}

pobp::CacheKey Replayer::key(std::uint32_t request, std::int32_t parent,
                             const pobp::JobSet& jobs,
                             const pobp::ScheduleOptions& options,
                             bool approximate, std::uint64_t& params_sig) {
  const SpanScope span(tracer_, SpanName::kCacheKey, request, parent);
  s_.columns.build(jobs);
  params_sig = pobp::SolveCache::params_signature(options, approximate);
  s_.subhashes.resize(jobs.size());
  pobp::SolveCache::job_subhashes(s_.columns.view(), s_.subhashes.data());
  return pobp::SolveCache::instance_key(s_.columns.view(), s_.subhashes.data(),
                                        params_sig);
}

void Replayer::pipeline(std::uint32_t request, std::int32_t root,
                        const ReplayRequest& req, pobp::ScheduleResult& out) {
  const pobp::JobSet& jobs = *req.jobs;
  const pobp::ScheduleOptions& options = req.options;
  const bool cacheable = cache_ != nullptr && !jobs.empty() &&
                         req.cache_mode != pobp::CacheMode::kOff;
  pobp::CacheKey cache_key{};
  std::uint64_t params_sig = 0;
  if (cacheable) {
    cache_key = key(request, root, jobs, options, false, params_sig);
    ++counts.cache_lookups;
    bool hit = false;
    {
      const SpanScope span(tracer_, SpanName::kCacheGet, request, root);
      hit = cache_->try_get(cache_key, s_.columns.view(), params_sig, out);
    }
    if (hit) {
      ++counts.cache_hits;
      return;
    }
    ++counts.cache_misses;
  }

  out.value = 0;
  out.unbounded_value = 0;
  out.degraded = false;
  out.schedule.reset(options.machine_count);
  if (jobs.empty()) return;

  seed(request, root, jobs, options, false);
  out.unbounded_value = s_.seed.total_value(jobs);

  if (options.k == 0) {
    const SpanScope core(tracer_, SpanName::kCoreK0, request, root);
    s_.remaining.assign(s_.ids.begin(), s_.ids.end());
    for (std::size_t m = 0;
         m < options.machine_count && !s_.remaining.empty(); ++m) {
      counts.lax_offered += s_.remaining.size();
      {
        const SpanScope span(tracer_, SpanName::kLsa, request, core.index());
        pobp::schedule_nonpreemptive_into(jobs, s_.remaining, nullptr, s_.lsa,
                                          out.schedule.machine(m));
      }
      counts.lax_placed += out.schedule.machine(m).job_count();
      std::erase_if(s_.remaining, [&](JobId id) {
        return out.schedule.machine(m).contains(id);
      });
    }
  } else {
    pobp::CombinedOptions combined_options;
    combined_options.k = options.k;
    combined_options.use_tm = options.use_tm;
    combined_options.tm_fork_min_nodes = options.tm_fork_min_nodes;
    SolveDeltaHint hint;
    const SolveDeltaHint* delta = nullptr;
    if (cacheable && cache_->delta_enabled()) {
      bool found = false;
      {
        const SpanScope span(tracer_, SpanName::kCacheDelta, request, root);
        found = cache_->copy_delta_neighbor(s_.columns.view(),
                                            s_.subhashes.data(), params_sig,
                                            delta_);
      }
      if (found) {
        hint.seed = &delta_.seed;
        hint.strict_sched = &delta_.strict_sched;
        hint.full_sched = &delta_.full_sched;
        hint.job_changed = delta_.changed.data();
        delta = &hint;
        ++counts.delta_found;
        patched_ = true;
      }
    }
    combined(request, root, jobs, combined_options, delta, out.schedule);
  }
  out.value = out.schedule.total_value(jobs);

  bool valid = false;
  {
    const SpanScope span(tracer_, SpanName::kValidate, request, root);
    valid = pobp::validate_fast(jobs, out.schedule, options.k, s_.validate);
  }
  if (!valid) ++counts.invalid;
  if (cacheable && valid && req.cache_mode == pobp::CacheMode::kReadWrite) {
    const bool delta_capable = options.k != 0;
    const SpanScope span(tracer_, SpanName::kCacheInsert, request, root);
    counts.evictions += cache_->insert(
        cache_key, s_.columns.view(), s_.subhashes.data(), params_sig, out,
        delta_capable ? &s_.seed : nullptr,
        delta_capable ? &s_.strict_sched : nullptr,
        delta_capable ? &s_.full_sched : nullptr);
    ++counts.inserts;
  }
}

void Replayer::seed(std::uint32_t request, std::int32_t parent,
                    const pobp::JobSet& jobs,
                    const pobp::ScheduleOptions& options, bool approximate) {
  // The greedy seed polls the active BudgetGuard once per EDF feasibility
  // probe, so the guard's operation count is the probe count.  A request
  // without a budget gets an unlimited guard for the seed only; the stages
  // after it run as the engine ran them.
  pobp::BudgetGuard unlimited{pobp::SolveBudget{}};
  pobp::BudgetGuard* const active = pobp::BudgetGuard::active();
  pobp::BudgetGuard& guard = active != nullptr ? *active : unlimited;
  const pobp::BudgetGuard::Scope scope(&guard);
  const std::uint64_t before = guard.ops();
  ++counts.seeds;
  s_.ids.resize(jobs.size());
  std::iota(s_.ids.begin(), s_.ids.end(), JobId{0});
  try {
    const SpanScope span(tracer_, SpanName::kSeed, request, parent);
    if (approximate) {
      s_.columns.build(jobs);
      pobp::greedy_infinity_multi_into(s_.columns.view(), s_.ids,
                                       options.machine_count, s_.greedy,
                                       s_.seed);
    } else {
      pobp::seed_unbounded_schedule_into(jobs, options, s_.ids, s_, s_.seed);
    }
  } catch (const pobp::BudgetError&) {
    // The poll that fired charged a probe that never ran.
    const std::uint64_t polled = guard.ops() - before;
    counts.edf_probes += polled > 0 ? polled - 1 : 0;
    throw;
  }
  counts.edf_probes += guard.ops() - before;
}

void Replayer::combined(std::uint32_t request, std::int32_t parent,
                        const pobp::JobSet& jobs,
                        const pobp::CombinedOptions& options,
                        const SolveDeltaHint* delta, Schedule& out) {
  const SpanScope core(tracer_, SpanName::kCoreCombined, request, parent);
  const std::int32_t at = core.index();
  ++counts.combined;
  const Schedule& unbounded = s_.seed;
  const std::size_t machines = unbounded.machine_count();
  const pobp::Rational threshold(static_cast<std::int64_t>(options.k) + 1);
  pobp::ReductionScratch& rs = s_.reduction;
  if (!hint_usable(delta, machines)) delta = nullptr;

  // One machine's §4.1 stages, each under its own span.
  const auto reduce = [&](bool subset, const MachineSchedule& input,
                          MachineSchedule& into) {
    {
      const SpanScope span(tracer_, SpanName::kLaminarize, request, at);
      if (subset) {
        pobp::laminarize_subset_into(jobs, s_.strict_ids, rs.laminar,
                                     s_.laminar_stage);
      } else {
        pobp::laminarize_into(jobs, input, rs.laminar, s_.laminar_stage);
      }
    }
    {
      const SpanScope span(tracer_, SpanName::kForest, request, at);
      pobp::build_schedule_forest(jobs, s_.laminar_stage, rs.sf,
                                  rs.forest_build);
    }
    counts.forest_nodes += rs.sf.size();
    counts.forest_sizes.push_back(static_cast<double>(rs.sf.size()));
    {
      const SpanScope span(tracer_, SpanName::kPrune, request, at);
      pobp::tm_optimal_bas_forked(rs.sf.forest, options.k, rs.tm, rs.tm_result,
                                  options.tm_fork_min_nodes);
    }
    ++counts.prunes;
    if (options.tm_fork_min_nodes != 0 &&
        rs.sf.size() >= options.tm_fork_min_nodes) {
      ++counts.fork_eligible;
    }
    counts.kept_nodes += rs.tm_result.selection.kept_count();
    const SpanScope span(tracer_, SpanName::kMerge, request, at);
    pobp::rebuild_schedule_into(jobs, rs.sf, rs.tm_result.selection,
                                rs.rebuild, into);
  };

  // Strict branch: each machine's strict jobs, reduced separately.
  std::int64_t t0 = now_ns();
  Schedule& strict_schedule = s_.strict_sched;
  strict_schedule.reset(machines);
  auto& lax_ids = s_.lax_ids;
  lax_ids.clear();
  for (std::size_t m = 0; m < machines; ++m) {
    pobp::BudgetGuard::poll();
    s_.strict_ids.clear();
    for (const Assignment& a : unbounded.machine(m).assignments()) {
      (jobs[a.job].laxity() >= threshold ? lax_ids : s_.strict_ids)
          .push_back(a.job);
    }
    if (s_.strict_ids.empty()) continue;
    if (delta != nullptr &&
        machine_reusable(unbounded.machine(m), delta->seed->machine(m),
                         delta->job_changed)) {
      strict_schedule.machine(m).assign_from(delta->strict_sched->machine(m));
      continue;
    }
    reduce(true, unbounded.machine(m), strict_schedule.machine(m));
  }
  const double strict_value = strict_schedule.total_value(jobs);
  const std::int64_t strict_ns = now_ns() - t0;

  // Lax branch: iterative multi-machine LSA_CS on every lax job.
  t0 = now_ns();
  Schedule& lax_schedule = s_.lax_sched;
  {
    const SpanScope span(tracer_, SpanName::kLsa, request, at);
    s_.columns.build(jobs);
    pobp::lsa_cs_multi_into(s_.columns.view(), lax_ids, options.k, machines,
                            s_.lsa, lax_schedule);
  }
  counts.lax_offered += lax_ids.size();
  counts.lax_placed += lax_schedule.job_count();
  const double lax_value = lax_schedule.total_value(jobs);
  const std::int64_t lax_ns = now_ns() - t0;

  // Full-reduction branch (Theorem 4.2): every machine's whole job set.
  t0 = now_ns();
  Schedule& full_schedule = s_.full_sched;
  full_schedule.reset(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    const MachineSchedule& input = unbounded.machine(m);
    if (input.empty()) continue;
    if (delta != nullptr &&
        machine_reusable(input, delta->seed->machine(m), delta->job_changed)) {
      full_schedule.machine(m).assign_from(delta->full_sched->machine(m));
      continue;
    }
    reduce(false, input, full_schedule.machine(m));
  }
  const double full_value = full_schedule.total_value(jobs);
  const std::int64_t full_ns = now_ns() - t0;

  std::int64_t winner_ns = 0;
  if (full_value >= strict_value && full_value >= lax_value) {
    out.assign_from(full_schedule);
    ++counts.win_full;
    winner_ns = full_ns;
  } else if (strict_value >= lax_value) {
    out.assign_from(strict_schedule);
    ++counts.win_strict;
    winner_ns = strict_ns;
  } else {
    out.assign_from(lax_schedule);
    ++counts.win_lax;
    winner_ns = lax_ns;
  }
  counts.branch_ns += strict_ns + lax_ns + full_ns;
  counts.losing_branch_ns += strict_ns + lax_ns + full_ns - winner_ns;
}

void Replayer::degraded(std::uint32_t request, std::int32_t root,
                        const ReplayRequest& req, pobp::ScheduleResult& out) {
  const pobp::JobSet& jobs = *req.jobs;
  const pobp::ScheduleOptions& options = req.options;
  const bool cacheable = cache_ != nullptr && !jobs.empty() &&
                         req.cache_mode != pobp::CacheMode::kOff;
  pobp::CacheKey cache_key{};
  std::uint64_t params_sig = 0;
  {
    // The bounding step ends before validate and insert, which are the
    // pipeline's own stages, as on the exact path.
    const SpanScope core(tracer_, SpanName::kCoreDegraded, request, root);
    if (cacheable) {
      cache_key = key(request, core.index(), jobs, options, true, params_sig);
      ++counts.cache_lookups;
      bool hit = false;
      {
        const SpanScope span(tracer_, SpanName::kCacheGet, request,
                             core.index());
        hit = cache_->try_get(cache_key, s_.columns.view(), params_sig, out);
      }
      if (hit) {
        ++counts.cache_hits;
        return;
      }
      ++counts.cache_misses;
    }
    out.value = 0;
    out.unbounded_value = 0;
    out.degraded = true;
    out.schedule.reset(options.machine_count);
    if (!jobs.empty()) {
      // The §4.3 approximate path: greedy seed, then LSA_CS on every job.
      seed(request, core.index(), jobs, options, true);
      out.unbounded_value = s_.seed.total_value(jobs);
      {
        const SpanScope span(tracer_, SpanName::kLsa, request, core.index());
        s_.columns.build(jobs);
        pobp::lsa_cs_multi_into(s_.columns.view(), s_.ids, options.k,
                                options.machine_count, s_.lsa, out.schedule);
      }
      counts.lax_offered += jobs.size();
      counts.lax_placed += out.schedule.job_count();
      out.value = out.schedule.total_value(jobs);
    }
  }
  bool valid = false;
  {
    const SpanScope span(tracer_, SpanName::kValidate, request, root);
    valid = pobp::validate_fast(jobs, out.schedule, options.k, s_.validate);
  }
  if (!valid) ++counts.invalid;
  if (cacheable && valid && req.cache_mode == pobp::CacheMode::kReadWrite) {
    const SpanScope span(tracer_, SpanName::kCacheInsert, request, root);
    counts.evictions += cache_->insert(cache_key, s_.columns.view(),
                                       s_.subhashes.data(), params_sig, out,
                                       nullptr, nullptr, nullptr);
    ++counts.inserts;
  }
}

}  // namespace perfbench
