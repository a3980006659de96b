#include "pobp/engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "pobp/core/scratch.hpp"
#include "pobp/diag/registry.hpp"
#include "pobp/lsa/lsa.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/util/assert.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/util/parallel.hpp"

namespace pobp {
namespace {

/// One-finding report for a contained solve failure (POBP-RUN-*).
diag::Report run_report(std::string_view rule, std::string message,
                        std::size_t instance) {
  diag::Report report;
  diag::Diagnostic& d = report.add(std::string(rule), std::move(message));
  if (instance != Session::kNoInstance) d.with("instance", instance);
  return report;
}

/// Sleeps the policy's deterministic backoff before retry `attempt`
/// (1-based), seeded by the instance id so replaying a request reproduces
/// its exact backoff schedule.  Clamped to the remaining wall-clock
/// deadline: a budgeted request never dozes past expiry — the next
/// attempt's first poll converts it into DeadlineExceeded instead.
/// Called from a catch handler, so it must not throw.
void backoff_before_retry(const RetryPolicy& policy, std::size_t attempt,
                          std::size_t instance, const BudgetGuard* guard) {
  const std::uint64_t seed = instance == Session::kNoInstance
                                 ? 0
                                 : static_cast<std::uint64_t>(instance);
  double delay = retry_backoff_s(policy, attempt, seed);
  if (guard != nullptr) {
    delay = std::min(delay, std::max(0.0, guard->remaining_deadline_s()));
  }
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

/// solve_into's exception for a failed run(): the budget verdicts rethrow
/// as the BudgetError the pipeline raised, anything else (a contained
/// fault, rejected options) as an InternalError naming the rule.
[[noreturn]] void throw_report(const diag::Report& report) {
  if (report.count(diag::rules::kRunDeadline) > 0) throw DeadlineExceeded();
  if (report.count(diag::rules::kRunBudget) > 0) throw BudgetExhausted();
  throw InternalError(report.rule_ids().front().c_str(), __FILE__, __LINE__,
                      report.first_error().c_str());
}

}  // namespace

// --- Session ----------------------------------------------------------------

Session::Session(EngineOptions options)
    : options_(std::move(options)),
      scratch_(std::make_unique<SolveScratch>()) {}

Session::~Session() = default;

std::optional<diag::Report> Session::run(const JobSet& jobs,
                                         const ScheduleOptions& options,
                                         const SubmitOptions& submit,
                                         std::size_t instance,
                                         ScheduleResult& out,
                                         bool approximate) {
  last_cache_hit_ = false;
  std::optional<diag::Report> failed;
  if (diag::Report rejected = check_schedule_options(jobs, options);
      !rejected.ok()) {
    failed = std::move(rejected);
  } else {
    // Fault-injection triggers key on (site, instance, nth-call-within-
    // instance); the scope resets the per-site counters so placement is
    // identical for every worker count.
    const fault::InstanceScope fault_scope(instance);
    const CacheMode cache_mode = submit.cache.value_or(options_.cache_mode);
    failed = approximate ? run_approximate(jobs, options, cache_mode,
                                           /*exact_first=*/true, instance, out)
                         : run_exact(jobs, options, submit, cache_mode,
                                     instance, out);
  }
  // A failed solve may have left a partially written result behind; reset
  // the slot so callers never observe it (costs storage only on failure).
  if (failed) out = ScheduleResult{};
  return failed;
}

SolveOutcome Session::try_solve(const JobSet& jobs,
                                const ScheduleOptions& options,
                                const SubmitOptions& submit,
                                std::size_t instance) {
  ScheduleResult result;
  if (auto failed = run(jobs, options, submit, instance, result)) {
    return Unexpected{std::move(*failed)};
  }
  return result;
}

void Session::solve_into(const JobSet& jobs, ScheduleResult& out) {
  if (const auto failed = run(jobs, options_.schedule, {}, kNoInstance, out)) {
    throw_report(*failed);
  }
}

std::optional<diag::Report> Session::run_exact(const JobSet& jobs,
                                               const ScheduleOptions& options,
                                               const SubmitOptions& submit,
                                               CacheMode cache_mode,
                                               std::size_t instance,
                                               ScheduleResult& out) {
  SolveBudget budget = submit.budget.value_or(options_.budget);
  // A request deadline tightens (never widens) the budget deadline.
  if (submit.deadline_s > 0 &&
      (budget.deadline_s <= 0 || submit.deadline_s < budget.deadline_s)) {
    budget.deadline_s = submit.deadline_s;
  }
  // One guard spans every attempt: the wall-clock deadline keeps running
  // and the op counter accumulates across retries, so retrying (and the
  // backoff sleeps between attempts) can never spend beyond the request's
  // SolveBudget.
  std::optional<BudgetGuard> guard;
  if (!budget.unlimited()) guard.emplace(budget);
  const RetryPolicy& retry = options_.retry;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      // Unbudgeted, the scope reinstalls whatever guard is already active.
      const BudgetGuard::Scope budget_scope(guard ? &*guard
                                                  : BudgetGuard::active());
      solve_tier(jobs, options, cache_mode, /*approximate=*/false,
                 /*exact_first=*/false, out);
      return std::nullopt;
    } catch (const BudgetError& e) {
      // The budget → degrade fallback.  Budget verdicts are never retried.
      if (submit.degrade.value_or(options_.degrade) ==
          DegradePolicy::kApproximate) {
        return run_approximate(jobs, options, cache_mode,
                               /*exact_first=*/false, instance, out);
      }
      const bool deadline =
          dynamic_cast<const DeadlineExceeded*>(&e) != nullptr;
      ++(deadline ? metrics_.deadline_exceeded : metrics_.budget_exhausted);
      return run_report(
          deadline ? diag::rules::kRunDeadline : diag::rules::kRunBudget,
          e.what(), instance);
    } catch (...) {
      if (attempt < retry.max_attempts) {
        ++metrics_.retries;
        backoff_before_retry(retry, attempt, instance,
                             guard ? &*guard : nullptr);
        continue;
      }
      // Final-attempt downgrade: when every full-pipeline attempt faulted,
      // the policy may answer on the approximate tier instead of reporting
      // the instance failed (result tagged degraded).
      if (retry.degrade_final_attempt) {
        return run_approximate(jobs, options, cache_mode,
                               /*exact_first=*/false, instance, out);
      }
      return fault_report(instance);
    }
  }
}

std::optional<diag::Report> Session::run_approximate(
    const JobSet& jobs, const ScheduleOptions& options, CacheMode cache_mode,
    bool exact_first, std::size_t instance, ScheduleResult& out) {
  try {
    solve_tier(jobs, options, cache_mode, /*approximate=*/true, exact_first,
               out);
    return std::nullopt;
  } catch (...) {
    return fault_report(instance);
  }
}

diag::Report Session::fault_report(std::size_t instance) {
  ++metrics_.pipeline_faults;
  try {
    throw;
  } catch (const std::exception& e) {
    return run_report(diag::rules::kRunPipelineFault, e.what(), instance);
  } catch (...) {
    return run_report(diag::rules::kRunPipelineFault,
                      "unknown pipeline exception", instance);
  }
}

void Session::solve_tier(const JobSet& jobs, const ScheduleOptions& options,
                         CacheMode cache_mode, bool approximate,
                         bool exact_first, ScheduleResult& out) {
  POBP_CHECK(options.machine_count >= 1);
  // Started before the probe, so a cache hit records its own key + probe +
  // copy-out time rather than a 0-second solve.
  const Stopwatch total;
  SolveScratch& s = *scratch_;

  // Cache probe before anything can fault or spend budget: an exact hit is
  // the memoized output of this very pipeline (pure in (jobs, options)), so
  // serving it is bit-identical to re-solving.  Each tier keys under its
  // own parameter signature, so an approximate entry never aliases an
  // exact one.  Empty instances are not cached — the empty fast path below
  // is already O(1).
  SolveCache* cache = cache_mode == CacheMode::kOff || jobs.empty()
                          ? nullptr
                          : options_.cache.get();
  CacheKey key{};
  std::uint64_t params_sig = 0;
  const auto lookup = [&](bool approximate_key) {
    // Canonicalization happens here: the JobSet's columns *are* the
    // canonical form (job-id order, one contiguous column per attribute),
    // so keying reads them in place.  The sub-hash buffer is pooled — a
    // warm probe allocates nothing.
    params_sig = SolveCache::params_signature(options, approximate_key);
    s.subhashes.resize(jobs.size());
    SolveCache::job_subhashes(jobs, s.subhashes.data());
    key = SolveCache::instance_key(jobs, s.subhashes.data(), params_sig);
    const bool hit = cache->try_get(key, jobs, params_sig, out);
    ++(hit ? metrics_.cache_hits : metrics_.cache_misses);
    return hit;
  };
  // The overload tier asks for the exact answer first (read-only — its
  // key is never published here): a hit answers at full fidelity for free,
  // so only instances that would cost a pipeline run get degraded.
  if (cache != nullptr &&
      ((exact_first && lookup(false)) || lookup(approximate))) {
    last_cache_hit_ = true;
    metrics_.record(jobs, out, /*timings=*/nullptr, total.seconds(), true);
    return;
  }

  if (!approximate) POBP_FAULT_POINT(kAlloc);
  PipelineTimings timings;
  bool strict_ran = false;
  out.value = 0;
  out.unbounded_value = 0;
  out.degraded = approximate;
  out.schedule.reset(options.machine_count);
  if (jobs.empty()) {
    metrics_.record(jobs, out, &timings, total.seconds(), true);
    return;
  }

  // Stage 1: the ∞-preemptive reference schedule.  scratch_ is the
  // session's pooled pipeline state — every stage below reuses its buffers
  // (including the result arena's branch schedules), so nothing
  // reallocates once they have grown to the largest instance seen.
  Stopwatch sw;
  s.ids.resize(jobs.size());
  std::iota(s.ids.begin(), s.ids.end(), JobId{0});
  if (approximate) {
    // §4.3: greedy-density seed for the reference value, then LSA_CS
    // directly on all jobs — no exact DP/B&B, no laminarization, no
    // forest.
    greedy_infinity_multi_into(jobs, s.ids, options.machine_count, s.greedy,
                               s.seed);
  } else {
    seed_unbounded_schedule_into(jobs, options, s.ids, s, s.seed);
  }
  timings.seed_s = sw.lap();
  metrics_.seed_probes += s.greedy.probes;
  out.unbounded_value = s.seed.total_value(jobs);

  if (approximate) {
    lsa_cs_multi_into(jobs, s.ids, options.k, options.machine_count, s.lsa,
                      out.schedule);
    timings.lsa_s = sw.lap();
  } else if (options.k == 0) {
    // §5: iterative per-machine non-preemptive scheduling of the residual.
    s.remaining.assign(s.ids.begin(), s.ids.end());
    for (std::size_t m = 0;
         m < options.machine_count && !s.remaining.empty(); ++m) {
      schedule_nonpreemptive_into(jobs, s.remaining, &timings, s.lsa,
                                  out.schedule.machine(m));
      std::erase_if(s.remaining, [&](JobId id) {
        return out.schedule.machine(m).contains(id);
      });
    }
  } else {
    CombinedOptions combined;
    combined.k = options.k;
    combined.use_tm = options.use_tm;
    combined.tm_fork_min_nodes = options.tm_fork_min_nodes;
    // Delta re-solve: a cached near-duplicate (≤ delta_max_jobs mutated
    // jobs, same params) lets machines whose seed assignments the mutation
    // left untouched reuse the neighbor's branch schedules verbatim — the
    // per-machine stages are pure, so the result stays bit-identical
    // (SolveDeltaHint in pobp/core/pobp.hpp).
    SolveDeltaHint hint;
    const SolveDeltaHint* delta = nullptr;
    if (cache != nullptr && cache->delta_enabled() &&
        cache->copy_delta_neighbor(jobs, s.subhashes.data(), params_sig,
                                   delta_)) {
      hint.seed = &delta_.seed;
      hint.strict_sched = delta_.has_strict ? &delta_.strict_sched : nullptr;
      hint.full_sched = &delta_.full_sched;
      hint.job_changed = delta_.changed.data();
      delta = &hint;
      ++metrics_.cache_delta_patches;
    }
    const CombinedMultiValues branches = k_preemption_combined_multi_into(
        jobs, s.seed, combined, &timings, s, out.schedule, delta);
    metrics_.record_branches(branches);
    strict_ran = !branches.strict_settled;
  }
  out.value = out.schedule.total_value(jobs);

  // Verdict-only fast path: same predicates as validate(), but no
  // diag::Report (string) construction and zero allocations.  The full
  // diagnostics run only on the failure path, which trips the metrics
  // counter below and is investigated with pobp_lint / diagnose_schedule.
  sw.lap();
  const bool valid = validate_fast(jobs, out.schedule, options.k, s.validate);
  timings.validate_s = sw.lap();
  metrics_.record(jobs, out, &timings, total.seconds(), valid);

  // Publish only after the pipeline returned cleanly AND the validator
  // passed: any fault above propagates out before this point, so a
  // mid-solve fault can never leave a partial entry behind.  The exact
  // tier's stage schedules (seed + the reduction branches) make the entry
  // a delta neighbor for future near-duplicates; a settled strict branch
  // has no schedule to publish.  The k = 0 path has no reduction branches
  // and approximate entries none at all, so theirs are result-only.
  if (cache != nullptr && valid && cache_mode == CacheMode::kReadWrite) {
    const bool delta_capable = !approximate && options.k != 0;
    const std::size_t evicted = cache->insert(
        key, jobs, s.subhashes.data(), params_sig, out,
        delta_capable ? &s.seed : nullptr,
        delta_capable && strict_ran ? &s.strict_sched : nullptr,
        delta_capable ? &s.full_sched : nullptr);
    ++metrics_.cache_insertions;
    metrics_.cache_evictions += evicted;
  }
}

// --- Engine -----------------------------------------------------------------

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      workers_(options_.workers != 0
                   ? options_.workers
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency())),
      inline_session_(options_) {
  // Fault-injection triggers are process-wide (the harness keys them by
  // instance + site); an explicit EngineOptions spec wins, otherwise the
  // POBP_FAULT_INJECT env var is honoured when set.
  if (!options_.fault_injection.empty()) {
    fault::arm(fault::parse_spec(options_.fault_injection));
  } else {
    fault::arm_from_env();
  }
}

Engine::~Engine() = default;

std::vector<ScheduleResult> Engine::solve_batch(
    std::span<const JobSet> instances, const SubmitOptions& submit) {
  std::vector<ScheduleResult> results;
  solve_batch_into(instances, submit, results);
  return results;
}

void Engine::solve_batch_into(std::span<const JobSet> instances,
                              const SubmitOptions& submit,
                              std::vector<ScheduleResult>& results) {
  // resize() keeps the surviving elements — and hence their schedules'
  // pooled storage — intact, so round-tripping the same vector gives
  // allocation-free steady-state batches (run() recycles results[i]'s
  // storage).
  //
  // Contained form: a failed instance leaves a default (empty, value 0)
  // result in its slot and is reported through submit.on_error instead of
  // throwing out of a pool worker.  The error book-keeping is only
  // allocated when a callback wants it.
  results.resize(instances.size());
  const bool collect_errors = static_cast<bool>(submit.on_error);
  std::vector<std::optional<diag::Report>> errors(
      collect_errors ? instances.size() : 0);
  const auto job_count = [&](std::size_t i) { return instances[i].size(); };
  run_batch(instances.size(), job_count, [&](Session& session, std::size_t i) {
    std::optional<diag::Report> failed =
        session.run(instances[i], options_.schedule, submit, i, results[i]);
    if (failed && collect_errors) errors[i] = std::move(failed);
  });
  if (collect_errors) {
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (errors[i].has_value()) submit.on_error(i, *errors[i]);
    }
  }
}

std::vector<SolveOutcome> Engine::try_solve_batch(
    std::span<const JobSet> instances, const SubmitOptions& submit) {
  std::vector<ScheduleResult> results(instances.size());
  std::vector<std::optional<diag::Report>> errors(instances.size());
  const auto job_count = [&](std::size_t i) { return instances[i].size(); };
  run_batch(instances.size(), job_count, [&](Session& session, std::size_t i) {
    errors[i] =
        session.run(instances[i], options_.schedule, submit, i, results[i]);
  });
  std::vector<SolveOutcome> outcomes;
  outcomes.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!errors[i]) {
      outcomes.emplace_back(std::move(results[i]));
      continue;
    }
    if (submit.on_error) submit.on_error(i, *errors[i]);
    outcomes.emplace_back(Unexpected{std::move(*errors[i])});
  }
  return outcomes;
}

SolveOutcome Engine::try_solve(const JobSet& jobs) {
  return try_solve(jobs, options_.schedule);
}

SolveOutcome Engine::try_solve(const JobSet& jobs,
                               const ScheduleOptions& options) {
  util::MutexLock lock(inline_mutex_);
  return inline_session_.try_solve(jobs, options);
}

void Engine::run_batch(std::size_t count,
                       FnRef<std::size_t(std::size_t)> job_count,
                       FnRef<void(Session&, std::size_t)> work) {
  if (count == 0) return;
  util::MutexLock lock(mutex_);
  Stopwatch batch;

  while (sessions_.size() < workers_) {
    sessions_.push_back(std::make_unique<Session>(options_));
  }

  const std::size_t active = std::min(workers_, count);
  if (active <= 1) {
    // Inline drain on the caller: no pool hop, no atomics — and the w = 1
    // steady-state path the allocation gate measures.
    Session& session = *sessions_[0];
    for (std::size_t i = 0; i < count; ++i) work(session, i);
    batch_seconds_ += batch.seconds();
    return;
  }

  // One shared cursor over the batch, largest job count first (ties by
  // index).  Where solve time tracks job count, list scheduling in that
  // order keeps the batch's wall time within 4/3 of the best split (Graham
  // 1969); index order can leave the largest instance for last.  A worker
  // that finds the cursor spent returns to the pool.  The order is built
  // here, under mutex_, so concurrent batches never share the buffer.
  order_.clear();
  for (std::size_t i = 0; i < count; ++i) order_.emplace_back(job_count(i), i);
  std::sort(order_.begin(), order_.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const auto& order = order_;
  std::atomic<std::size_t> next{0};
  const auto run_worker = [&](Session& session) {
    for (;;) {
      const std::size_t at = next.fetch_add(1, std::memory_order_relaxed);
      if (at >= count) return;
      work(session, order[at].second);
    }
  };

  if (!pool_) pool_ = std::make_unique<ThreadPool>(workers_);
  for (std::size_t w = 0; w < active; ++w) {
    pool_->submit([&run_worker, &session = *sessions_[w]] {
      run_worker(session);
    });
  }
  pool_->wait_idle();

  batch_seconds_ += batch.seconds();
}

EngineMetrics Engine::metrics() const {
  EngineMetrics merged;
  {
    util::MutexLock lock(mutex_);
    for (const auto& session : sessions_) merged.merge(session->metrics());
    merged.batch_seconds += batch_seconds_;
  }
  {
    util::MutexLock lock(inline_mutex_);
    merged.merge(inline_session_.metrics());
  }
  return merged;
}

void Engine::reset_metrics() {
  {
    util::MutexLock lock(mutex_);
    for (const auto& session : sessions_) session->reset_metrics();
    batch_seconds_ = 0;
  }
  util::MutexLock lock(inline_mutex_);
  inline_session_.reset_metrics();
}

Engine& Engine::shared() {
  static Engine engine;
  return engine;
}

// --- one-call shim ----------------------------------------------------------

Expected<ScheduleResult, diag::Report> try_schedule_bounded(
    const JobSet& jobs, const ScheduleOptions& options) {
  // Fully contained: bad options come back as POBP-OPT-* findings,
  // in-pipeline faults as POBP-RUN-* findings.
  return Engine::shared().try_solve(jobs, options);
}

}  // namespace pobp
