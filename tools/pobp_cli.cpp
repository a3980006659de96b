// pobp — command-line front end.
//
//   pobp generate --n 200 --seed 7 --out jobs.csv [...]
//   pobp solve    --jobs jobs.csv --k 1 [--machines 2] [--out sched.csv]
//                 [--gantt] [--exact]
//   pobp batch    --manifest list.txt | --jsonl stream.jsonl --k 1
//                 [--workers 8] [--out-dir DIR] [--metrics-json FILE]
//   pobp serve    [--jsonl stream.jsonl] [--k 1] [--workers 8] [...]
//   pobp validate --jobs jobs.csv --schedule sched.csv [--k 1]
//   pobp price    --jobs jobs.csv --k 1 [--machines 2] [--exact]
//   pobp info     --jobs jobs.csv
//
// Exit codes (documented in docs/CLI.md):
//   0  success (for validate: the schedule is feasible)
//   1  infeasible schedule / validation failure / other runtime failure
//   2  usage error (unknown command, bad flag, bad flag value)
//   3  a referenced file cannot be opened
//   4  malformed input data (CSV / manifest / JSONL parse failure)
//   5  solve options rejected (POBP-OPT-*)
//   6  contained solve fault (POBP-RUN-*: pipeline fault, deadline, budget)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "pobp/bas/contraction.hpp"
#include "pobp/bas/tm.hpp"
#include "pobp/diag/render.hpp"
#include "pobp/srclint/driver.hpp"
#include "pobp/gen/random_jobs.hpp"
#include "pobp/io/forest_csv.hpp"
#include "pobp/io/fuzz.hpp"
#include "pobp/io/manifest.hpp"
#include "pobp/io/wire.hpp"
#include "pobp/solvers/solvers.hpp"
#include "pobp/pobp.hpp"
#include "pobp/sim/policies.hpp"
#include "pobp/sim/sim.hpp"
#include "pobp/util/faultinject.hpp"
#include "pobp/util/rng.hpp"

namespace {

using namespace pobp;

enum ExitCode : int {
  kExitOk = 0,
  kExitInfeasible = 1,
  kExitUsage = 2,
  kExitFileOpen = 3,
  kExitParse = 4,
  kExitOptions = 5,
  kExitSolveFault = 6,
};

/// Maps a rule-tagged report onto the exit-code table above (first
/// error-severity finding decides).
int exit_for(const diag::Report& report) {
  for (const diag::Diagnostic& d : report.diagnostics()) {
    if (d.severity != diag::Severity::kError) continue;
    if (d.rule.rfind("POBP-RUN-", 0) == 0) return kExitSolveFault;
    if (d.rule.rfind("POBP-OPT-", 0) == 0) return kExitOptions;
    if (d.rule.rfind("POBP-IO-", 0) == 0) {
      return d.message.rfind("cannot open", 0) == 0 ? kExitFileOpen
                                                    : kExitParse;
    }
  }
  return kExitInfeasible;
}

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: pobp <command> [flags]

commands:
  generate   write a random workload as jobs CSV
             --out FILE [--n N] [--seed S] [--min-length L] [--max-length L]
             [--min-laxity X] [--max-laxity X] [--horizon T]
             [--values uniform|proportional|density]
  solve      schedule a workload with bounded preemption
             --jobs FILE --k K [--machines M] [--out FILE] [--gantt]
             [--exact]            (exact B&B seed; n <= ~26)
  batch      solve many instances in parallel on a pobp::Engine
             (--manifest FILE | --jsonl FILE) [--k K] [--machines M]
             [--workers W] [--exact] [--out-dir DIR] [--quiet]
             [--metrics-json FILE]  (FILE '-' = stdout)
             solve cache (docs/CACHE.md):
             [--cache off|read|read_write] [--cache-bytes N]
             [--delta-max-jobs N]
             fault containment:
             [--deadline-ms MS] [--max-ops N] [--degrade] [--max-retries R]
             [--on-error skip|report|fail]   (default: report)
             [--fault-inject SPEC]  (site[@instance]:nth)
  serve      long-lived streaming service: JSONL requests in (file or
             stdin), one response frame per request in submission order
             (wire format and semantics: docs/SERVING.md)
             [--jsonl FILE]   (default '-' = stdin)
             [--k K] [--machines M] [--workers W] [--exact]
             [--queue N] [--max-batch N]          (pump shape)
             [--deadline-ms MS] [--max-ops N] [--degrade]  (defaults)
             [--shed] [--tenant-quota N] [--overload-degrade]
             solve cache (docs/CACHE.md):
             [--cache off|read|read_write] [--cache-bytes N]
             [--delta-max-jobs N]
             resilience (docs/ROBUSTNESS.md):
             [--retry N] [--retry-backoff-ms MS] [--retry-degrade]
             [--tenant-rate R] [--tenant-burst B]
             [--breaker N] [--breaker-cooldown-ms MS] [--watchdog-ms MS]
             [--max-line-bytes N]   (0 = unlimited; default 1 MiB)
             [--metrics-json FILE] [--tenant-stats] [--stats FILE]
             [--quiet]
  chaos      differential chaos soak: fuzzed wire requests + fault
             injection against a resilient serve stack; mismatches are
             minimized into a repro fixture (docs/ROBUSTNESS.md)
             [--seconds S] [--requests N] [--seed S] [--workers W]
             [--mutate-rate P] [--oracle-n N] [--fault-inject SPEC|none]
             [--repro-dir DIR] [--quiet]
  validate   check a schedule against a workload (Def. 2.1)
             --jobs FILE --schedule FILE [--k K]
  price      report the empirical price of bounded preemption
             --jobs FILE --k K [--machines M] [--exact]
  info       print instance metrics (n, P, rho, sigma, lambda_max)
             --jobs FILE
  bench      run the microbenchmark suite (launches the bench_runtime
             binary built next to this executable)
             [--kernels]   (SoA/SIMD kernel rows + scalar-reference twins)
             [--filter REGEX] [--min-time SECONDS] [--out FILE]  (json)
  bas        optimal k-BAS of a value forest (Procedure TM, §3.2)
             --forest FILE --k K [--heuristic]   (LevelledContraction too)
  sim        run an online policy with context-switch costs
             --jobs FILE --policy edf|nonpreemptive|budget|srpt|laxity
             [--k K] [--alpha A] [--cost C] [--gantt]
  lint-src   source-level static analysis (POBP-SRC-* rules; the full
             interface lives in the standalone pobp_srclint tool)
             [paths...] [--root DIR] [--format text|json]
)");
  std::exit(kExitUsage);
}

/// --flag value parser; accepts both `--key value` and `--key=value`;
/// boolean flags have empty values.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage(("unexpected argument " + key).c_str());
      key = key.substr(2);
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (fallback.empty()) usage(("missing --" + key).c_str());
      return fallback;
    }
    return it->second;
  }

  std::int64_t num(const std::string& key, std::int64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoll(it->second.c_str(), nullptr, 10);
  }

  double real(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_generate(const Flags& flags) {
  JobGenConfig config;
  config.n = static_cast<std::size_t>(flags.num("n", 100));
  config.min_length = flags.num("min-length", 1);
  config.max_length = flags.num("max-length", 1024);
  config.min_laxity = flags.real("min-laxity", 1.0);
  config.max_laxity = flags.real("max-laxity", 6.0);
  config.horizon = flags.num("horizon", 16 * config.max_length);
  const std::string mode = flags.str("values", "uniform");
  if (mode == "proportional") {
    config.value_mode = JobGenConfig::ValueMode::kProportional;
  } else if (mode == "density") {
    config.value_mode = JobGenConfig::ValueMode::kRandomDensity;
  } else if (mode != "uniform") {
    usage("unknown --values mode");
  }
  Rng rng(static_cast<std::uint64_t>(flags.num("seed", 1)));
  const JobSet jobs = random_jobs(config, rng);
  io::save_jobs(flags.str("out"), jobs);
  std::printf("wrote %zu jobs: %s\n", jobs.size(),
              compute_metrics(jobs).to_string().c_str());
  return 0;
}

int cmd_solve(const Flags& flags) {
  const JobSet jobs = io::load_jobs(flags.str("jobs"));
  ScheduleOptions options;
  options.k = static_cast<std::size_t>(flags.num("k", 1));
  options.machine_count = static_cast<std::size_t>(flags.num("machines", 1));
  if (flags.has("exact")) options.seed = ScheduleOptions::Seed::kExact;

  const Expected<ScheduleResult, diag::Report> outcome =
      try_schedule_bounded(jobs, options);
  if (!outcome) {
    std::fputs(diag::to_text(outcome.error()).c_str(), stderr);
    return exit_for(outcome.error());
  }
  const ScheduleResult& result = *outcome;
  const ValidationResult check = validate(jobs, result.schedule, options.k);
  if (!check) {
    std::fprintf(stderr, "internal error: %s\n", check.error.c_str());
    return kExitInfeasible;
  }
  std::printf("scheduled %zu/%zu jobs, value %.6g of %.6g (price %.3f), "
              "max preemptions %zu (k=%zu)\n",
              result.schedule.job_count(), jobs.size(), result.value,
              result.unbounded_value, result.price(),
              result.schedule.max_preemptions(), options.k);
  if (flags.has("gantt")) {
    std::printf("%s", render_gantt(jobs, result.schedule).c_str());
  }
  if (flags.has("report")) {
    std::printf("%s", make_report(jobs, result.schedule).to_string().c_str());
  }
  if (flags.has("out")) {
    io::save_schedule(flags.str("out"), result.schedule);
    std::printf("schedule written to %s\n", flags.str("out").c_str());
  }
  return 0;
}

/// --cache read|read_write arms an engine-wide content-addressed solve
/// cache (docs/CACHE.md); --cache-bytes and --delta-max-jobs tune its byte
/// budget and the near-duplicate patch distance.  "off" (or omitting the
/// flag) leaves the engine uncached.  Returns the cache so the caller can
/// surface POBP-RUN-008 pressure at the end of the run.
std::shared_ptr<SolveCache> configure_cache(const Flags& flags,
                                            EngineOptions& engine) {
  if (!flags.has("cache")) return nullptr;
  const std::string mode = flags.str("cache");
  if (mode == "off") return nullptr;
  if (mode != "read" && mode != "read_write") {
    usage("--cache wants off, read or read_write");
  }
  SolveCacheOptions options;
  options.max_bytes = static_cast<std::size_t>(flags.num(
      "cache-bytes", static_cast<std::int64_t>(options.max_bytes)));
  options.delta_max_jobs = static_cast<std::size_t>(flags.num(
      "delta-max-jobs", static_cast<std::int64_t>(options.delta_max_jobs)));
  auto cache = std::make_shared<SolveCache>(options);
  engine.cache = cache;
  engine.cache_mode =
      mode == "read" ? CacheMode::kRead : CacheMode::kReadWrite;
  return cache;
}

/// Surfaces the POBP-RUN-008 cache-pressure finding (if any) on stderr —
/// a thrashing cache means --cache-bytes is too small for the stream's
/// working set (docs/CACHE.md, "Eviction tuning").
void report_cache_pressure(const SolveCache* cache) {
  if (cache == nullptr) return;
  const diag::Report report = cache->check_pressure();
  if (!report.diagnostics().empty()) {
    std::fputs(diag::to_text(report).c_str(), stderr);
  }
}

int cmd_batch(const Flags& flags) {
  const std::string on_error = flags.str("on-error", "report");
  if (on_error != "skip" && on_error != "report" && on_error != "fail") {
    usage("--on-error wants skip, report or fail");
  }

  // Fault-contained load: a corrupt instance is a per-instance report, not
  // a batch abort.  Only the batch container itself failing to open is
  // immediately fatal.
  std::vector<io::InstanceOutcome> loaded;
  if (flags.has("manifest")) {
    auto batch = io::try_load_manifest(flags.str("manifest"));
    if (!batch) {
      std::fputs(diag::to_text(batch.error()).c_str(), stderr);
      return exit_for(batch.error());
    }
    loaded = std::move(batch).value();
  } else if (flags.has("jsonl")) {
    auto batch = io::try_load_jsonl(flags.str("jsonl"));
    if (!batch) {
      std::fputs(diag::to_text(batch.error()).c_str(), stderr);
      return exit_for(batch.error());
    }
    loaded = std::move(batch).value();
  } else {
    usage("batch needs --manifest or --jsonl");
  }
  if (loaded.empty()) {
    std::fprintf(stderr, "error: empty instance list\n");
    return kExitParse;
  }

  int failure_exit = kExitOk;  // first failure decides the exit code
  std::size_t load_failures = 0;
  for (const io::InstanceOutcome& instance : loaded) {
    if (instance.jobs.has_value()) continue;
    ++load_failures;
    std::fprintf(stderr, "error: instance '%s' rejected:\n%s",
                 instance.name.c_str(),
                 diag::to_text(instance.jobs.error()).c_str());
    if (on_error == "fail") return exit_for(instance.jobs.error());
    if (failure_exit == kExitOk) {
      failure_exit = exit_for(instance.jobs.error());
    }
  }

  EngineOptions options;
  options.schedule.k = static_cast<std::size_t>(flags.num("k", 1));
  options.schedule.machine_count =
      static_cast<std::size_t>(flags.num("machines", 1));
  if (flags.has("exact")) {
    options.schedule.seed = ScheduleOptions::Seed::kExact;
  }
  options.workers = static_cast<std::size_t>(flags.num("workers", 0));
  options.budget.deadline_s = flags.real("deadline-ms", 0.0) / 1000.0;
  options.budget.max_ops =
      static_cast<std::uint64_t>(flags.num("max-ops", 0));
  if (flags.has("degrade")) options.degrade = DegradePolicy::kApproximate;
  // R extra attempts after a contained pipeline fault: R + 1 in all.
  options.retry.max_attempts =
      static_cast<std::size_t>(flags.num("max-retries", 0)) + 1;
  if (flags.has("fault-inject")) {
    options.fault_injection = flags.str("fault-inject");
  }
  const std::shared_ptr<SolveCache> cache = configure_cache(flags, options);
  Engine engine(options);

  // Batch indices (and fault-injection `@instance` triggers) refer to
  // positions among the *loadable* instances.
  std::vector<JobSet> sets;
  std::vector<std::size_t> origin;  // sets index → loaded index
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    if (!loaded[i].jobs.has_value()) continue;
    sets.push_back(*loaded[i].jobs);
    origin.push_back(i);
  }

  const bool quiet = flags.has("quiet");
  const std::vector<SolveOutcome> results = engine.try_solve_batch(sets, {});
  std::size_t solve_failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string& name = loaded[origin[i]].name;
    if (!results[i].has_value()) {
      ++solve_failures;
      std::fprintf(stderr, "error: instance '%s' failed:\n%s", name.c_str(),
                   diag::to_text(results[i].error()).c_str());
      if (on_error == "fail") return exit_for(results[i].error());
      if (failure_exit == kExitOk) {
        failure_exit = exit_for(results[i].error());
      }
      continue;
    }
    const ScheduleResult& r = *results[i];
    if (!quiet) {
      std::printf("%-20s %4zu/%4zu jobs  value %10.6g of %10.6g  price %.3f"
                  "  max preemptions %zu%s\n",
                  name.c_str(), r.schedule.job_count(), sets[i].size(),
                  r.value, r.unbounded_value, r.price(),
                  r.schedule.max_preemptions(),
                  r.degraded ? "  [degraded]" : "");
    }
    if (flags.has("out-dir")) {
      std::string name_safe = name;
      for (char& c : name_safe) {
        if (c == '/') c = '_';
      }
      io::save_schedule(flags.str("out-dir") + "/" + name_safe + ".sched.csv",
                        r.schedule);
    }
  }

  const EngineMetrics metrics = engine.metrics();
  if (!quiet) {
    std::printf("\n%s", metrics.to_table().c_str());
  }
  if (flags.has("metrics-json")) {
    const std::string target = flags.str("metrics-json");
    if (target == "-") {
      std::printf("%s\n", metrics.to_json().c_str());
    } else {
      std::ofstream out(target);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s\n", target.c_str());
        return kExitFileOpen;
      }
      out << metrics.to_json() << '\n';
    }
  }
  report_cache_pressure(cache.get());

  if (load_failures + solve_failures > 0) {
    std::fprintf(stderr,
                 "batch: %zu/%zu instance(s) solved (%zu load failure(s), "
                 "%zu solve failure(s))\n",
                 results.size() - solve_failures, loaded.size(),
                 load_failures, solve_failures);
  }
  if (on_error == "skip") {
    // Defects were reported above but do not affect the exit code.
    return metrics.validation_failures == 0 ? kExitOk : kExitInfeasible;
  }
  if (failure_exit != kExitOk) return failure_exit;
  return metrics.validation_failures == 0 ? kExitOk : kExitInfeasible;
}

/// `pobp serve` — the streaming front end (docs/SERVING.md).  Reads JSONL
/// requests from a file or stdin, pushes them through a pobp::StreamEngine,
/// and emits exactly one response frame per request, in submission order.
/// Per-request failures (parse, budget, deadline, admission) are in-band
/// error frames, never a process exit: the stream always runs to the end.
int cmd_serve(const Flags& flags) {
  StreamOptions stream;
  stream.engine.schedule.k = static_cast<std::size_t>(flags.num("k", 1));
  stream.engine.schedule.machine_count =
      static_cast<std::size_t>(flags.num("machines", 1));
  if (flags.has("exact")) {
    stream.engine.schedule.seed = ScheduleOptions::Seed::kExact;
  }
  stream.engine.workers = static_cast<std::size_t>(flags.num("workers", 0));
  stream.engine.budget.deadline_s = flags.real("deadline-ms", 0.0) / 1000.0;
  stream.engine.budget.max_ops =
      static_cast<std::uint64_t>(flags.num("max-ops", 0));
  if (flags.has("degrade")) {
    stream.engine.degrade = DegradePolicy::kApproximate;
  }
  if (flags.has("fault-inject")) {
    stream.engine.fault_injection = flags.str("fault-inject");
  }
  const std::shared_ptr<SolveCache> cache =
      configure_cache(flags, stream.engine);
  stream.queue_capacity = static_cast<std::size_t>(flags.num("queue", 1024));
  stream.max_batch = static_cast<std::size_t>(flags.num("max-batch", 64));
  stream.tenant_max_in_flight =
      static_cast<std::size_t>(flags.num("tenant-quota", 0));
  if (flags.has("overload-degrade")) {
    stream.overload_degrade = DegradePolicy::kApproximate;
  }
  // Resilience knobs (docs/ROBUSTNESS.md).  All off by default; with
  // faults disarmed none of them changes an answer, so replayed streams
  // stay byte-identical even when they are enabled.
  stream.engine.retry.max_attempts =
      static_cast<std::size_t>(flags.num("retry", 1));
  stream.engine.retry.base_backoff_s =
      flags.real("retry-backoff-ms", 0.5) / 1000.0;
  stream.engine.retry.degrade_final_attempt = flags.has("retry-degrade");
  stream.tenant_rate.tokens_per_s = flags.real("tenant-rate", 0.0);
  stream.tenant_rate.burst = flags.real("tenant-burst", 1.0);
  stream.breaker.failure_threshold =
      static_cast<std::size_t>(flags.num("breaker", 0));
  stream.breaker.cooldown_s = flags.real("breaker-cooldown-ms", 1000.0) / 1000.0;
  stream.watchdog.poll_interval_s = flags.real("watchdog-ms", 0.0) / 1000.0;
  const std::size_t max_line_bytes = static_cast<std::size_t>(
      flags.num("max-line-bytes",
                static_cast<std::int64_t>(io::kDefaultMaxLineBytes)));
  // Shedding and the overload tier are timing-dependent (queue occupancy);
  // the default blocking submit keeps replayed streams byte-identical.
  const bool shed = flags.has("shed");

  const std::string source = flags.str("jsonl", "-");
  std::ifstream file;
  // Synced with C stdio, std::cin reads one locked getc per byte.  Frames
  // leave through C stdio only, so no C++ stream shares stdout with them.
  std::ios_base::sync_with_stdio(false);
  std::istream* in = &std::cin;
  if (source != "-") {
    file.open(source);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n", source.c_str());
      return kExitFileOpen;
    }
    in = &file;
  }

  StreamEngine engine(stream);

  // Response frames leave in submission order: each request parks here
  // until everything ahead of it has been printed.  `frame` is pre-rendered
  // for requests that never reach the engine (parse failures).
  struct Pending {
    std::string frame;
    std::optional<std::future<SolveOutcome>> outcome;
    std::string id;
    bool want_schedule = false;
  };
  std::deque<Pending> pending;
  std::size_t served = 0;
  std::size_t errors = 0;

  const auto flush_front = [&] {
    Pending p = std::move(pending.front());
    pending.pop_front();
    if (p.outcome) {
      const SolveOutcome outcome = p.outcome->get();
      if (outcome.has_value()) {
        const ScheduleResult& r = *outcome;
        io::ResponseStats stats;
        stats.value = r.value;
        stats.unbounded_value = r.unbounded_value;
        stats.price = r.price();
        stats.degraded = r.degraded;
        stats.jobs_scheduled = r.schedule.job_count();
        p.frame = io::response_frame(p.id, stats,
                                     p.want_schedule ? &r.schedule : nullptr);
      } else {
        p.frame = io::error_frame(p.id, outcome.error());
        ++errors;
      }
    }
    std::fputs(p.frame.c_str(), stdout);
    std::fputc('\n', stdout);
    ++served;
  };

  std::string line;
  std::size_t line_no = 0;
  while (const auto read = io::read_request_line(*in, max_line_bytes, line)) {
    ++line_no;
    if (read->skip) continue;
    auto parsed =
        read->bytes > line.size()
            ? Expected<io::ServeRequest, diag::Report>(Unexpected{
                  io::oversized_line_report(line_no, read->bytes,
                                            max_line_bytes)})
            : io::try_parse_serve_request(line, line_no, max_line_bytes);
    if (!parsed) {
      ++errors;
      Pending p;
      p.frame = io::error_frame("line" + std::to_string(line_no),
                                parsed.error());
      pending.push_back(std::move(p));
    } else {
      io::ServeRequest request = std::move(*parsed);
      ScheduleOptions schedule = stream.engine.schedule;
      if (request.k) schedule.k = *request.k;
      if (request.machines) schedule.machine_count = *request.machines;
      SubmitOptions submit;
      submit.tenant = std::move(request.tenant);
      if (request.deadline_ms > 0) {
        submit.deadline_s = request.deadline_ms / 1000.0;
      }
      if (request.max_ops > 0) {
        SolveBudget budget = stream.engine.budget;
        budget.max_ops = request.max_ops;
        submit.budget = budget;
      }
      if (request.degrade) {
        submit.degrade = *request.degrade ? DegradePolicy::kApproximate
                                          : DegradePolicy::kNone;
      }
      if (!request.cache.empty()) {
        submit.cache = request.cache == "off"  ? CacheMode::kOff
                       : request.cache == "read" ? CacheMode::kRead
                                                 : CacheMode::kReadWrite;
      }
      Pending p;
      p.id = std::move(request.id);
      p.want_schedule = request.want_schedule;
      p.outcome = shed ? engine.try_submit(std::move(request.jobs), schedule,
                                           std::move(submit))
                       : engine.submit(std::move(request.jobs), schedule,
                                       std::move(submit));
      pending.push_back(std::move(p));
    }
    // Bound the parked-futures window so a long stream never accumulates
    // unbounded response state.
    while (pending.size() > stream.queue_capacity * 2) flush_front();
  }
  while (!pending.empty()) flush_front();
  std::fflush(stdout);

  engine.drain();
  if (flags.has("metrics-json")) {
    const EngineMetrics metrics = engine.metrics();
    const std::string target = flags.str("metrics-json");
    if (target == "-") {
      std::printf("%s\n", metrics.to_json().c_str());
    } else {
      std::ofstream out(target);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s\n", target.c_str());
        return kExitFileOpen;
      }
      out << metrics.to_json() << '\n';
    }
  }
  if (flags.has("tenant-stats")) {
    for (const auto& [tenant, stats] : engine.tenant_stats()) {
      std::fprintf(stderr,
                   "tenant %-16s submitted %llu completed %llu failed %llu "
                   "quota-rejected %llu shed %llu degraded %llu "
                   "cache-hits %llu "
                   "rate-rejected %llu breaker-rejected %llu (%s) "
                   "p50 %.3fms p99 %.3fms\n",
                   tenant.c_str(),
                   static_cast<unsigned long long>(stats.submitted),
                   static_cast<unsigned long long>(stats.completed),
                   static_cast<unsigned long long>(stats.failed),
                   static_cast<unsigned long long>(stats.rejected_quota),
                   static_cast<unsigned long long>(stats.shed),
                   static_cast<unsigned long long>(stats.degraded),
                   static_cast<unsigned long long>(stats.cache_hits),
                   static_cast<unsigned long long>(stats.rejected_rate),
                   static_cast<unsigned long long>(stats.rejected_breaker),
                   std::string(to_string(stats.breaker_state)).c_str(),
                   stats.latency.p50_ms, stats.latency.p99_ms);
    }
  }
  if (flags.has("stats")) {
    // The health + per-tenant latency/resilience snapshot as one JSON
    // document ('-' or empty = stdout; frames are already flushed).
    std::string target = flags.str("stats", "-");
    if (target.empty()) target = "-";
    const std::string stats = engine.stats_json();
    if (target == "-") {
      std::printf("%s\n", stats.c_str());
    } else {
      std::ofstream out(target);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s\n", target.c_str());
        return kExitFileOpen;
      }
      out << stats << '\n';
    }
  }
  report_cache_pressure(cache.get());
  if (!flags.has("quiet")) {
    std::fprintf(stderr, "serve: %zu response frame(s), %zu error frame(s)\n",
                 served, errors);
  }
  return kExitOk;
}

/// `pobp chaos` — the differential chaos-soak harness (docs/ROBUSTNESS.md).
/// Generates adversarial workloads, renders them as wire frames, mutates a
/// fraction of the frames with the shared io fuzzer, and pushes everything
/// through a fully resilient StreamEngine (retry + breaker + watchdog +
/// overload degrade) under fault injection on all five pipeline sites.
/// Every answer is differentially checked: the Def. 2.1 validator, the
/// price bounds (value <= unbounded <= total), and — for small unmutated
/// instances — the exact k-slot oracle.  On a mismatch the instance is
/// greedily minimized and written out as a repro fixture; exit 1 names it.
/// Exit 0 = the soak ran clean.
int cmd_chaos(const Flags& flags) {
  Rng rng(static_cast<std::uint64_t>(flags.num("seed", 1)));
  const double seconds = flags.real("seconds", 5.0);
  const std::size_t min_requests =
      static_cast<std::size_t>(flags.num("requests", 0));
  const double mutate_rate = flags.real("mutate-rate", 0.25);
  const std::size_t oracle_n =
      static_cast<std::size_t>(flags.num("oracle-n", 7));
  const std::string repro_dir = flags.str("repro-dir", "chaos_repro");
  const bool quiet = flags.has("quiet");

  StreamOptions stream;
  stream.engine.workers = static_cast<std::size_t>(flags.num("workers", 0));
  // The full resilience stack, tuned aggressive so every mechanism
  // exercises: short backoffs, a touchy breaker, a fast watchdog.
  stream.engine.retry.max_attempts =
      static_cast<std::size_t>(flags.num("retry", 3));
  stream.engine.retry.base_backoff_s = 0.0001;
  stream.engine.retry.max_backoff_s = 0.002;
  stream.engine.retry.degrade_final_attempt = true;
  stream.breaker.failure_threshold = 8;
  stream.breaker.cooldown_s = 0.02;
  stream.breaker.half_open_probes = 2;
  stream.watchdog.poll_interval_s = 0.05;
  stream.watchdog.stall_s = 0.5;
  stream.overload_degrade = DegradePolicy::kApproximate;
  stream.queue_capacity = static_cast<std::size_t>(flags.num("queue", 256));
  // Transient faults on every pipeline site (any-instance nth triggers:
  // each fires once per request whose site call count reaches it, and the
  // retry deterministically recovers).
  const std::string fault =
      flags.str("fault-inject", "alloc:23,laminarize:7,tm_dp:11,left_merge:5,"
                                "validate:3");
  if (fault != "none") stream.engine.fault_injection = fault;

  StreamEngine engine(stream);

  // This thread is the checker, not the system under test: its own
  // validate() / oracle / minimizer calls share fault-instrumented
  // routines with the pipeline and must not trip the armed triggers.
  // Suppression is thread-local — the engine's pump and worker threads
  // still fault on schedule.
  const fault::SuppressScope checker_shield;

  struct Check {
    std::future<SolveOutcome> outcome;
    JobSet jobs;
    std::size_t k = 1;
    std::optional<Value> oracle;  ///< exact cap, small unmutated instances
  };
  std::deque<Check> window;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t error_frames = 0;
  std::size_t degraded_answers = 0;
  std::size_t wire_rejects = 0;
  std::size_t mutated_lines = 0;
  std::size_t mismatches = 0;
  std::string first_reason;
  JobSet bad_jobs;
  std::size_t bad_k = 1;

  // The differential predicate.  Empty string = the answer is consistent.
  const auto inconsistent = [&](const JobSet& jobs, std::size_t k,
                                const ScheduleResult& r,
                                const std::optional<Value>& oracle)
      -> std::string {
    const ValidationResult v = validate(jobs, r.schedule, k);
    if (!v) return "validator: " + v.error;
    if (r.value > jobs.total_value() + 1e-6) {
      return "value exceeds the instance total";
    }
    // Price >= 1 needs k >= 1: the bounded schedule then draws from the
    // seed's job set.  The k = 0 §5 algorithm re-selects from *all* jobs
    // and can legitimately beat a heuristic seed (test_combined.cpp).
    if (!r.degraded && k >= 1 && r.value > r.unbounded_value + 1e-6) {
      return "bounded value exceeds the unbounded value (price < 1)";
    }
    if (oracle && r.value > *oracle + 1e-6) {
      return "value exceeds the exact k-slot oracle";
    }
    return "";
  };

  const auto check_front = [&] {
    Check c = std::move(window.front());
    window.pop_front();
    const SolveOutcome outcome = c.outcome.get();
    ++completed;
    if (!outcome.has_value()) {
      ++error_frames;
      if (outcome.error().rule_ids().empty() && mismatches++ == 0) {
        first_reason = "error outcome without a rule id";
        bad_jobs = c.jobs;
        bad_k = c.k;
      }
      return;
    }
    const ScheduleResult& r = *outcome;
    if (r.degraded) ++degraded_answers;
    const std::string why = inconsistent(c.jobs, c.k, r, c.oracle);
    if (!why.empty() && mismatches++ == 0) {
      first_reason = why;
      bad_jobs = c.jobs;
      bad_k = c.k;
    }
  };

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  for (std::size_t i = 0;
       (min_requests > 0 && submitted < min_requests) ||
       (min_requests == 0 && elapsed() < seconds);
       ++i) {
    // Adversarial workload shapes: mostly mid-size streams, a steady diet
    // of oracle-checkable small instances, occasional tight-laxity ones.
    JobGenConfig config;
    const bool small = rng.bernoulli(0.3);
    config.n = small ? 3 + static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(oracle_n) - 3))
                     : static_cast<std::size_t>(rng.uniform_int(8, 24));
    config.min_length = 1;
    config.max_length = small ? 6 : 32;
    config.min_laxity = 1.0;
    config.max_laxity = rng.bernoulli(0.3) ? 1.5 : 5.0;
    config.horizon = small ? 32 : 512;
    config.value_mode = rng.bernoulli(0.5)
                            ? JobGenConfig::ValueMode::kRandomDensity
                            : JobGenConfig::ValueMode::kUniform;
    const JobSet jobs = random_jobs(config, rng);
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 2));

    // Render the wire frame the way a client would.
    std::string line = "{\"id\":\"c" + std::to_string(i) + "\",\"tenant\":\"t" +
                       std::to_string(i % 4) + "\",\"k\":" + std::to_string(k) +
                       ",\"jobs\":[";
    bool comma = false;
    for (const Job& j : jobs) {
      if (comma) line += ',';
      comma = true;
      line += '[' + std::to_string(j.release) + ',' +
              std::to_string(j.deadline) + ',' + std::to_string(j.length) +
              ',';
      io::append_number(line, j.value);
      line += ']';
    }
    line += ']';
    if (rng.bernoulli(0.15)) line += ",\"max_ops\":5000";
    if (rng.bernoulli(0.1)) line += ",\"degrade\":true";
    line += '}';

    const bool mutated = rng.bernoulli(mutate_rate);
    if (mutated) {
      ++mutated_lines;
      line = io::fuzz_mutate_line(std::move(line), rng);
    }

    // The wire boundary: parse failures are in-band rejections, never
    // crashes — and for mutated lines that still parse, the checks below
    // run on exactly what was parsed.
    auto parsed = io::try_parse_serve_request(line, i + 1);
    if (!parsed.has_value()) {
      ++wire_rejects;
      if (parsed.error().rule_ids().empty() && mismatches++ == 0) {
        first_reason = "wire rejection without a rule id";
        bad_jobs = jobs;
        bad_k = k;
      }
      continue;
    }
    io::ServeRequest request = std::move(*parsed);
    ScheduleOptions schedule;
    schedule.k = request.k.value_or(1);
    if (request.machines) schedule.machine_count = *request.machines;
    SubmitOptions submit;
    submit.tenant = std::move(request.tenant);
    if (request.max_ops > 0) {
      SolveBudget budget;
      budget.max_ops = request.max_ops;
      submit.budget = budget;
    }
    if (request.degrade) {
      submit.degrade = *request.degrade ? DegradePolicy::kApproximate
                                        : DegradePolicy::kNone;
    }

    Check check;
    check.jobs = request.jobs;  // what the engine will actually solve
    check.k = schedule.k;
    if (!mutated && check.jobs.size() <= oracle_n && check.jobs.size() > 0 &&
        check.k <= 2) {
      check.oracle =
          opt_k_slots(check.jobs, check.k, std::size_t{1} << 24);
    }
    check.outcome = engine.try_submit(std::move(request.jobs), schedule,
                                      std::move(submit));
    ++submitted;
    window.push_back(std::move(check));
    while (window.size() > 128) check_front();
  }
  while (!window.empty()) check_front();
  engine.drain();

  if (mismatches > 0) {
    // Greedy minimization: re-derive the mismatch on the plain synchronous
    // pipeline (no faults, no admission) and drop jobs while it persists;
    // if only the chaos stack reproduces it, the full instance ships.
    const auto plain_reason = [&](const JobSet& jobs) -> std::string {
      ScheduleOptions options;
      options.k = bad_k;
      const auto result = try_schedule_bounded(jobs, options);
      if (!result.has_value()) return "";  // a contained report is an answer
      std::optional<Value> oracle;
      if (jobs.size() <= oracle_n) {
        oracle = opt_k_slots(jobs, bad_k, std::size_t{1} << 24);
      }
      return inconsistent(jobs, bad_k, *result, oracle);
    };
    bool shrunk = true;
    while (shrunk && !plain_reason(bad_jobs).empty() && bad_jobs.size() > 1) {
      shrunk = false;
      for (JobId drop = 0; drop < bad_jobs.size(); ++drop) {
        JobSet smaller;
        for (JobId j = 0; j < bad_jobs.size(); ++j) {
          if (j != drop) smaller.add(bad_jobs[j]);
        }
        if (!plain_reason(smaller).empty()) {
          bad_jobs = std::move(smaller);
          shrunk = true;
          break;
        }
      }
    }
    std::error_code ec;
    std::filesystem::create_directories(repro_dir, ec);
    const std::string jobs_path = repro_dir + "/jobs.csv";
    io::save_jobs(jobs_path, bad_jobs);
    std::ofstream note(repro_dir + "/repro.txt");
    note << "reason: " << first_reason << "\n"
         << "replay: pobp solve --jobs jobs.csv --k " << bad_k << "\n"
         << "chaos seed: " << flags.num("seed", 1) << "\n";
    std::fprintf(stderr,
                 "chaos: MISMATCH after %zu request(s): %s\n"
                 "chaos: repro written to %s (%zu job(s), k=%zu)\n",
                 submitted, first_reason.c_str(), repro_dir.c_str(),
                 bad_jobs.size(), bad_k);
    return kExitInfeasible;
  }
  if (!quiet) {
    std::fprintf(
        stderr,
        "chaos: clean soak — %zu submitted (%zu mutated, %zu wire-rejected), "
        "%zu completed, %zu error frame(s), %zu degraded, %.1fs\n",
        submitted, mutated_lines, wire_rejects, completed, error_frames,
        degraded_answers, elapsed());
    std::fputs(engine.stats_json().c_str(), stderr);
    std::fputc('\n', stderr);
  }
  return kExitOk;
}

int cmd_validate(const Flags& flags) {
  const JobSet jobs = io::load_jobs(flags.str("jobs"));
  const Schedule schedule = io::load_schedule(flags.str("schedule"));
  const std::size_t k = flags.has("k")
                            ? static_cast<std::size_t>(flags.num("k", 0))
                            : kUnboundedPreemptions;
  const ValidationResult check = validate(jobs, schedule, k);
  if (check) {
    std::printf("feasible: %zu jobs, value %.6g, max preemptions %zu\n",
                schedule.job_count(), schedule.total_value(jobs),
                schedule.max_preemptions());
    return 0;
  }
  std::printf("INFEASIBLE: %s\n", check.error.c_str());
  return 1;
}

int cmd_price(const Flags& flags) {
  const JobSet jobs = io::load_jobs(flags.str("jobs"));
  ScheduleOptions options;
  options.k = static_cast<std::size_t>(flags.num("k", 1));
  options.machine_count = static_cast<std::size_t>(flags.num("machines", 1));
  if (flags.has("exact")) options.seed = ScheduleOptions::Seed::kExact;

  const Expected<ScheduleResult, diag::Report> outcome =
      try_schedule_bounded(jobs, options);
  if (!outcome) {
    std::fputs(diag::to_text(outcome.error()).c_str(), stderr);
    return exit_for(outcome.error());
  }
  const ScheduleResult& result = *outcome;
  const InstanceMetrics metrics = compute_metrics(jobs);
  const double n_bound =
      options.k >= 1 ? log_k1(options.k, static_cast<double>(metrics.n))
                     : static_cast<double>(metrics.n);
  const double p_bound = options.k >= 1 ? log_k1(options.k, metrics.P)
                                        : log_base(2.0, metrics.P);
  std::printf("instance: %s\n", metrics.to_string().c_str());
  std::printf("unbounded value: %.6g (%s seed)\n", result.unbounded_value,
              flags.has("exact") ? "exact" : "greedy");
  std::printf("k=%zu value:     %.6g\n", options.k, result.value);
  std::printf("price:          %.4f\n", result.price());
  std::printf("paper bound:    O(log_{k+1} min{n, P}) ~ min{%.2f, %.2f}\n",
              n_bound, p_bound);
  return 0;
}

int cmd_info(const Flags& flags) {
  const JobSet jobs = io::load_jobs(flags.str("jobs"));
  std::printf("%s\n", compute_metrics(jobs).to_string().c_str());
  return 0;
}

/// Thin launcher over the google-benchmark binary built next to this
/// executable (bench/bench_runtime in the same build tree).  `--kernels`
/// narrows to the SoA/SIMD kernel rows and their scalar-reference twins —
/// the pairs docs/PERF.md ("Kernel microbenchmarks") reads speedups from.
int cmd_bench(const Flags& flags) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot locate own executable (%s)\n",
                 ec.message().c_str());
    return kExitFileOpen;
  }
  const fs::path bin =
      self.parent_path().parent_path() / "bench" / "bench_runtime";
  if (!fs::exists(bin)) {
    std::fprintf(stderr,
                 "error: cannot open %s — build the bench_runtime target "
                 "in this tree first\n",
                 bin.c_str());
    return kExitFileOpen;
  }
  std::vector<std::string> args{bin.string()};
  if (flags.has("kernels")) {
    args.push_back(
        "--benchmark_filter=^(BM_TmChildMerge|BM_EdfSweep|BM_LsaClassify|"
        "BM_ValidateFast)(ScalarRef)?/");
  }
  if (flags.has("filter")) {
    args.push_back("--benchmark_filter=" + flags.str("filter"));
  }
  if (flags.has("min-time")) {
    args.push_back("--benchmark_min_time=" + flags.str("min-time"));
  }
  if (flags.has("out")) {
    args.push_back("--benchmark_out=" + flags.str("out"));
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  execv(argv[0], argv.data());  // only returns on failure
  std::fprintf(stderr, "error: cannot exec %s\n", bin.c_str());
  return kExitFileOpen;
}

int cmd_bas(const Flags& flags) {
  const Forest forest = io::load_forest(flags.str("forest"));
  const std::size_t k = static_cast<std::size_t>(flags.num("k", 1));
  const TmResult tm = tm_optimal_bas(forest, k);
  const BasCheck check = validate_bas(forest, tm.selection, k);
  if (!check) {
    std::fprintf(stderr, "internal error: %s\n", check.error.c_str());
    return 1;
  }
  std::printf("forest: %zu nodes, %zu roots, total value %.6g\n",
              forest.size(), forest.roots().size(), forest.total_value());
  std::printf("optimal %zu-BAS: %zu nodes kept, value %.6g (%.2f%% of "
              "total; worst-case guarantee %.2f%%)\n",
              k, tm.selection.kept_count(), tm.value,
              100.0 * tm.value / forest.total_value(),
              100.0 / log_k1(std::max<std::size_t>(k, 1),
                             static_cast<double>(std::max<std::size_t>(
                                 forest.size(), 2))));
  if (flags.has("heuristic")) {
    const ContractionResult lc = levelled_contraction(forest, k);
    std::printf("levelled contraction: value %.6g in %zu iterations "
                "(<= log_{k+1} n = %.2f)\n",
                lc.value, lc.iterations(),
                log_k1(k, static_cast<double>(forest.size())));
  }
  return 0;
}

}  // namespace

int cmd_sim(const Flags& flags) {
  const JobSet jobs = io::load_jobs(flags.str("jobs"));
  const std::string policy_name = flags.str("policy", "edf");
  const std::size_t k = static_cast<std::size_t>(flags.num("k", 1));
  sim::EdfPolicy edf;
  sim::NonPreemptivePolicy np;
  sim::BudgetEdfPolicy budget(k);
  sim::SrptBudgetPolicy srpt(k);
  sim::LaxityThresholdPolicy laxity(k, flags.real("alpha", 1.0));
  sim::Policy* policy = nullptr;
  if (policy_name == "edf") {
    policy = &edf;
  } else if (policy_name == "nonpreemptive") {
    policy = &np;
  } else if (policy_name == "budget") {
    policy = &budget;
  } else if (policy_name == "srpt") {
    policy = &srpt;
  } else if (policy_name == "laxity") {
    policy = &laxity;
  } else {
    usage("unknown --policy (edf | nonpreemptive | budget | srpt | laxity)");
  }
  const sim::SimConfig config{flags.num("cost", 0)};
  const sim::SimResult r = sim::simulate(jobs, *policy, config);
  std::printf("policy %s, dispatch cost %lld:\n", policy->name(),
              static_cast<long long>(config.dispatch_cost));
  std::printf("  completed %zu/%zu jobs, value %.6g of %.6g\n", r.completed,
              jobs.size(), r.value, jobs.total_value());
  std::printf("  dispatches %zu, overhead %lld, wasted work %lld, max "
              "preemptions %zu\n",
              r.dispatches, static_cast<long long>(r.overhead_time),
              static_cast<long long>(r.wasted_time), r.max_preemptions);
  if (flags.has("gantt")) {
    std::printf("%s", render_gantt(jobs, Schedule(r.schedule)).c_str());
  }
  return 0;
}

/// `pobp lint-src [paths...] [--root DIR] [--format text|json]` — the
/// repo-facing face of the srclint pass; the standalone pobp_srclint tool
/// carries the full interface (--rule, --as-path, --compile-commands).
int cmd_lint_src(int argc, char** argv) {
  srclint::DriveRequest request;
  std::string format = "text";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--root") {
      request.root = value();
    } else if (arg == "--format") {
      format = value();
      if (format != "text" && format != "json") {
        usage("unknown --format (text | json)");
      }
    } else if (arg.rfind("--", 0) == 0) {
      usage(("unknown lint-src flag " + arg).c_str());
    } else {
      request.paths.push_back(arg);
    }
  }
  if (request.paths.empty()) {
    // The CI default: the whole first-party tree relative to --root/cwd.
    request.paths = {"src", "tools", "bench", "examples"};
  }
  const diag::Report report = srclint::run_lint(request);
  if (format == "json") {
    std::printf("%s\n", diag::to_sarif(report, "pobp_srclint").c_str());
  } else {
    std::printf("%s", diag::to_text(report).c_str());
  }
  return report.ok() ? kExitOk : kExitInfeasible;
}

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "lint-src") {
    try {
      return cmd_lint_src(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return kExitUsage;
    }
  }
  const Flags flags(argc, argv, 2);
  try {
    if (command == "generate") return cmd_generate(flags);
    if (command == "solve") return cmd_solve(flags);
    if (command == "batch") return cmd_batch(flags);
    if (command == "serve") return cmd_serve(flags);
    if (command == "chaos") return cmd_chaos(flags);
    if (command == "validate") return cmd_validate(flags);
    if (command == "price") return cmd_price(flags);
    if (command == "info") return cmd_info(flags);
    if (command == "bench") return cmd_bench(flags);
    if (command == "bas") return cmd_bas(flags);
    if (command == "sim") return cmd_sim(flags);
  } catch (const io::ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParse;
  } catch (const std::invalid_argument& e) {
    // Bad flag values (e.g. a malformed --fault-inject spec).
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::exception& e) {
    const std::string what = e.what();
    std::fprintf(stderr, "error: %s\n", what.c_str());
    return what.rfind("cannot open", 0) == 0 ? kExitFileOpen
                                             : kExitInfeasible;
  }
  usage(("unknown command " + command).c_str());
}
