// pobp_perfbench — the repository's end-to-end benchmark.
//
//   pobp_perfbench --workload serve_small|serve_cache|batch_large
//                  --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// Untraced (--trace 0): one timed window of the workload, every answer
// checked afterwards, the end-to-end metrics printed.  Traced (--trace 1):
// an untraced window, then a traced window of the same workload and seed
// (spans around the serve layers), then a single-thread replay of every
// request through each layer's public entry points; prints the per-layer
// metrics.  The last stdout line is the JSON result.  See README.md.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pobp/engine/engine.hpp"
#include "pobp/engine/serve.hpp"
#include "pobp/io/wire.hpp"
#include "pobp/schedule/validate.hpp"
#include "pobp/util/parallel.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kReferenceThreads = 3;
// Set-ups per untraced run; setup_s is their median.  Half run before the
// window and half after it, so the median samples the host over the whole
// run, as the window's figures do.
constexpr std::size_t kServeSetups = 15;
constexpr std::size_t kBatchSetups = 9;
// Length of one serve chunk.  A serve window's cpu_ms_per_op is the median
// over its chunks, and a batch window's figures are medians over its
// passes, so a spell of host noise moves only the chunks or passes in it.
constexpr double kChunkSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Times `reps` set-ups into `times`; the last one's engine stays in
/// `engine`.
template <typename Engine, typename Setup>
void time_setups(std::size_t reps, Engine& engine, const Setup& setup,
                 std::vector<double>& times) {
  for (std::size_t rep = 0; rep < reps; ++rep) {
    engine = Engine{};
    const std::int64_t t0 = now_ns();
    engine = setup();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
}

/// Peak RSS since the baseline, from the kernel's high-water mark, which
/// the baseline resets: no peak between two reads is missed.
class RssPeak {
 public:
  /// False when the kernel refuses the reset (the peak would then be the
  /// process lifetime's, set-up and reference solves included).
  bool baseline() {
    trim_heap();
    if (!reset_peak_rss()) return false;
    base_ = current_rss_mb();
    return true;
  }
  double peak_mb() const { return peak_rss_mb(); }
  double growth_mb() const { return peak_mb() - base_; }

 private:
  double base_ = 0;
};

// --- serve workloads ---------------------------------------------------------

/// The request → options mapping of `pobp serve` (tools/pobp_cli.cpp).
struct ServeCall {
  pobp::io::ServeRequest request;
  pobp::ScheduleOptions schedule;
  pobp::SubmitOptions submit;
};

void to_call(const pobp::StreamOptions& stream, ServeCall& call) {
  pobp::io::ServeRequest& r = call.request;
  call.schedule = stream.engine.schedule;
  if (r.k) call.schedule.k = *r.k;
  if (r.machines) call.schedule.machine_count = *r.machines;
  call.submit = pobp::SubmitOptions{};
  call.submit.tenant = r.tenant;
  if (r.deadline_ms > 0) call.submit.deadline_s = r.deadline_ms / 1000.0;
  if (r.max_ops > 0) {
    pobp::SolveBudget budget = stream.engine.budget;
    budget.max_ops = r.max_ops;
    call.submit.budget = budget;
  }
  if (r.degrade) {
    call.submit.degrade = *r.degrade ? pobp::DegradePolicy::kApproximate
                                     : pobp::DegradePolicy::kNone;
  }
  if (!r.cache.empty()) {
    call.submit.cache = r.cache == "off"    ? pobp::CacheMode::kOff
                        : r.cache == "read" ? pobp::CacheMode::kRead
                                            : pobp::CacheMode::kReadWrite;
  }
}

bool parse_call(const std::string& line, std::size_t line_no,
                const pobp::StreamOptions& stream, ServeCall& call) {
  auto parsed = pobp::io::try_parse_serve_request(line, line_no);
  if (!parsed) return false;
  call.request = std::move(*parsed);
  to_call(stream, call);
  return true;
}

pobp::StreamOptions stream_options(const ServeParams& params,
                                   std::shared_ptr<pobp::SolveCache> cache) {
  pobp::StreamOptions o;
  o.engine.workers = params.workers;
  o.engine.cache = std::move(cache);
  o.queue_capacity = 1024;
  o.max_batch = 64;
  // Armed but sized so they never reject: a correct run has no pipeline
  // faults for the breaker to count, and the bucket refills far faster
  // than any workload sends.
  o.tenant_rate.tokens_per_s = 1e7;
  o.tenant_rate.burst = 1e7;
  o.breaker.failure_threshold = 1000;
  return o;
}

pobp::io::ResponseStats response_stats(const pobp::ScheduleResult& r) {
  pobp::io::ResponseStats stats;
  stats.value = r.value;
  stats.unbounded_value = r.unbounded_value;
  stats.price = r.price();
  stats.degraded = r.degraded;
  stats.jobs_scheduled = r.schedule.job_count();
  return stats;
}

std::string render(const std::string& id, const pobp::SolveOutcome& outcome,
                   bool want_schedule) {
  if (!outcome.has_value()) return pobp::io::error_frame(id, outcome.error());
  const pobp::ScheduleResult& r = *outcome;
  return pobp::io::response_frame(id, response_stats(r),
                                  want_schedule ? &r.schedule : nullptr);
}

/// value <= unbounded_value where the program promises it: k >= 1 answers
/// of the exact pipeline bound a subset of the seed's jobs.  The k = 0
/// path and the degraded path re-select from all jobs and may beat the
/// greedy seed (tests/test_combined.cpp, ScheduleBoundedEndToEnd).
bool within_seed_value(std::size_t k, const pobp::ScheduleResult& r) {
  return k == 0 || r.degraded || r.value <= r.unbounded_value;
}

/// What a single-worker, cache-off solve of one distinct instance answers.
struct Expected {
  std::string frame_tail;  ///< the frame after `{"id":""`
  std::uint64_t digest = 0;
  bool ok = false;
  bool valid = false;  ///< full validate() passed, value <= unbounded
};

constexpr std::string_view kEmptyIdPrefix = "{\"id\":\"\"";

std::vector<Expected> reference_answers(const ServeWorkload& w,
                                        const pobp::StreamOptions& stream) {
  std::vector<std::size_t> first(w.bodies, 0);
  std::vector<bool> seen(w.bodies, false);
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const std::uint32_t b = w.requests[i].body;
    if (!seen[b]) {
      seen[b] = true;
      first[b] = i;
    }
  }
  std::vector<Expected> out(w.bodies);
  const auto work = [&](std::size_t t) {
    pobp::EngineOptions options;
    options.workers = 1;
    pobp::Session session(options);
    for (std::size_t b = t; b < w.bodies; b += kReferenceThreads) {
      ServeCall call;
      if (!parse_call(w.requests[first[b]].line, first[b] + 1, stream, call)) {
        continue;
      }
      const pobp::SolveOutcome outcome = session.try_solve(
          call.request.jobs, call.schedule, call.submit, first[b]);
      Expected& e = out[b];
      const std::string frame = render("", outcome, call.request.want_schedule);
      e.frame_tail = frame.substr(kEmptyIdPrefix.size());
      e.ok = outcome.has_value();
      if (e.ok) {
        e.digest = result_digest(*outcome);
        e.valid = pobp::validate(call.request.jobs, outcome->schedule,
                                 call.schedule.k)
                      .ok &&
                  within_seed_value(call.schedule.k, *outcome);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back(work, t);
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// Bytes of one SolveCache entry for instances of this workload, measured
/// on a sample so the engine's byte budget can hold a set share of them.
/// 32 instances gave budgets 48–59 MB across seeds, and the peak RSS
/// followed them.
constexpr std::size_t kBudgetSample = 256;

std::size_t cache_budget_bytes(const ServeWorkload& w,
                               const pobp::StreamOptions& stream) {
  pobp::EngineOptions options;
  options.workers = 1;
  options.cache = std::make_shared<pobp::SolveCache>(
      pobp::SolveCacheOptions{.max_bytes = std::size_t{1} << 34});
  pobp::Session session(options);
  std::vector<bool> seen(w.bodies, false);
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < w.requests.size() && sampled < kBudgetSample;
       ++i) {
    if (seen[w.requests[i].body]) continue;
    seen[w.requests[i].body] = true;
    ServeCall call;
    if (!parse_call(w.requests[i].line, i + 1, stream, call)) continue;
    (void)session.try_solve(call.request.jobs, call.schedule, call.submit, i);
    ++sampled;
  }
  const pobp::CacheStats stats = options.cache->stats();
  const double per_entry = ratio(static_cast<double>(stats.bytes),
                                 static_cast<double>(stats.entries));
  return static_cast<std::size_t>(per_entry * static_cast<double>(w.bodies) *
                                  w.params.cache_fill);
}

/// One timed window of a serve workload.
struct ServeWindow {
  std::size_t n = 0;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> queue_depth;
  std::vector<std::uint32_t> jobs;  ///< per request, for parse ns/job
  std::vector<std::int32_t> root;   ///< live root span per request
  double window_s = 0;
  double cpu_s = 0;
  std::vector<double> chunk_cpu_ms;  ///< CPU per request, per chunk
  double steal = 0;
  double value_sum = 0;
  double unbounded_sum = 0;
  // Answers, kept for the checks after the window.
  std::vector<char> arena;
  std::vector<std::size_t> offset;
  std::vector<std::size_t> length;
  std::vector<std::uint64_t> digest;
  std::vector<std::uint8_t> ok;
  std::vector<std::uint8_t> done;
  std::vector<std::int64_t> due;  ///< scheduled send times (ns)
  // Engine-side counters read after the window.
  pobp::EngineMetrics metrics;
  pobp::TenantStats tenants;
  pobp::CacheStats cache;
};

struct ServeEngine {
  std::shared_ptr<pobp::SolveCache> cache;
  std::unique_ptr<pobp::StreamEngine> engine;
};

/// Engine (and cache) construction plus the warm-up requests that grow
/// the pool, sessions, scratch and arenas.  Warm-up requests bypass the
/// cache so the timed window starts with it empty.
ServeEngine serve_setup(const ServeWorkload& w, std::size_t cache_bytes) {
  ServeEngine e;
  if (w.params.cache) {
    e.cache = std::make_shared<pobp::SolveCache>(
        pobp::SolveCacheOptions{.max_bytes = cache_bytes});
  }
  const pobp::StreamOptions stream = stream_options(w.params, e.cache);
  e.engine = std::make_unique<pobp::StreamEngine>(stream);
  std::vector<std::future<pobp::SolveOutcome>> pending;
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    ServeCall call;
    if (!parse_call(w.warmup[i], i + 1, stream, call)) continue;
    call.submit.cache = pobp::CacheMode::kOff;
    pending.push_back(e.engine->submit(std::move(call.request.jobs),
                                       call.schedule, std::move(call.submit)));
  }
  for (auto& f : pending) (void)f.get();
  return e;
}

/// Per-tenant counters summed over the tenants, minus `since` (the sums
/// before the window, so warm-up requests are not counted).
pobp::TenantStats window_tenants(const pobp::StreamEngine& engine,
                                 const pobp::TenantStats& since) {
  pobp::TenantStats sum;
  for (const auto& [name, t] : engine.tenant_stats()) {
    sum.submitted += t.submitted;
    sum.completed += t.completed;
    sum.failed += t.failed;
    sum.shed += t.shed;
    sum.degraded += t.degraded;
    sum.rejected_quota += t.rejected_quota;
    sum.rejected_rate += t.rejected_rate;
    sum.rejected_breaker += t.rejected_breaker;
  }
  sum.submitted -= since.submitted;
  sum.completed -= since.completed;
  sum.failed -= since.failed;
  sum.shed -= since.shed;
  sum.degraded -= since.degraded;
  sum.rejected_quota -= since.rejected_quota;
  sum.rejected_rate -= since.rejected_rate;
  sum.rejected_breaker -= since.rejected_breaker;
  return sum;
}

/// Sizes every per-request buffer of a window and touches the answer
/// storage, before the RSS baseline, so keeping the answers for the checks
/// adds nothing to the memory figure.
void prepare_serve_window(const ServeWorkload& w,
                          const std::vector<Expected>& expected, bool traced,
                          ServeWindow& out) {
  const std::size_t n = w.requests.size();
  out.n = n;
  out.latency_ms.assign(n, 0);
  out.lag_ms.assign(n, 0);
  out.jobs.assign(n, 0);
  out.root.assign(n, -1);
  out.digest.assign(n, 0);
  out.ok.assign(n, 0);
  out.done.assign(n, 0);
  out.offset.assign(n, 0);
  out.length.assign(n, 0);
  out.due.assign(n, 0);
  if (traced) out.queue_depth.reserve(n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.offset[i] = total;
    total += expected[w.requests[i].body].frame_tail.size() + 32;
  }
  out.arena.assign(total, 0);
}

void run_serve_window(const ServeWorkload& w, ServeEngine& e, Tracer* tracer,
                      ServeWindow& out) {
  const std::size_t n = w.requests.size();
  const pobp::StreamOptions& stream = e.engine->options();

  struct Pending {
    std::size_t index;
    std::future<pobp::SolveOutcome> outcome;
    std::string id;
    bool want_schedule;
    std::int32_t await_span;
  };
  std::deque<Pending> pending;

  const std::int64_t t0 = now_ns() + 2'000'000;
  std::vector<std::int64_t>& due = out.due;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<std::int64_t>(w.requests[i].send_at_s * 1e9);
  }
  const pobp::TenantStats before = window_tenants(*e.engine, {});
  const HostTicks ticks0 = read_host_ticks();
  const double cpu0 = process_cpu_s();
  const std::size_t chunk = std::max<std::size_t>(
      1, static_cast<std::size_t>(w.params.rate * kChunkSeconds));
  double chunk_cpu0 = cpu0;
  std::size_t next = 0;
  std::int64_t last_done = t0;

  const auto harvest = [&](Pending& p, std::int64_t ready_ns) {
    const pobp::SolveOutcome outcome = p.outcome.get();
    const std::int32_t root = out.root[p.index];
    if (tracer != nullptr) tracer->close(p.await_span, ready_ns);
    const std::int32_t span =
        tracer ? tracer->open(SpanName::kIoRender,
                              static_cast<std::uint32_t>(p.index), root,
                              ready_ns)
               : -1;
    const std::string frame = render(p.id, outcome, p.want_schedule);
    const std::int64_t end = now_ns();
    if (tracer != nullptr) {
      tracer->close(span, end);
      tracer->close(root, end);
    }
    out.latency_ms[p.index] = ms(end - due[p.index]);
    last_done = end;
    if (outcome.has_value()) {
      out.ok[p.index] = 1;
      out.digest[p.index] = result_digest(*outcome);
      out.value_sum += outcome->value;
      out.unbounded_sum += outcome->unbounded_value;
    }
    const std::size_t room =
        (p.index + 1 < n ? out.offset[p.index + 1] : out.arena.size()) -
        out.offset[p.index];
    out.length[p.index] = frame.size();
    std::memcpy(out.arena.data() + out.offset[p.index], frame.data(),
                std::min(room, frame.size()));
    out.done[p.index] = 1;
  };

  while (next < n || !pending.empty()) {
    std::int64_t now = now_ns();
    if (next < n && now >= due[next]) {
      const std::size_t i = next++;
      out.lag_ms[i] = ms(now - due[i]);
      if (i > 0 && i % chunk == 0) {
        // The CPU of the chunk of sends that ends here.  Chunks are cut at
        // sends, which keep to the schedule even when harvests bunch up.
        const double cpu = process_cpu_s();
        out.chunk_cpu_ms.push_back((cpu - chunk_cpu0) * 1e3 /
                                   static_cast<double>(chunk));
        chunk_cpu0 = cpu;
      }
      const auto req = static_cast<std::uint32_t>(i);
      std::int32_t root = -1;
      std::int32_t span = -1;
      if (tracer != nullptr) {
        out.queue_depth.push_back(static_cast<double>(e.engine->queue_depth()));
        root = tracer->open(SpanName::kRequest, req, -1, now);
        span = tracer->open(SpanName::kIoParse, req, root, now);
      }
      out.root[i] = root;
      auto parsed =
          pobp::io::try_parse_serve_request(w.requests[i].line, i + 1);
      const std::int64_t parsed_ns = now_ns();
      if (tracer != nullptr) {
        tracer->close(span, parsed_ns);
        span = tracer->open(SpanName::kEngineSubmit, req, root, parsed_ns);
      }
      if (!parsed) continue;  // unanswered: counted as failed afterwards
      ServeCall call;
      call.request = std::move(*parsed);
      to_call(stream, call);
      out.jobs[i] = static_cast<std::uint32_t>(call.request.jobs.size());
      Pending p{i, {}, std::move(call.request.id), call.request.want_schedule,
                -1};
      p.outcome = e.engine->submit(std::move(call.request.jobs), call.schedule,
                                   std::move(call.submit));
      if (tracer != nullptr) {
        const std::int64_t submitted = now_ns();
        tracer->close(span, submitted);
        p.await_span =
            tracer->open(SpanName::kEngineAwait, req, root, submitted);
      }
      pending.push_back(std::move(p));
      continue;
    }
    if (!pending.empty()) {
      // Responses leave in submission order; wait on the oldest only
      // until the next send is due.
      Pending& front = pending.front();
      if (next < n) {
        const Clock::time_point until{std::chrono::nanoseconds(due[next])};
        if (front.outcome.wait_until(until) != std::future_status::ready) {
          continue;
        }
      } else {
        front.outcome.wait();
      }
      harvest(front, now_ns());
      pending.pop_front();
      continue;
    }
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due[next])));
  }
  out.cpu_s = process_cpu_s() - cpu0;
  out.steal = steal_share(ticks0, read_host_ticks());
  out.window_s = static_cast<double>(last_done - t0) * 1e-9;
  e.engine->drain();
  out.metrics = e.engine->metrics();
  out.tenants = window_tenants(*e.engine, before);
  if (e.cache) out.cache = e.cache->stats();
}

/// Checks every answer of a window against the reference; returns the
/// number of requests that are missing, failed or wrong.
std::uint64_t check_serve(const ServeWorkload& w, const ServeWindow& win,
                          const std::vector<Expected>& expected,
                          std::uint64_t& output_digest) {
  std::uint64_t bad = 0;
  Digest d;
  for (std::size_t i = 0; i < win.n; ++i) {
    const Expected& e = expected[w.requests[i].body];
    const std::string prefix = "{\"id\":\"r" + std::to_string(i) + "\"";
    const std::size_t want = prefix.size() + e.frame_tail.size();
    const std::string_view got(win.arena.data() + win.offset[i],
                               std::min(win.length[i], want));
    const bool frame_ok = win.done[i] && win.length[i] == want &&
                          got.substr(0, prefix.size()) == prefix &&
                          got.substr(prefix.size()) == e.frame_tail;
    const bool answer_ok = e.ok && e.valid && win.ok[i] &&
                           win.digest[i] == e.digest;
    if (!frame_ok || !answer_ok) {
      if (bad < 3) {
        std::fprintf(stderr,
                     "request %zu: %s%s\n  got:  %.*s\n  want: %s%s\n", i,
                     frame_ok ? "" : "frame differs ",
                     answer_ok ? "" : "answer differs",
                     static_cast<int>(std::min<std::size_t>(got.size(), 300)),
                     got.data(), prefix.c_str(),
                     e.frame_tail.substr(0, 300).c_str());
      }
      ++bad;
    }
    d.add_bytes(got);
  }
  output_digest = d.h;
  return bad;
}

// --- batch workload ----------------------------------------------------------

struct BatchEngines {
  std::vector<std::unique_ptr<pobp::Engine>> engines;  ///< one per group
  std::vector<std::vector<pobp::ScheduleResult>> results;
};

pobp::EngineOptions batch_options(const BatchWorkload& w, const BatchGroup& g) {
  pobp::EngineOptions o;
  o.workers = w.workers;
  o.schedule.k = g.k;
  o.schedule.machine_count = g.machines;
  return o;
}

void batch_pass(const BatchWorkload& w, BatchEngines& e) {
  for (std::size_t g = 0; g < w.groups.size(); ++g) {
    e.engines[g]->solve_batch_into(w.groups[g].instances, pobp::SubmitOptions{},
                                   e.results[g]);
  }
}

BatchEngines batch_setup(const BatchWorkload& w) {
  BatchEngines e;
  for (const BatchGroup& g : w.groups) {
    e.engines.push_back(std::make_unique<pobp::Engine>(batch_options(w, g)));
  }
  e.results.resize(w.groups.size());
  batch_pass(w, e);
  return e;
}

/// Per-group reference digests from a single-worker session, and whether
/// each reference answer passed the full validate() and the value check.
struct BatchReference {
  std::vector<std::vector<std::uint64_t>> digest;
  std::vector<std::vector<std::uint8_t>> valid;
};

BatchReference batch_reference(const BatchWorkload& w) {
  BatchReference ref;
  ref.digest.resize(w.groups.size());
  ref.valid.resize(w.groups.size());
  std::vector<std::thread> threads;
  for (std::size_t g = 0; g < w.groups.size(); ++g) {
    threads.emplace_back([&, g] {
      pobp::EngineOptions o = batch_options(w, w.groups[g]);
      o.workers = 1;
      pobp::Session session(o);
      for (const pobp::JobSet& jobs : w.groups[g].instances) {
        pobp::ScheduleResult r;
        session.solve_into(jobs, r);
        ref.digest[g].push_back(result_digest(r));
        ref.valid[g].push_back(
            pobp::validate(jobs, r.schedule, w.groups[g].k).ok &&
            within_seed_value(w.groups[g].k, r));
      }
    });
    if (threads.size() == kReferenceThreads || g + 1 == w.groups.size()) {
      for (std::thread& t : threads) t.join();
      threads.clear();
    }
  }
  return ref;
}

struct BatchWindow {
  std::vector<double> pass_ms;
  std::vector<double> pass_rate;    ///< right answers per second, per pass
  std::vector<double> pass_cpu_ms;  ///< CPU per instance, per pass
  double busy_s = 0;
  double cpu_s = 0;
  double steal = 0;
  std::uint64_t ops = 0;
  std::uint64_t bad = 0;
  double value_sum = 0;
  double unbounded_sum = 0;
  std::uint64_t output_digest = 0;
  pobp::EngineMetrics metrics;
};

void run_batch_window(const BatchWorkload& w, BatchEngines& e,
                      const BatchReference& ref, double seconds,
                      Tracer* tracer, BatchWindow& out) {
  const HostTicks ticks0 = read_host_ticks();
  Digest d;
  std::uint32_t pass = 0;
  // Closed loop: the next pass starts when the previous one returned.  The
  // answer checks between passes are outside the measured time and CPU.
  while (out.busy_s < seconds || out.pass_ms.empty()) {
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    const std::int32_t span =
        tracer ? tracer->open(SpanName::kBatchPass, pass, -1, t0) : -1;
    batch_pass(w, e);
    const std::int64_t t1 = now_ns();
    if (tracer != nullptr) tracer->close(span, t1);
    const double cpu = process_cpu_s() - cpu0;
    out.cpu_s += cpu;
    out.busy_s += static_cast<double>(t1 - t0) * 1e-9;
    out.pass_ms.push_back(ms(t1 - t0));
    std::uint64_t right = 0;
    for (std::size_t g = 0; g < w.groups.size(); ++g) {
      for (std::size_t i = 0; i < w.groups[g].instances.size(); ++i) {
        const pobp::ScheduleResult& r = e.results[g][i];
        const std::uint64_t digest = result_digest(r);
        if (digest == ref.digest[g][i] && ref.valid[g][i]) ++right;
        out.value_sum += r.value;
        out.unbounded_sum += r.unbounded_value;
        if (pass == 0) d.add(digest);
      }
    }
    const std::size_t count = w.instance_count();
    out.ops += count;
    out.bad += count - right;
    out.pass_rate.push_back(static_cast<double>(right) * 1e3 /
                            out.pass_ms.back());
    out.pass_cpu_ms.push_back(cpu * 1e3 / static_cast<double>(count));
    ++pass;
  }
  out.steal = steal_share(ticks0, read_host_ticks());
  out.output_digest = d.h;
  for (const auto& engine : e.engines) out.metrics.merge(engine->metrics());
}

// --- per-layer metrics from the replay ---------------------------------------

/// Self time by span name, summed per request and overall, and the sum of
/// each name's whole durations.
struct LayerTimes {
  std::vector<std::vector<double>> per_request_ns;  ///< [name][request]
  std::vector<std::vector<std::uint8_t>> present;   ///< [name][request]
  std::vector<double> total_ns;                     ///< [name] sum of self
  std::vector<double> span_ns;                      ///< [name] sum of dur
};

LayerTimes layer_times(const std::vector<Span>& spans, std::size_t requests) {
  const std::vector<std::int64_t> self = self_times(spans);
  const auto names = static_cast<std::size_t>(SpanName::kCount);
  LayerTimes t;
  t.per_request_ns.assign(names, std::vector<double>(requests, 0));
  t.present.assign(names, std::vector<std::uint8_t>(requests, 0));
  t.total_ns.assign(names, 0);
  t.span_ns.assign(names, 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto name = static_cast<std::size_t>(spans[i].name);
    if (spans[i].request >= requests) continue;
    t.per_request_ns[name][spans[i].request] += static_cast<double>(self[i]);
    t.present[name][spans[i].request] = 1;
    t.total_ns[name] += static_cast<double>(self[i]);
    t.span_ns[name] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  return t;
}

/// Samples (in µs) of one span name's per-request self time, over the
/// requests that ran it.
std::vector<double> samples_us(const LayerTimes& t, SpanName name) {
  const auto n = static_cast<std::size_t>(name);
  std::vector<double> out;
  for (std::size_t r = 0; r < t.per_request_ns[n].size(); ++r) {
    if (t.present[n][r]) out.push_back(t.per_request_ns[n][r] * 1e-3);
  }
  return out;
}

/// Whole-span durations (µs) of one name, for spans whose self time is not
/// the point (the k = 0 and degraded bounding steps).
std::vector<double> durations_us(const std::vector<Span>& spans,
                                 SpanName name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(us(s.end_ns - s.start_ns));
  }
  return out;
}

/// Durations (µs) of one span name split by a per-request predicate.
std::vector<double> durations_us_if(const std::vector<Span>& spans,
                                    SpanName name,
                                    const std::vector<std::uint8_t>& keep) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name && s.request < keep.size() && keep[s.request]) {
      out.push_back(us(s.end_ns - s.start_ns));
    }
  }
  return out;
}

struct ReplayOutcome {
  std::vector<Span> spans;          ///< replay spans only
  ReplayCounts counts;
  std::vector<double> solve_ns;     ///< per request: replay root duration
  std::vector<std::uint8_t> hit;    ///< per request: answered by cache.get
  std::uint64_t mismatched = 0;     ///< replay != engine answer
  std::uint64_t unanswered = 0;
  std::vector<double> stage_mean_s; ///< per engine Stage, replayed
};

/// Runs `body` on a ThreadPool worker: the batch engine's solves ran on
/// pool workers, where the TM fork degrades to serial, and the replay must
/// time the same code path.
template <typename F>
void on_pool_worker(F&& body) {
  pobp::ThreadPool pool(1);
  pool.submit([&body] { body(); });
  pool.wait_idle();
}

void finish_replay(ReplayOutcome& r, std::size_t requests) {
  r.solve_ns.assign(requests, 0);
  r.hit.assign(requests, 0);
  // A request was a cache hit when it had a cache.get and no seed.
  std::vector<std::uint8_t> got(requests, 0);
  std::vector<std::uint8_t> seeded(requests, 0);
  for (const Span& s : r.spans) {
    if (s.request >= requests) continue;
    if (s.name == SpanName::kSolve) {
      r.solve_ns[s.request] = static_cast<double>(s.end_ns - s.start_ns);
    }
    if (s.name == SpanName::kCacheGet) got[s.request] = 1;
    if (s.name == SpanName::kSeed) seeded[s.request] = 1;
  }
  for (std::size_t i = 0; i < requests; ++i) r.hit[i] = got[i] && !seeded[i];
  // Replayed stage means over every solve, for the cross-check against
  // EngineMetrics::stage_seconds (which records zeros for cache hits).
  const LayerTimes t = layer_times(r.spans, requests);
  const auto total = [&](SpanName n) {
    return t.span_ns[static_cast<std::size_t>(n)] * 1e-9 /
           static_cast<double>(std::max<std::uint64_t>(1, r.counts.solves));
  };
  r.stage_mean_s = {total(SpanName::kSeed),   total(SpanName::kLaminarize),
                    total(SpanName::kForest), total(SpanName::kPrune),
                    total(SpanName::kLsa),    total(SpanName::kMerge),
                    total(SpanName::kValidate)};
}

ReplayOutcome replay_serve(const ServeWorkload& w, const ServeWindow& win,
                           std::size_t cache_bytes) {
  ReplayOutcome r;
  const std::size_t n = w.requests.size();
  Tracer tracer(n * 48 + 1024);
  std::shared_ptr<pobp::SolveCache> cache;
  if (w.params.cache) {
    cache = std::make_shared<pobp::SolveCache>(
        pobp::SolveCacheOptions{.max_bytes = cache_bytes});
  }
  const pobp::StreamOptions stream = stream_options(w.params, cache);
  // One worker: the engine solved every request on its pump thread, a
  // plain thread, and so does the replay.
  std::thread([&] {
    Replayer replayer(tracer, cache.get());
    pobp::ScheduleResult result;
    for (std::size_t i = 0; i < n; ++i) {
      ServeCall call;
      if (!parse_call(w.requests[i].line, i + 1, stream, call)) {
        ++r.unanswered;
        continue;
      }
      ReplayRequest req;
      req.jobs = &call.request.jobs;
      req.options = call.schedule;
      req.budget = call.submit.budget;
      req.degrade =
          call.submit.degrade.value_or(stream.engine.degrade) ==
          pobp::DegradePolicy::kApproximate;
      req.cache_mode = call.submit.cache.value_or(stream.engine.cache_mode);
      const bool answered =
          replayer.solve(static_cast<std::uint32_t>(i), req, result);
      if (!answered) {
        ++r.unanswered;
        continue;
      }
      if (!win.ok[i] || result_digest(result) != win.digest[i]) ++r.mismatched;
    }
    r.counts = std::move(replayer.counts);
  }).join();
  if (tracer.overflowed()) {
    std::fprintf(stderr, "replay span buffer overflowed\n");
    r.mismatched = n;
  }
  r.spans = tracer.spans();
  finish_replay(r, n);
  return r;
}

ReplayOutcome replay_batch(const BatchWorkload& w, const BatchReference& ref) {
  ReplayOutcome r;
  const std::size_t n = w.instance_count();
  Tracer tracer(n * 96 + 1024);
  on_pool_worker([&] {
    Replayer replayer(tracer, nullptr);
    pobp::ScheduleResult result;
    // The engine's workers grew their scratch on earlier passes.  Each
    // instance is the largest of its group so far, so a single replay pass
    // would time the growth of every buffer; the first pass is dropped.
    for (int pass = 0; pass < 2; ++pass) {
      tracer.clear();
      replayer.counts = ReplayCounts{};
      r.unanswered = 0;
      r.mismatched = 0;
      std::uint32_t id = 0;
      for (std::size_t g = 0; g < w.groups.size(); ++g) {
        const pobp::EngineOptions options = batch_options(w, w.groups[g]);
        for (std::size_t i = 0; i < w.groups[g].instances.size(); ++i, ++id) {
          ReplayRequest req;
          req.jobs = &w.groups[g].instances[i];
          req.options = options.schedule;
          if (!replayer.solve(id, req, result)) {
            ++r.unanswered;
            continue;
          }
          if (result_digest(result) != ref.digest[g][i]) ++r.mismatched;
        }
      }
    }
    r.counts = std::move(replayer.counts);
  });
  if (tracer.overflowed()) {
    std::fprintf(stderr, "replay span buffer overflowed\n");
    r.mismatched = n;
  }
  r.spans = tracer.spans();
  finish_replay(r, n);
  return r;
}

/// Writes the live spans, then the replay spans (parents re-based), as one
/// TSV file.
void write_spans(const std::string& path, const std::vector<Span>& live,
                 const std::vector<Span>& replay) {
  if (path.empty()) return;
  Tracer all(live.size() + replay.size());
  for (const std::vector<Span>* part : {&live, &replay}) {
    const auto base = static_cast<std::int32_t>(all.spans().size());
    for (const Span& s : *part) {
      const std::int32_t i = all.open(s.name, s.request,
                                      s.parent < 0 ? -1 : s.parent + base,
                                      s.start_ns);
      all.close(i, s.end_ns);
    }
  }
  if (!all.write_tsv(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

void print_stage_cross_check(const ReplayOutcome& r,
                             const pobp::EngineMetrics& m) {
  std::printf("# stage means per solve, replay vs EngineMetrics::stage_seconds"
              " of the timed run (us):\n");
  for (std::size_t s = 0; s < pobp::kStageCount; ++s) {
    const std::string stage(pobp::to_string(static_cast<pobp::Stage>(s)));
    std::printf("#   %-10s replay %10.2f   engine %10.2f\n", stage.c_str(),
                r.stage_mean_s[s] * 1e6, m.stage_seconds[s].mean() * 1e6);
  }
}

/// The per-layer metrics every workload prints (zeros where the workload
/// never enters a layer).
void add_layer_metrics(MetricSink& sink, const ReplayOutcome& r,
                       std::size_t requests) {
  const LayerTimes t = layer_times(r.spans, requests);
  const ReplayCounts& c = r.counts;

  // cache
  sink.add_tails("cache.key_us", samples_us(t, SpanName::kCacheKey), "us");
  sink.add_tails("cache.hit_us",
                 durations_us_if(r.spans, SpanName::kCacheGet, r.hit), "us");
  std::vector<std::uint8_t> missed(r.hit.size());
  for (std::size_t i = 0; i < missed.size(); ++i) missed[i] = !r.hit[i];
  const Tail miss =
      tail(durations_us_if(r.spans, SpanName::kCacheGet, missed), 50);
  char note[64];
  std::snprintf(note, sizeof note, "p50, n=%zu", miss.n);
  sink.add("cache.miss_us.p50", miss.value, "us", note);
  sink.add_tails("cache.delta_us", samples_us(t, SpanName::kCacheDelta), "us");
  sink.add_tails("cache.insert_us", samples_us(t, SpanName::kCacheInsert),
                 "us");
  sink.add("cache.hit_ratio",
           ratio(static_cast<double>(c.cache_hits),
                 static_cast<double>(c.cache_lookups)),
           "ratio");
  sink.add("cache.delta_ratio",
           ratio(static_cast<double>(c.delta_found),
                 static_cast<double>(c.cache_misses)),
           "ratio", "delta neighbours found / misses");
  sink.add("cache.evict_per_insert",
           ratio(static_cast<double>(c.evictions),
                 static_cast<double>(c.inserts)),
           "ratio");
  const double saved =
      static_cast<double>(c.delta_without_ns - c.delta_with_ns);
  sink.add("cache.delta_saved_share",
           ratio(saved, static_cast<double>(c.delta_solve_ns) + saved), "ratio",
           "of patched solves' time without the hint");

  // solvers
  sink.add_tails("solvers.seed_us", samples_us(t, SpanName::kSeed), "us");
  double solve_total = 0;
  for (const double v : r.solve_ns) solve_total += v;
  sink.add("solvers.seed_share",
           ratio(t.total_ns[static_cast<std::size_t>(SpanName::kSeed)],
                 solve_total),
           "ratio");
  sink.add("solvers.edf_probes",
           ratio(static_cast<double>(c.edf_probes),
                 static_cast<double>(c.seeds)),
           "count", "per seed");
  sink.add("solvers.ns_per_probe",
           ratio(t.total_ns[static_cast<std::size_t>(SpanName::kSeed)],
                 static_cast<double>(c.edf_probes)),
           "ns");

  // schedule
  sink.add_tails("schedule.laminarize_us", samples_us(t, SpanName::kLaminarize),
                 "us");
  sink.add_tails("schedule.validate_us", samples_us(t, SpanName::kValidate),
                 "us");
  sink.add("schedule.invalid", static_cast<double>(c.invalid), "count");

  // reduction
  sink.add_tails("reduction.forest_us", samples_us(t, SpanName::kForest), "us");
  sink.add_tails("reduction.forest_nodes", c.forest_sizes, "count");
  sink.add_tails("reduction.merge_us", samples_us(t, SpanName::kMerge), "us");

  // bas
  sink.add_tails("bas.prune_us", samples_us(t, SpanName::kPrune), "us");
  sink.add("bas.kept_share",
           ratio(static_cast<double>(c.kept_nodes),
                 static_cast<double>(c.forest_nodes)),
           "ratio");
  sink.add("bas.fork_eligible_share",
           ratio(static_cast<double>(c.fork_eligible),
                 static_cast<double>(c.prunes)),
           "ratio");

  // lsa
  sink.add_tails("lsa.lsa_us", samples_us(t, SpanName::kLsa), "us");
  sink.add("lsa.placed_share",
           ratio(static_cast<double>(c.lax_placed),
                 static_cast<double>(c.lax_offered)),
           "ratio");

  // core
  std::vector<double> core_self;
  for (std::size_t i = 0; i < requests; ++i) {
    double sum = 0;
    bool any = false;
    for (const SpanName n : {SpanName::kCoreCombined, SpanName::kCoreK0,
                             SpanName::kCoreDegraded}) {
      const auto k = static_cast<std::size_t>(n);
      if (t.present[k][i]) {
        sum += t.per_request_ns[k][i];
        any = true;
      }
    }
    if (any) core_self.push_back(sum * 1e-3);
  }
  sink.add_tails("core.self_us", core_self, "us");
  const auto runs = static_cast<double>(c.combined);
  sink.add("core.win_full_share", ratio(static_cast<double>(c.win_full), runs),
           "ratio");
  sink.add("core.win_strict_share",
           ratio(static_cast<double>(c.win_strict), runs), "ratio");
  sink.add("core.win_lax_share", ratio(static_cast<double>(c.win_lax), runs),
           "ratio");
  sink.add("core.losing_branch_share",
           ratio(static_cast<double>(c.losing_branch_ns),
                 static_cast<double>(c.branch_ns)),
           "ratio");
  sink.add_tails("core.k0_us", durations_us(r.spans, SpanName::kCoreK0), "us");
  sink.add_tails("core.degraded_us",
                 durations_us(r.spans, SpanName::kCoreDegraded), "us");
}

/// The end-to-end metrics of a window, shared by every workload.
struct EndToEnd {
  double ops_per_s = 0;
  double cpu_ms_per_op = 0;
  double answered_share = 0;
  double value_share = 0;
  double setup_s = 0;
  double rss_peak_mb = 0;
};

/// `op.p50`/`op.p99` are printed as `op_p50_ms`/`op_p99_ms`.
void add_op_latency(MetricSink& sink, const std::vector<double>& latency_ms) {
  const Tail mid = tail(latency_ms, 50);
  const Tail hi = tail(latency_ms, 99);
  char note[64];
  std::snprintf(note, sizeof note, "p50, n=%zu", mid.n);
  sink.add("op_p50_ms", mid.value, "ms", note);
  std::snprintf(note, sizeof note, "p%g, n=%zu", hi.percentile, hi.n);
  sink.add("op_p99_ms", hi.value, "ms", note);
}

void add_end_to_end_metrics(MetricSink& sink, const EndToEnd& e) {
  sink.add("ops_per_s", e.ops_per_s, "1/s");
  sink.add("cpu_ms_per_op", e.cpu_ms_per_op, "ms");
  sink.add("answered_share", e.answered_share, "ratio", "1 - failed_share");
  sink.add("value_share", e.value_share, "ratio");
  sink.add("setup_s", e.setup_s, "s", "median of set-ups");
  sink.add("rss_peak_mb", e.rss_peak_mb, "MB");
}

/// Latency and generator figures of an untraced window, printed on every
/// run beside the host's steal share, which explains most of their spread.
void print_run_health(const std::vector<double>& latency_ms,
                      const std::vector<double>& lag_ms, double steal,
                      std::uint64_t bad, std::size_t attempted) {
  const Tail p50 = tail(latency_ms, 50);
  const Tail p99 = tail(latency_ms, 99);
  std::printf("# op latency p50 %.4f ms, p%g %.4f ms (n=%zu)\n", p50.value,
              p99.percentile, p99.value, p99.n);
  if (!lag_ms.empty()) {
    const Tail lag = tail(lag_ms, 99);
    std::printf("# gen.lag_ms p50 %.4f, p%g %.4f (n=%zu)\n",
                tail(lag_ms, 50).value, lag.percentile, lag.value, lag.n);
  }
  std::printf("# host.steal_share %.4f, failed_share %.6f\n", steal,
              ratio(static_cast<double>(bad), static_cast<double>(attempted)));
}

/// The program's own share of the peak: growth over the baseline taken
/// just before the first engine was built.
int memory_probe_error() {
  std::fprintf(stderr,
               "cannot reset the peak-RSS mark (/proc/self/clear_refs)\n");
  return 2;
}

void print_memory(const RssPeak& rss) {
  std::printf("# peak RSS %.2f MB, of which %.2f MB grown after the "
              "baseline\n",
              rss.peak_mb(), rss.growth_mb());
}

void print_setups(const std::vector<double>& setups) {
  std::printf("# set-up times (s):");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
}

int finish(const MetricSink& sink, bool correct, std::uint64_t attempted,
           std::uint64_t failed) {
  sink.print_table(stdout);
  for (const std::string& e : sink.errors()) {
    std::fprintf(stderr, "metric error: %s\n", e.c_str());
  }
  const bool ok = correct && sink.ok();
  std::printf("%s\n", sink.result_line(ok, attempted, failed).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

void print_cache_stats(const ServeWindow& win) {
  const pobp::CacheStats& cs = win.cache;
  std::printf("# CacheStats: hits %llu misses %llu insertions %llu evictions "
              "%llu delta_hits %llu entries %llu bytes %.1f MB; EngineMetrics "
              "cache_hits %zu delta_patches %zu\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.insertions),
              static_cast<unsigned long long>(cs.evictions),
              static_cast<unsigned long long>(cs.delta_hits),
              static_cast<unsigned long long>(cs.entries),
              static_cast<double>(cs.bytes) / (1 << 20),
              win.metrics.cache_hits, win.metrics.cache_delta_patches);
}

// --- serve entry -------------------------------------------------------------

EndToEnd serve_end_to_end(const ServeWindow& win, std::uint64_t bad,
                          double setup_s, double rss_mb) {
  EndToEnd e;
  const double completed = static_cast<double>(win.n - bad);
  e.ops_per_s = ratio(completed, win.window_s);
  // A window shorter than one chunk (the smoke runs) uses its total.
  e.cpu_ms_per_op = win.chunk_cpu_ms.empty()
                        ? ratio(win.cpu_s * 1e3, static_cast<double>(win.n))
                        : median(win.chunk_cpu_ms);
  e.answered_share = ratio(completed, static_cast<double>(win.n));
  e.value_share = ratio(win.value_sum, win.unbounded_sum);
  e.setup_s = setup_s;
  e.rss_peak_mb = rss_mb;
  return e;
}

int run_serve(const Args& args, const ServeWorkload& w) {
  const pobp::StreamOptions base = stream_options(w.params, nullptr);
  const std::size_t n = w.requests.size();
  std::printf("# workload=%s seed=%llu rate=%.0f/s requests=%zu distinct=%zu "
              "repeats=%zu near_duplicates=%zu workers=%zu nproc=%ld\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              w.params.rate, n, w.bodies, w.exact_repeats, w.near_duplicates,
              w.params.workers, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# send schedule digest %016llx\n",
              static_cast<unsigned long long>(w.schedule_digest));

  const std::vector<Expected> expected = reference_answers(w, base);
  const std::size_t cache_bytes =
      w.params.cache ? cache_budget_bytes(w, base) : 0;
  if (w.params.cache) {
    std::printf("# cache budget %.1f MB (%.0f%% of the distinct instances)\n",
                static_cast<double>(cache_bytes) / (1 << 20),
                w.params.cache_fill * 100);
  }

  ServeWindow win;
  prepare_serve_window(w, expected, false, win);
  ServeWindow traced;
  std::unique_ptr<Tracer> live;
  if (args.trace) {
    prepare_serve_window(w, expected, true, traced);
    live = std::make_unique<Tracer>(n * 5 + 16);
  }
  RssPeak rss;
  if (!rss.baseline()) return memory_probe_error();
  std::vector<double> setups;
  ServeEngine engine;
  const std::size_t reps = args.trace ? 1 : kServeSetups;
  const auto setup = [&] { return serve_setup(w, cache_bytes); };
  time_setups(reps - reps / 2, engine, setup, setups);

  run_serve_window(w, engine, nullptr, win);
  std::uint64_t digest = 0;
  const std::uint64_t bad = check_serve(w, win, expected, digest);
  time_setups(reps / 2, engine, setup, setups);
  print_setups(setups);
  std::printf("# output digest %016llx, %llu of %zu answers missing, failed "
              "or wrong\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(bad), n);
  const EndToEnd e2e =
      serve_end_to_end(win, bad, median(setups), rss.peak_mb());
  print_memory(rss);
  {
    std::vector<double> c = win.chunk_cpu_ms;
    std::sort(c.begin(), c.end());
    std::printf("# cpu_ms_per_op: whole window %.4f; chunks p25 %.4f p50 "
                "%.4f p75 %.4f (n=%zu)\n",
                ratio(win.cpu_s * 1e3, static_cast<double>(win.n)),
                c.empty() ? 0 : percentile_sorted(c, 25),
                c.empty() ? 0 : percentile_sorted(c, 50),
                c.empty() ? 0 : percentile_sorted(c, 75), c.size());
  }
  print_run_health(win.latency_ms, win.lag_ms, win.steal, bad, n);
  if (w.params.cache) print_cache_stats(win);

  MetricSink sink;
  if (!args.trace) {
    add_end_to_end_metrics(sink, e2e);
    return finish(sink, bad == 0, n, bad);
  }

  // Traced: a second window of the same workload with live spans, then the
  // replay of every request.
  engine = ServeEngine{};
  engine = serve_setup(w, cache_bytes);
  run_serve_window(w, engine, live.get(), traced);
  engine = ServeEngine{};
  std::uint64_t traced_digest = 0;
  const std::uint64_t traced_bad =
      check_serve(w, traced, expected, traced_digest);
  const ReplayOutcome r = replay_serve(w, traced, cache_bytes);
  write_spans(args.spans_out, live->spans(), r.spans);
  print_stage_cross_check(r, traced.metrics);
  std::printf("# traced window output digest %016llx; replay: %zu requests, "
              "%llu differ from the engine's answer, %llu unanswered; delta "
              "re-solves %llu (%llu changed answer)\n",
              static_cast<unsigned long long>(traced_digest), n,
              static_cast<unsigned long long>(r.mismatched),
              static_cast<unsigned long long>(r.unanswered),
              static_cast<unsigned long long>(r.counts.delta_replays),
              static_cast<unsigned long long>(r.counts.delta_mismatch));
  if (w.params.cache) print_cache_stats(traced);

  const LayerTimes live_t = layer_times(live->spans(), n);
  add_op_latency(sink, win.latency_ms);
  // io
  sink.add_tails("io.parse_us", samples_us(live_t, SpanName::kIoParse), "us");
  double jobs = 0;
  for (const std::uint32_t j : traced.jobs) jobs += j;
  sink.add("io.parse_ns_per_job",
           ratio(live_t.total_ns[static_cast<std::size_t>(SpanName::kIoParse)],
                 jobs),
           "ns");
  sink.add_tails("io.render_us", samples_us(live_t, SpanName::kIoRender), "us");
  // engine
  sink.add_tails("engine.submit_us",
                 samples_us(live_t, SpanName::kEngineSubmit), "us");
  const std::vector<double> await = samples_us(live_t, SpanName::kEngineAwait);
  sink.add_tails("engine.await_us", await, "us");
  std::vector<double> overhead;
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(SpanName::kEngineAwait);
    if (live_t.present[k][i]) {
      overhead.push_back((live_t.per_request_ns[k][i] - r.solve_ns[i]) * 1e-3);
    }
  }
  sink.add_tails("engine.overhead_us", overhead, "us");
  sink.add_tails("engine.queue_depth", traced.queue_depth, "count");
  double depth_mean = 0;
  for (const double d : traced.queue_depth) depth_mean += d;
  depth_mean =
      ratio(depth_mean, static_cast<double>(traced.queue_depth.size()));
  sink.add("engine.queue_wait_us.mean", ratio(depth_mean, w.params.rate) * 1e6,
           "us", "Little's law: mean depth / arrival rate");
  double solve_total = 0;
  for (const double v : r.solve_ns) solve_total += v;
  sink.add("engine.busy_share",
           ratio(solve_total * 1e-9,
                 static_cast<double>(w.params.workers) * traced.window_s),
           "ratio");
  const double io_ns =
      live_t.total_ns[static_cast<std::size_t>(SpanName::kIoParse)] +
      live_t.total_ns[static_cast<std::size_t>(SpanName::kIoRender)];
  sink.add("engine.cpu_over_work",
           ratio(traced.cpu_s * 1e9, io_ns + solve_total), "ratio");
  sink.add("engine.failed", static_cast<double>(traced.tenants.failed),
           "count");
  sink.add("engine.degraded", static_cast<double>(traced.tenants.degraded),
           "count");
  sink.add("engine.shed",
           static_cast<double>(traced.tenants.shed +
                               traced.tenants.rejected_quota +
                               traced.tenants.rejected_rate +
                               traced.tenants.rejected_breaker),
           "count", "shed or rejected at admission");
  add_layer_metrics(sink, r, n);
  sink.add("cache.resident_mb",
           static_cast<double>(traced.cache.bytes) / (1 << 20), "MB");
  // run health
  sink.add_tails("gen.lag_ms", traced.lag_ms, "ms");
  sink.add("host.steal_share", traced.steal, "ratio");
  sink.add("trace.overhead_share",
           ratio(traced.cpu_s - win.cpu_s, win.cpu_s), "ratio",
           "traced vs untraced window, CPU per op");

  const bool correct = bad == 0 && traced_bad == 0 && r.mismatched == 0 &&
                       r.unanswered == 0 && r.counts.delta_mismatch == 0 &&
                       traced_digest == digest && !live->overflowed();
  return finish(sink, correct, n, bad + traced_bad + r.mismatched);
}

// --- batch entry -------------------------------------------------------------

int run_batch_large(const Args& args, const BatchWorkload& w) {
  const std::size_t n = w.instance_count();
  std::printf("# workload=%s seed=%llu instances=%zu groups=%zu workers=%zu "
              "nproc=%ld\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              n, w.groups.size(), w.workers, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# input digest %016llx\n",
              static_cast<unsigned long long>(w.input_digest));
  const BatchReference ref = batch_reference(w);

  RssPeak rss;
  if (!rss.baseline()) return memory_probe_error();
  std::vector<double> setups;
  BatchEngines engines;
  const std::size_t reps = args.trace ? 1 : kBatchSetups;
  const auto setup = [&] { return batch_setup(w); };
  time_setups(reps - reps / 2, engines, setup, setups);
  BatchWindow win;
  run_batch_window(w, engines, ref, args.seconds, nullptr, win);
  time_setups(reps / 2, engines, setup, setups);
  print_setups(setups);
  const std::uint64_t bad = win.bad;
  std::printf("# output digest %016llx, %llu of %llu answers wrong; %zu "
              "passes\n",
              static_cast<unsigned long long>(win.output_digest),
              static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(win.ops), win.pass_ms.size());
  print_run_health(win.pass_ms, {}, win.steal, bad, win.ops);
  EndToEnd e2e;
  e2e.ops_per_s = median(win.pass_rate);
  e2e.cpu_ms_per_op = median(win.pass_cpu_ms);
  std::printf("# whole-window ops_per_s %.4f cpu_ms_per_op %.4f\n",
              ratio(static_cast<double>(win.ops - win.bad), win.busy_s),
              ratio(win.cpu_s * 1e3, static_cast<double>(win.ops)));
  e2e.answered_share = ratio(static_cast<double>(win.ops - win.bad),
                             static_cast<double>(win.ops));
  e2e.value_share = ratio(win.value_sum, win.unbounded_sum);
  e2e.setup_s = median(setups);
  e2e.rss_peak_mb = rss.peak_mb();
  print_memory(rss);

  MetricSink sink;
  if (!args.trace) {
    add_end_to_end_metrics(sink, e2e);
    return finish(sink, bad == 0, win.ops, bad);
  }

  engines = BatchEngines{};
  engines = batch_setup(w);
  Tracer live(1 << 16);
  BatchWindow traced;
  run_batch_window(w, engines, ref, args.seconds, &live, traced);
  engines = BatchEngines{};
  const ReplayOutcome r = replay_batch(w, ref);
  write_spans(args.spans_out, live.spans(), r.spans);
  print_stage_cross_check(r, traced.metrics);
  std::printf("# traced window output digest %016llx; replay: %zu "
              "instances, %llu differ from the engine's answer\n",
              static_cast<unsigned long long>(traced.output_digest), n,
              static_cast<unsigned long long>(r.mismatched));

  const std::vector<double> none;
  add_op_latency(sink, win.pass_ms);
  sink.add_tails("io.parse_us", none, "us");
  sink.add("io.parse_ns_per_job", 0, "ns");
  sink.add_tails("io.render_us", none, "us");
  sink.add_tails("engine.submit_us", none, "us");
  // The batch client's op is one pass; its await is the pass, and the
  // overhead is what the pass took beyond a perfect split of the replayed
  // solves over the workers.
  sink.add_tails("engine.await_us", traced.pass_ms, "us", 1e3);
  double solve_total_s = 0;
  for (const double v : r.solve_ns) solve_total_s += v * 1e-9;
  const double ideal_ms =
      solve_total_s * 1e3 / static_cast<double>(w.workers);
  std::vector<double> overhead;
  for (const double p : traced.pass_ms) {
    overhead.push_back((p - ideal_ms) * 1e3);
  }
  sink.add_tails("engine.overhead_us", overhead, "us");
  sink.add_tails("engine.queue_depth", none, "count");
  sink.add("engine.queue_wait_us.mean", 0, "us");
  const double passes = static_cast<double>(traced.pass_ms.size());
  sink.add("engine.busy_share",
           ratio(solve_total_s * passes,
                 static_cast<double>(w.workers) * traced.busy_s),
           "ratio");
  sink.add("engine.cpu_over_work",
           ratio(traced.cpu_s, solve_total_s * passes), "ratio");
  sink.add("engine.failed",
           static_cast<double>(traced.metrics.pipeline_faults +
                               traced.metrics.deadline_exceeded +
                               traced.metrics.budget_exhausted),
           "count");
  sink.add("engine.degraded",
           static_cast<double>(traced.metrics.degraded_solves), "count");
  sink.add("engine.shed", 0, "count");
  add_layer_metrics(sink, r, n);
  sink.add("cache.resident_mb", 0, "MB");
  sink.add_tails("gen.lag_ms", none, "ms");
  sink.add("host.steal_share", traced.steal, "ratio");
  sink.add("trace.overhead_share",
           ratio(traced.cpu_s / static_cast<double>(traced.ops) -
                     win.cpu_s / static_cast<double>(win.ops),
                 win.cpu_s / static_cast<double>(win.ops)),
           "ratio", "traced vs untraced window, CPU per op");
  const bool correct = bad == 0 && traced.bad == 0 && r.mismatched == 0 &&
                       r.unanswered == 0 &&
                       traced.output_digest == win.output_digest;
  return finish(sink, correct, win.ops, bad + traced.bad + r.mismatched);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pobp_perfbench --workload serve_small|serve_cache|"
                 "batch_large --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n");
    return 2;
  }
  // Sub-50µs timer slack keeps the open-loop sends close to schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  if (args.workload == "serve_small") {
    return run_serve(args, make_serve_small(args.seed, args.seconds));
  }
  if (args.workload == "serve_cache") {
    return run_serve(args, make_serve_cache(args.seed, args.seconds));
  }
  if (args.workload == "batch_large") {
    return run_batch_large(args, make_batch_large(args.seed));
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
