// Shared pieces of the end-to-end benchmark: a seeded RNG, the percentile
// rule, the metric sink that prints the result line, the span recorder the
// traced run uses, and the host probes (CPU time, RSS, steal time).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- seeded inputs ----------------------------------------------------------

/// SplitMix64: the benchmark's own generator, so the inputs a seed makes
/// never change when the program's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform01();                          ///< [0, 1)
  std::uint64_t below(std::uint64_t bound);    ///< [0, bound)
  std::int64_t range(std::int64_t lo, std::int64_t hi);  ///< [lo, hi]
  double exponential(double rate);             ///< mean 1 / rate

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a style fold used for the schedule, frame and send-schedule
/// digests.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x);
  void add_bytes(std::string_view bytes);
  void add_double(double x);
};

// --- percentiles -------------------------------------------------------------

/// The highest percentile of {50, 75, 90, 95, 99, 99.9} that has at least
/// ten samples beyond it; 0 when even the median has fewer.
double supported_percentile(std::size_t n);

/// Nearest-rank percentile of an ascending sample (p in (0, 100]).
double percentile_sorted(const std::vector<double>& sorted, double p);

/// A percentile as reported: the wanted one, capped by the rule above.
struct Tail {
  double value = 0;
  double percentile = 0;  ///< the percentile actually reported
  std::size_t n = 0;      ///< sample count
};
Tail tail(std::vector<double> samples, double want);

// --- metrics -----------------------------------------------------------------

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Collects the metrics of one run, prints them as a table with sample
/// counts, and renders the result line.
class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds `<base>.p50` and `<base>.p99` (the latter capped by the
  /// percentile rule); `scale` converts the samples to `unit`.
  void add_tails(const std::string& base, const std::vector<double>& samples,
                 const std::string& unit, double scale = 1.0);

  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  void print_table(std::FILE* out) const;
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> errors_;
};

// --- spans -------------------------------------------------------------------

/// Span names.  Live spans are recorded around the serve path in the timed
/// window; replay spans around each layer's public entry point.
enum class SpanName : std::uint16_t {
  kRequest,      ///< live root: one request, send to rendered frame
  kIoParse,      ///< io::try_parse_serve_request
  kEngineSubmit, ///< StreamEngine::submit
  kEngineAwait,  ///< submit return -> future observed ready
  kIoRender,     ///< io::response_frame / error_frame
  kBatchPass,    ///< live root: one Engine::solve_batch_into pass
  kSolve,        ///< replay root: one request's solve
  kCacheKey,     ///< columns + job_subhashes + instance_key
  kCacheGet,     ///< SolveCache::try_get
  kCacheDelta,   ///< SolveCache::copy_delta_neighbor
  kCacheInsert,  ///< SolveCache::insert
  kSeed,         ///< seed_unbounded_schedule_into / degraded greedy seed
  kCoreCombined, ///< Alg. 3 orchestration (k >= 1)
  kCoreK0,       ///< §5 per-machine loop (k = 0)
  kCoreDegraded, ///< approximate path after the budget fired
  kLaminarize,   ///< laminarize_subset_into / laminarize_into
  kForest,       ///< build_schedule_forest
  kPrune,        ///< tm_optimal_bas_forked
  kMerge,        ///< rebuild_schedule_into
  kLsa,          ///< lsa_cs_multi_into / schedule_nonpreemptive_into
  kValidate,     ///< validate_fast
  kCount,
};
const char* span_name(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t request = 0;
  std::int32_t parent = -1;  ///< index into the span array, -1 = root
  SpanName name = SpanName::kRequest;
};

/// Span recorder over preallocated memory: recording never allocates, and
/// a full buffer sets overflowed() (the traced run then fails) instead of
/// growing.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);
  /// Opens a span; returns its index (-1 when the buffer is full).
  std::int32_t open(SpanName name, std::uint32_t request, std::int32_t parent,
                    std::int64_t start_ns = 0);
  void close(std::int32_t index, std::int64_t end_ns = 0);
  const std::vector<Span>& spans() const { return spans_; }
  bool overflowed() const { return overflowed_; }
  /// Drops every span, keeping the buffer.
  void clear() {
    spans_.clear();
    overflowed_ = false;
  }
  /// Writes one tab-separated line per span (index, name, request, parent,
  /// start, end in ns).  Returns false when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  bool overflowed_ = false;
};

/// RAII span: closes on scope exit, so a span around a call that throws
/// (a budget firing mid-pipeline) still ends where the call did.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, SpanName name, std::uint32_t request,
            std::int32_t parent)
      : tracer_(tracer), index_(tracer.open(name, request, parent)) {}
  ~SpanScope() { tracer_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers (children clipped to the
/// parent, overlaps counted once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

// --- host probes -------------------------------------------------------------

/// Process user + system CPU seconds (getrusage, all threads).
double process_cpu_s();

/// Current resident set size in MiB (VmRSS).
double current_rss_mb();

/// Peak resident set size in MiB since the last reset_peak_rss() (VmHWM).
double peak_rss_mb();

/// Resets the kernel's peak-RSS mark to the current RSS; false when the
/// kernel refuses (then the peak is the process lifetime's).
bool reset_peak_rss();

/// Returns freed heap pages to the OS so an RSS baseline excludes them.
void trim_heap();

/// Aggregate CPU jiffies from /proc/stat.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTicks read_host_ticks();
double steal_share(const HostTicks& before, const HostTicks& after);

}  // namespace perfbench
