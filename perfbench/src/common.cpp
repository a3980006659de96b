#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

// --- seeded inputs ----------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  return bound == 0 ? 0 : next() % bound;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform01()) / rate;
}

void Digest::add(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

void Digest::add_bytes(std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  add(bytes.size());
}

void Digest::add_double(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  add(bits);
}

// --- percentiles -------------------------------------------------------------

namespace {

/// Nearest rank of percentile p among n samples (1-based); the epsilon
/// keeps 99.9% of 10000 at 9990 despite rounding in p / 100 * n.
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double supported_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  for (const double p : kLadder) {
    // Samples strictly beyond the nearest-rank position of p.
    const std::size_t rank = nearest_rank(p, n);
    if (n >= rank + 10 && rank >= 1) return p;
  }
  return 0;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  std::size_t rank = nearest_rank(p, sorted.size());
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail tail(std::vector<double> samples, double want) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const double supported = supported_percentile(samples.size());
  // With fewer than 20 samples no percentile has ten beyond it; report the
  // median of what there is rather than nothing.
  t.percentile = supported > 0 ? std::min(want, supported) : 50;
  t.value = percentile_sorted(samples, t.percentile);
  return t;
}

// --- metrics -----------------------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSink::add(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  if (!valid_metric_name(name)) {
    errors_.push_back("bad metric name: " + name);
    return;
  }
  for (const Entry& e : entries_) {
    if (e.name == name) {
      errors_.push_back("duplicate metric: " + name);
      return;
    }
  }
  if (!std::isfinite(value)) {
    errors_.push_back("non-finite value for " + name);
    value = 0;
  }
  entries_.push_back({name, value, unit, note});
}

void MetricSink::add_tails(const std::string& base,
                           const std::vector<double>& samples,
                           const std::string& unit, double scale) {
  std::vector<double> scaled(samples);
  for (double& x : scaled) x *= scale;
  const Tail mid = tail(scaled, 50);
  const Tail hi = tail(std::move(scaled), 99);
  char note[64];
  std::snprintf(note, sizeof note, "p50, n=%zu", mid.n);
  add(base + ".p50", mid.value, unit, note);
  std::snprintf(note, sizeof note, "p%g, n=%zu", hi.percentile, hi.n);
  add(base + ".p99", hi.value, unit, note);
}

void MetricSink::print_table(std::FILE* out) const {
  for (const Entry& e : entries_) {
    std::fprintf(out, "  %-32s %14.6g %-6s %s\n", e.name.c_str(), e.value,
                 e.unit.c_str(), e.note.c_str());
  }
}

std::string MetricSink::result_line(bool correct, std::uint64_t attempted,
                                    std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", entries_[i].value);
    os << (i ? ", " : "") << '"' << entries_[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// --- spans -------------------------------------------------------------------

const char* span_name(SpanName name) {
  static constexpr const char* kNames[] = {
      "request",        "io.parse",         "engine.submit",
      "engine.await",   "io.render",        "batch.pass",
      "solve",          "cache.key",        "cache.get",
      "cache.delta",    "cache.insert",     "solvers.seed",
      "core.combined",  "core.k0",          "core.degraded",
      "schedule.laminarize", "reduction.forest", "bas.prune",
      "reduction.merge", "lsa.lsa",         "schedule.validate",
  };
  static_assert(sizeof kNames / sizeof kNames[0] ==
                static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(name)];
}

Tracer::Tracer(std::size_t capacity) { spans_.reserve(capacity); }

std::int32_t Tracer::open(SpanName name, std::uint32_t request,
                          std::int32_t parent, std::int64_t start_ns) {
  if (spans_.size() == spans_.capacity()) {
    overflowed_ = true;
    return -1;
  }
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = start_ns != 0 ? start_ns : now_ns();
  s.end_ns = s.start_ns;
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t index, std::int64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      end_ns != 0 ? end_ns : now_ns();
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "index\tname\trequest\tparent\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << span_name(s.name) << '\t' << s.request << '\t'
        << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  // Children grouped by parent (spans are appended in open order, so a
  // child always follows its parent).
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t total = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    cover.clear();
    for (const std::int32_t c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(k.start_ns, s.start_ns);
      const std::int64_t hi = std::min(k.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (!open || lo > run_hi) {
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = total - covered;
  }
  return self;
}

// --- host probes -------------------------------------------------------------

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

/// A `Vm...:  <kB> kB` field of /proc/self/status, in MiB.
double status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double current_rss_mb() { return status_mb("VmRSS:"); }

double peak_rss_mb() { return status_mb("VmHWM:"); }

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

void trim_heap() { malloc_trim(0); }

HostTicks read_host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostTicks t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t field[8] = {};
  for (std::uint64_t& f : field) stat >> f;
  for (const std::uint64_t f : field) t.total += f;
  t.steal = field[7];
  return t;
}

double steal_share(const HostTicks& before, const HostTicks& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

}  // namespace perfbench
