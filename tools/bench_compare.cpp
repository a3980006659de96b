// bench_compare — the perf-regression gate (tools/ci_check.sh perf stage).
//
//   bench_compare [--tol FRAC] [--require-cores N] [--warn-time]
//                 baseline.json current.json
//
// Reads two benchmark result files and fails (exit 1) when the current run
// regresses against the checked-in baseline:
//
//   * ns/op (or real_time): current > baseline * (1 + FRAC) — wall-clock
//     comparisons are machine-sensitive, so the tolerance defaults to 15%
//     (the ISSUE's regression budget) and is configurable;
//   * allocs/op: current > baseline — allocation counts are deterministic
//     and machine-independent, so they are gated strictly.  This is the
//     enforcement half of the zero-allocation hot-path contract;
//   * ops/s: current < baseline * (1 - FRAC) — throughput metrics gate in
//     the opposite direction (higher is better), same tolerance;
//   * value: free-form indicators (e.g. scaling_efficiency_w8) are printed
//     for trend-watching but never gated — the producing bench binary owns
//     any policy on them (bench_engine_throughput --gate-scaling).
//
// Two input formats are auto-detected per file:
//   * the custom bench JSON written by bench_common.hpp's JsonWriter
//     ({"metrics": [{"name", "ns_per_op", "allocs_per_op"}]}), and
//   * google-benchmark --benchmark_out JSON ({"benchmarks": [{"name",
//     "real_time", "time_unit", "allocs_op", ...}]}); aggregate and
//     complexity-fit entries (_BigO, _RMS, _mean, ...) are skipped.
// Both are read as one JSON value with the io token tape (src/io/
// json_tape.hpp); a file the tape rejects fails the gate with the tape's
// ParseError message.
//
// Metrics present in the baseline but missing from the current run fail the
// gate (a silently dropped metric is a dropped guarantee); metrics only in
// the current run are reported as new and pass.
//
// The header line reports the core count the baseline was recorded on
// (bench_common's top-level "cores", or google-benchmark's
// context.num_cpus) next to the runner's own, so a stale or mismatched
// baseline is visible in every log; when the two differ a dedicated
// "CORES MISMATCH" line calls it out explicitly (non-fatal — the
// tolerance / --warn-time policy still owns pass/fail).
//
// --require-cores N declares the core count the baseline's scaling metrics
// were measured at.  On a runner with fewer cores, every metric whose name
// contains "scaling" is excluded with an explicit SKIP line — including the
// missing-metric check — instead of being compared against numbers the
// hardware cannot reproduce.  The skip is loud by design: an
// under-provisioned runner must say so in its log, not silently pass a
// weaker gate (docs/PERF.md).
//
// --warn-time demotes the wall-clock gates (ns/op, ops/s) from FAIL to an
// explicit WARN line that does not affect the exit code; the allocation
// and missing-metric gates stay fatal.  For runners (shared single-core
// VMs) whose clock-speed drift exceeds any sane tolerance — ci_check.sh
// enables it automatically below 8 cores, where an identical binary has
// been observed to swing > 50% between runs (docs/PERF.md).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json_tape.hpp"

namespace {

using pobp::io::ParseError;
using pobp::io::detail::JsonDocument;
using pobp::io::detail::JsonKind;

constexpr std::size_t kAbsent = JsonDocument::kAbsent;

/// Field `key` of object token `object` as a number; -1 when the field is
/// absent or not a number.
double number_field(const JsonDocument& doc, std::size_t object,
                    std::string_view key) {
  const std::size_t i = doc.find(object, key);
  return i != kAbsent && doc[i].kind == JsonKind::kNumber ? doc[i].number
                                                          : -1;
}

/// Field `key` of object token `object` as a string; nullopt when the
/// field is absent or not a string.
std::optional<std::string> string_field(const JsonDocument& doc,
                                        std::size_t object,
                                        std::string_view key) {
  const std::size_t i = doc.find(object, key);
  if (i == kAbsent || doc[i].kind != JsonKind::kString) return std::nullopt;
  return doc.string(i);
}

/// Calls fn(i) for every object item i of array token `array` (nothing
/// when `array` is absent or not an array).
template <typename Fn>
void for_each_object(const JsonDocument& doc, std::size_t array, Fn&& fn) {
  if (array == kAbsent || doc[array].kind != JsonKind::kArray) return;
  for (std::size_t j = 0, i = array + 1; j < doc[array].size;
       ++j, i = doc.next(i)) {
    if (doc[i].kind == JsonKind::kObject) fn(i);
  }
}

// --- metric extraction ------------------------------------------------------

struct Sample {
  double ns_per_op = -1;    // < 0 = absent
  double allocs_per_op = -1;
  double ops_per_s = -1;    // throughput: higher is better
  double value = -1;        // informational (e.g. scaling efficiency)
};

double to_ns(double value, const std::string& unit) {
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  return value;  // ns (google-benchmark's default)
}

bool is_aggregate(const JsonDocument& doc, std::size_t entry,
                  const std::string& name) {
  const std::size_t rt = doc.find(entry, "run_type");
  if (rt != kAbsent && !(doc[rt].kind == JsonKind::kString &&
                         doc.string_is(rt, "iteration"))) {
    return true;
  }
  return name.find("_BigO") != std::string::npos ||
         name.find("_RMS") != std::string::npos ||
         name.find("_mean") != std::string::npos ||
         name.find("_median") != std::string::npos ||
         name.find("_stddev") != std::string::npos ||
         name.find("_cv") != std::string::npos;
}

struct LoadResult {
  std::map<std::string, Sample> samples;
  int recorded_cores = -1;  ///< core count the file was produced on; -1 if
                            ///< the producing binary predates the field
};

std::optional<LoadResult> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_compare: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  try {
    const JsonDocument doc(text, 1);
    if (doc[0].kind != JsonKind::kObject) {
      std::cerr << "bench_compare: " << path << ": not a JSON object\n";
      return std::nullopt;
    }

    LoadResult result;
    // bench_common JsonWriter records "cores" at the top level;
    // google-benchmark records context.num_cpus.
    result.recorded_cores = static_cast<int>(number_field(doc, 0, "cores"));
    if (const std::size_t ctx = doc.find(0, "context");
        result.recorded_cores < 0 && ctx != kAbsent &&
        doc[ctx].kind == JsonKind::kObject) {
      result.recorded_cores =
          static_cast<int>(number_field(doc, ctx, "num_cpus"));
    }
    std::map<std::string, Sample>& out = result.samples;
    if (const std::size_t metrics = doc.find(0, "metrics");
        metrics != kAbsent) {
      // bench_common.hpp JsonWriter format.
      for_each_object(doc, metrics, [&](std::size_t m) {
        const std::optional<std::string> name = string_field(doc, m, "name");
        if (!name) return;
        out[*name] = {.ns_per_op = number_field(doc, m, "ns_per_op"),
                      .allocs_per_op = number_field(doc, m, "allocs_per_op"),
                      .ops_per_s = number_field(doc, m, "ops_per_s"),
                      .value = number_field(doc, m, "value")};
      });
      return result;
    }
    if (const std::size_t benchmarks = doc.find(0, "benchmarks");
        benchmarks != kAbsent) {
      // google-benchmark --benchmark_out format.
      for_each_object(doc, benchmarks, [&](std::size_t b) {
        const std::optional<std::string> name = string_field(doc, b, "name");
        if (!name || is_aggregate(doc, b, *name)) return;
        Sample s;
        if (const double t = number_field(doc, b, "real_time"); t >= 0) {
          s.ns_per_op =
              to_ns(t, string_field(doc, b, "time_unit").value_or("ns"));
        }
        s.allocs_per_op = number_field(doc, b, "allocs_op");
        out[*name] = s;
      });
      return result;
    }
  } catch (const ParseError& e) {
    std::cerr << "bench_compare: " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
  std::cerr << "bench_compare: " << path
            << ": neither \"metrics\" nor \"benchmarks\" found\n";
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  double tol = 0.15;
  std::size_t require_cores = 0;
  bool warn_time = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tol" && i + 1 < argc) {
      tol = std::strtod(argv[++i], nullptr);
    } else if (arg == "--require-cores" && i + 1 < argc) {
      require_cores =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--warn-time") {
      warn_time = true;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::cerr << "usage: bench_compare [--tol FRAC] [--require-cores N] "
                 "[--warn-time] baseline.json current.json\n";
    return 2;
  }

  const std::size_t cores = std::thread::hardware_concurrency();
  const bool skip_scaling = require_cores > 0 && cores < require_cores;
  const auto is_scaling = [](const std::string& name) {
    return name.find("scaling") != std::string::npos;
  };

  const auto baseline_file = load(paths[0]);
  const auto current_file = load(paths[1]);
  if (!baseline_file || !current_file) return 2;
  const std::map<std::string, Sample>* baseline = &baseline_file->samples;
  const std::map<std::string, Sample>* current = &current_file->samples;

  // A wall-clock baseline is only as meaningful as the machine it was
  // recorded on — lead with the recorded core count so a mismatch with the
  // runner is visible in every CI log (docs/PERF.md baseline-refresh
  // procedure).
  std::cout << "bench_compare: baseline " << paths[0] << " recorded on ";
  if (baseline_file->recorded_cores > 0) {
    std::cout << baseline_file->recorded_cores << " core(s)";
  } else {
    std::cout << "an unrecorded core count";
  }
  std::cout << "; runner has " << cores << "\n";
  if (baseline_file->recorded_cores > 0 &&
      static_cast<std::size_t>(baseline_file->recorded_cores) != cores) {
    // Loud but non-fatal: wall-clock numbers recorded on different
    // hardware still gate (with the tolerance / --warn-time policy), but
    // every log must say the comparison crosses machines
    // (docs/PERF.md baseline-refresh procedure).
    std::cout << "CORES MISMATCH: baseline recorded on "
              << baseline_file->recorded_cores << " core(s), runner has "
              << cores << " — wall-clock comparisons cross machines; "
              << "consider refreshing the baseline (docs/PERF.md)\n";
  }

  int regressions = 0;
  for (const auto& [name, base] : *baseline) {
    if (skip_scaling && is_scaling(name)) {
      std::cout << "SKIP " << name << ": scaling gate requires >= "
                << require_cores << " cores, runner has " << cores << "\n";
      continue;
    }
    const auto it = current->find(name);
    if (it == current->end()) {
      std::cerr << "FAIL " << name << ": present in baseline, missing from "
                << "current run\n";
      ++regressions;
      continue;
    }
    const Sample& cur = it->second;
    if (base.ns_per_op >= 0 && cur.ns_per_op >= 0) {
      const double limit = base.ns_per_op * (1.0 + tol);
      const bool bad = cur.ns_per_op > limit;
      std::cout << (bad ? (warn_time ? "WARN " : "FAIL ") : "ok   ") << name
                << ": " << cur.ns_per_op << " ns/op vs baseline "
                << base.ns_per_op << " (limit " << limit
                << (bad && warn_time ? "; wall-clock demoted to warning" : "")
                << ")\n";
      if (bad && !warn_time) ++regressions;
    }
    if (base.allocs_per_op >= 0 && cur.allocs_per_op >= 0) {
      const bool bad = cur.allocs_per_op > base.allocs_per_op + 1e-9;
      std::cout << (bad ? "FAIL " : "ok   ") << name << ": "
                << cur.allocs_per_op << " allocs/op vs baseline "
                << base.allocs_per_op << " (strict)\n";
      if (bad) ++regressions;
    }
    if (base.ops_per_s >= 0 && cur.ops_per_s >= 0) {
      // Throughput: higher is better, so the regression edge is the
      // mirror image of the ns/op gate.
      const double limit = base.ops_per_s * (1.0 - tol);
      const bool bad = cur.ops_per_s < limit;
      std::cout << (bad ? (warn_time ? "WARN " : "FAIL ") : "ok   ") << name
                << ": " << cur.ops_per_s << " ops/s vs baseline "
                << base.ops_per_s << " (limit " << limit
                << (bad && warn_time ? "; wall-clock demoted to warning" : "")
                << ")\n";
      if (bad && !warn_time) ++regressions;
    }
    if (base.value >= 0 && cur.value >= 0) {
      // Machine-sensitive indicators (scaling efficiency): reported for
      // trend-watching, never gated here — the bench binary's own
      // --gate-scaling flag owns that policy.
      std::cout << "info " << name << ": " << cur.value << " vs baseline "
                << base.value << " (not gated)\n";
    }
  }
  for (const auto& [name, cur] : *current) {
    if (skip_scaling && is_scaling(name)) continue;
    if (baseline->find(name) == baseline->end()) {
      std::cout << "new  " << name << " (no baseline, not gated)\n";
    }
  }

  if (regressions > 0) {
    std::cerr << regressions << " perf regression(s) vs " << paths[0] << "\n";
    return 1;
  }
  std::cout << "bench_compare: no regressions vs " << paths[0] << "\n";
  return 0;
}
