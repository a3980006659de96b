// The three workloads: their fixed parameters and the seeded generators
// that make their inputs.  See README.md for why each one exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pobp/schedule/job.hpp"

namespace perfbench {

/// Fixed shape of an open-loop serve workload.
struct ServeParams {
  double rate = 0;            ///< Poisson arrivals per second
  /// Engine workers.  With one, Engine::run_batch drains each pump batch
  /// on the pump thread: the run has two busy threads (generator and
  /// pump), and no idle worker spins on yield() beside a solve, so CPU per
  /// request does not include how long a peer's solve was held up.
  std::size_t workers = 1;
  bool cache = false;         ///< read_write SolveCache on the engine
  double cache_fill = 0.5;    ///< cache byte budget / bytes of all distinct
};

/// One request of the send schedule.
struct ServeRequestSpec {
  std::string line;         ///< the JSONL frame sent
  std::uint32_t body = 0;   ///< index of its distinct instance
  double send_at_s = 0;     ///< scheduled send time from the window start
};

struct ServeWorkload {
  ServeParams params;
  std::vector<ServeRequestSpec> requests;  ///< in send order
  std::size_t bodies = 0;                  ///< distinct instances
  std::size_t exact_repeats = 0;           ///< requests repeating a body
  std::size_t near_duplicates = 0;         ///< bodies mutated from another
  std::vector<std::string> warmup;         ///< set-up frames (not timed)
  std::uint64_t schedule_digest = 0;       ///< digest of the send schedule
};

/// serve_small: golden-corpus-shaped instances (n 12–64), mixed k and
/// machines, some degraded and schedule-echo requests, cache off.
ServeWorkload make_serve_small(std::uint64_t seed, double seconds);

/// serve_cache: n 100–300 with exact repeats (Zipf-like popularity),
/// near-duplicates and fresh instances, read_write cache.
ServeWorkload make_serve_cache(std::uint64_t seed, double seconds);

/// Instances that share one (k, machines) setting.  Engine options are
/// per engine, so the batch client keeps one Engine per group and a pass
/// calls Engine::solve_batch_into once per group.
struct BatchGroup {
  std::size_t k = 1;
  std::size_t machines = 1;
  std::vector<pobp::JobSet> instances;
};

struct BatchWorkload {
  /// Two workers leave half of a 4-vCPU host to everything else; beside
  /// a co-running load, three workers spread the pass rate across seeds
  /// about 2.7 times as wide (README.md, "Noise").
  std::size_t workers = 2;
  std::vector<BatchGroup> groups;
  std::uint64_t input_digest = 0;
  std::size_t instance_count() const;
};

/// batch_large: 48 instances, n log-uniform in 256–2048, half strict-heavy
/// and half lax-heavy, in three groups: (k, machines) = (1, 1), (2, 2),
/// (1, 3).
BatchWorkload make_batch_large(std::uint64_t seed);

}  // namespace perfbench
