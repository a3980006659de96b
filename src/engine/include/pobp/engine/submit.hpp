// Submission options for every solve entry point: the per-request
// SubmitOptions shared by the batch calls and the streaming engine, with
// the degrade and cache policies they select.  The submission queue
// itself, with its blocking backpressure, lives in StreamEngine
// (engine/serve.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "pobp/diag/diagnostic.hpp"
#include "pobp/engine/resilience.hpp"
#include "pobp/util/budget.hpp"

namespace pobp {

/// What a solve does when an instance exhausts its SolveBudget.
enum class DegradePolicy {
  kNone,         ///< report POBP-RUN-002 / POBP-RUN-003, no result
  kApproximate,  ///< retry on the greedy + LSA_CS path, tag as degraded
};

/// Per-request interaction with the engine's content-addressed SolveCache
/// (engine/cache.hpp, docs/CACHE.md).  Only meaningful when the engine was
/// constructed with a cache; results are bit-identical for every mode.
enum class CacheMode {
  kOff,        ///< neither read nor publish — always solve from scratch
  kRead,       ///< serve hits / delta-patch, but never publish new entries
  kReadWrite,  ///< serve hits and publish successful solves
};

/// Per-request solve options, shared by Engine::solve_batch /
/// solve_batch_into / try_solve_batch and the StreamEngine submission path
/// (docs/SERVING.md).  Every field defaults to "inherit the engine's
/// EngineOptions", so `SubmitOptions{}` reproduces the engine defaults.
struct SubmitOptions {
  /// Per-request budget override (nullopt = EngineOptions::budget).
  std::optional<SolveBudget> budget = {};

  /// Per-request degrade policy override (nullopt = EngineOptions::degrade).
  std::optional<DegradePolicy> degrade = {};

  /// End-to-end request deadline in seconds (0 = none).  On the batch
  /// paths it tightens the effective SolveBudget deadline; on the
  /// streaming path it is measured from admission, so time spent queued
  /// counts against it and an expired request is reported as
  /// POBP-RUN-002 without being solved.
  double deadline_s = 0;

  /// Tenant id for quota accounting and per-tenant stats ("" = "default").
  std::string tenant = {};

  /// Per-tenant admission rate override (POBP-RUN-006, streaming path
  /// only): the tenant's first submission carrying one configures that
  /// tenant's token bucket in place of StreamOptions::tenant_rate.
  std::optional<RateLimit> rate_limit = {};

  /// Per-request solve-cache mode override (nullopt =
  /// EngineOptions::cache_mode).  Ignored when the engine has no cache.
  std::optional<CacheMode> cache = {};

  /// Invoked (serialized, in instance order at the end of the batch) for
  /// every instance that produced a diag::Report instead of a result.
  /// Streaming submissions report failures through the returned future
  /// instead; this callback is batch-only.
  std::function<void(std::size_t, const diag::Report&)> on_error;
};

}  // namespace pobp
