// pobp::fault — deterministic fault injection for the serving layer.
//
// Named sites inside the pipeline call POBP_FAULT_POINT(site).  When a
// matching trigger is armed, the N-th execution of that site *within the
// current instance* throws (FaultInjected, or std::bad_alloc for the
// `alloc` site), exercising the Session's containment path.  Counters
// are thread-local and reset per instance by fault::InstanceScope, and
// triggers match on the instance index — so the set of faulting
// instances is identical for every worker count, which is what lets the
// fault-containment tests assert bit-determinism of the survivors.
//
// Trigger spec grammar (EngineOptions::fault_injection or the
// POBP_FAULT_INJECT env var), comma-separated:
//
//   site[@instance]:nth
//
//   laminarize:1          first laminarize call of *every* instance
//   tm_dp@7:2             second tm_dp call of instance 7 only
//   alloc@3:1,validate@5:1
//
// Sites: alloc, laminarize, tm_dp, left_merge, validate.
//
// The sites are compiled into every build.  Disarmed, a site costs one
// out-of-line call and one acquire load (a few ns), and each site fires
// once per stage call, not per node — well under 0.1 µs per solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pobp/util/thread_annotations.hpp"

namespace pobp::fault {

enum class Site : std::uint8_t {
  kAlloc = 0,
  kLaminarize,
  kTmDp,
  kLeftMerge,
  kValidate,
};
inline constexpr std::size_t kSiteCount = 5;

const char* site_name(Site site);

/// Thrown by a triggered fault point (except `alloc`, which throws
/// std::bad_alloc to exercise the allocation-failure containment path).
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(Site site)
      : std::runtime_error(std::string("injected fault at site ") +
                           site_name(site)),
        site_(site) {}
  [[nodiscard]] Site site() const { return site_; }

 private:
  Site site_;
};

inline constexpr std::size_t kAnyInstance = static_cast<std::size_t>(-1);

struct Trigger {
  Site site = Site::kAlloc;
  std::size_t instance = kAnyInstance;  ///< instance index, or any
  std::uint64_t nth = 1;                ///< 1-based call count within instance
};

/// Parses the comma-separated trigger spec; throws std::invalid_argument
/// with a descriptive message on malformed input.
std::vector<Trigger> parse_spec(const std::string& spec);

/// Replaces the armed trigger set (process-wide; call before solving).
void arm(std::vector<Trigger> triggers);
void disarm();
[[nodiscard]] bool armed();

/// Arms from the POBP_FAULT_INJECT environment variable if it is set.
/// Returns true when triggers were armed.
bool arm_from_env();

/// RAII: enters instance `index` on the calling thread, zeroing the
/// per-site call counters so `nth` is counted per instance.  The Session
/// opens one scope per solve.
class InstanceScope {
 public:
  explicit InstanceScope(std::size_t index);
  ~InstanceScope();
  InstanceScope(const InstanceScope&) = delete;
  InstanceScope& operator=(const InstanceScope&) = delete;

 private:
  std::size_t previous_instance_;
  std::uint64_t previous_counts_[kSiteCount];
};

/// RAII: suppresses fault points on the calling thread while alive.
/// For harness/checker code — e.g. the `pobp chaos` differential checks
/// re-validating answers — that shares fault-instrumented routines with
/// the system under test but must not trip triggers aimed at it.
/// Nestable; covers only the calling thread.
class SuppressScope {
 public:
  SuppressScope();
  ~SuppressScope();
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;
};

/// Records one execution of `site` on this thread and throws if an armed
/// trigger matches.  Called via POBP_FAULT_POINT; cheap no-trigger path
/// (one branch on a process-wide flag).  Reads the trigger set lock-free
/// behind the release/acquire armed flag — beyond the thread-safety
/// analysis, hence the escape hatch.
void hit(Site site) POBP_NO_THREAD_SAFETY_ANALYSIS;

}  // namespace pobp::fault

#define POBP_FAULT_POINT(site) ::pobp::fault::hit(::pobp::fault::Site::site)
