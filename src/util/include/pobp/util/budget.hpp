// Cooperative solve budgets: a wall-clock deadline plus an operation
// budget, polled at pipeline loop heads.
//
// The pipeline functions keep their signatures: the caller installs a
// BudgetGuard for the current thread with BudgetGuard::Scope, and the
// loops call the static BudgetGuard::poll().  When no guard is installed
// poll() is a thread-local pointer test — cheap enough for every loop
// head; when one is installed it counts operations and checks the
// steady clock every ~1024 operations (and on the very first poll, so a
// deadline of 0 fires deterministically).
//
// Exhaustion throws DeadlineExceeded / BudgetExhausted (both
// BudgetError).  Session::run catches them at the instance boundary
// and either degrades to the approximate path or reports POBP-RUN-002 /
// POBP-RUN-003 — see docs/ROBUSTNESS.md.
//
// A guard may be shared across threads (the B&B seed fans out over the
// global pool): the operation counter is atomic and the expiry flag is
// sticky, so every participating thread observes the same verdict.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace pobp {

/// Limits for one instance's solve.  Default-constructed = unlimited.
struct SolveBudget {
  /// Wall-clock deadline in seconds (0 = no deadline).
  double deadline_s = 0;

  /// Cooperative operation budget: roughly one operation per pipeline
  /// loop iteration / B&B node (0 = no limit).
  std::uint64_t max_ops = 0;

  [[nodiscard]] bool unlimited() const {
    return deadline_s <= 0 && max_ops == 0;
  }
};

class BudgetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DeadlineExceeded : public BudgetError {
 public:
  DeadlineExceeded() : BudgetError("solve deadline exceeded") {}
};

class BudgetExhausted : public BudgetError {
 public:
  BudgetExhausted() : BudgetError("solve operation budget exhausted") {}
};

/// One instance's budget accounting.  Install with BudgetGuard::Scope;
/// the pipeline polls via the static BudgetGuard::poll().
class BudgetGuard {
 public:
  explicit BudgetGuard(const SolveBudget& budget)
      : max_ops_(budget.max_ops),
        deadline_((budget.deadline_s > 0)
                      ? Clock::now() + std::chrono::duration_cast<
                                           Clock::duration>(
                            std::chrono::duration<double>(budget.deadline_s))
                      : Clock::time_point::max()) {}

  BudgetGuard(const BudgetGuard&) = delete;
  BudgetGuard& operator=(const BudgetGuard&) = delete;

  /// Installs a guard as the current thread's active guard (restoring the
  /// previous one on destruction, so nested solves compose).  Passing
  /// nullptr uninstalls — used when handing work to another thread that
  /// should share the same guard via `adopt()`.
  class Scope {
   public:
    explicit Scope(BudgetGuard* guard) : previous_(current_) {
      current_ = guard;
    }
    ~Scope() { current_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BudgetGuard* previous_;
  };

  /// The guard installed on the calling thread, if any.
  static BudgetGuard* active() { return current_; }

  /// Loop-head check: charges `ops` operations against the installed
  /// guard (no-op when none is installed).  Throws DeadlineExceeded /
  /// BudgetExhausted once the budget is gone; the verdict is sticky.
  static void poll(std::uint64_t ops = 1) {
    if (current_ != nullptr) current_->charge(ops);
  }

  /// Direct (non-thread-local) check, for code that captured the guard.
  void charge(std::uint64_t ops) {
    if (expired_.load(std::memory_order_relaxed)) raise();
    const std::uint64_t seen =
        ops_.fetch_add(ops, std::memory_order_relaxed) + ops;
    if (max_ops_ != 0 && seen > max_ops_) {
      deadline_hit_.store(false, std::memory_order_relaxed);
      expired_.store(true, std::memory_order_relaxed);
      raise();
    }
    // Check the clock on the first poll and then every ~1024 operations,
    // so a zero deadline fires deterministically and steady_clock::now()
    // stays off the hot path.
    if (seen >= next_clock_check_.load(std::memory_order_relaxed)) {
      next_clock_check_.store(seen + 1024, std::memory_order_relaxed);
      if (Clock::now() > deadline_) {
        deadline_hit_.store(true, std::memory_order_relaxed);
        expired_.store(true, std::memory_order_relaxed);
        raise();
      }
    }
  }

  [[nodiscard]] std::uint64_t ops() const {
    return ops_.load(std::memory_order_relaxed);
  }

  /// Seconds until the wall-clock deadline (negative once past it,
  /// +infinity when the budget has none).  The retry backoff clamps its
  /// sleeps to this so a retrying solve never dozes past the deadline.
  [[nodiscard]] double remaining_deadline_s() const {
    if (deadline_ == Clock::time_point::max()) {
      return std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double>(deadline_ - Clock::now()).count();
  }
  [[nodiscard]] bool expired() const {
    return expired_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[noreturn]] void raise() const {
    if (deadline_hit_.load(std::memory_order_relaxed)) {
      throw DeadlineExceeded();
    }
    throw BudgetExhausted();
  }

  const std::uint64_t max_ops_;
  const Clock::time_point deadline_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> next_clock_check_{0};
  std::atomic<bool> expired_{false};
  std::atomic<bool> deadline_hit_{false};

  static thread_local BudgetGuard* current_;
};

}  // namespace pobp
