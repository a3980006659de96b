// Minimal shared-memory parallelism layer.
//
// The algorithms in the paper are linear-time and inherently sequential;
// parallelism in this repository lives in the harness: parameter sweeps in
// the benchmarks, seed fan-out in property tests, and root splitting in the
// branch-and-bound solver.  A small fixed thread pool plus a blocked
// parallel_for covers all of those uses without dragging in OpenMP.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "pobp/util/thread_annotations.hpp"

namespace pobp {

/// Fixed-size worker pool with a simple FIFO task queue.
///
/// Tasks are `void()` closures; exceptions escaping a task terminate the
/// process (tasks are expected to capture-and-report their own errors).
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.  The cv wait takes a
  /// std::unique_lock over mutex_.native(), which the thread-safety
  /// analysis cannot follow.
  void wait_idle() POBP_NO_THREAD_SAFETY_ANALYSIS;

  std::size_t thread_count() const { return workers_.size(); }

  /// Process-wide shared pool (lazily constructed, default-sized).
  static ThreadPool& global();

 private:
  /// Same cv-wait caveat as wait_idle(); the queue/counter accesses all
  /// happen between the wait's relock and the scope's unlock.
  void worker_loop() POBP_NO_THREAD_SAFETY_ANALYSIS;

  util::Mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::queue<std::function<void()>> queue_ POBP_GUARDED_BY(mutex_);
  std::size_t in_flight_ POBP_GUARDED_BY(mutex_) = 0;
  bool stopping_ POBP_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

/// True on a ThreadPool's worker threads.  parallel_for runs serially there,
/// so a caller can take its serial path before building a fan-out.
bool on_pool_worker();

/// Blocked parallel loop: invokes `body(i)` for i in [begin, end) across the
/// global pool.  Falls back to a serial loop for tiny ranges or when called
/// from within a pool worker (no nested parallelism).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace pobp
