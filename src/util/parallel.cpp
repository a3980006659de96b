#include "pobp/util/parallel.hpp"

#include <algorithm>
#include <atomic>

namespace pobp {
namespace {

thread_local bool t_inside_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    util::MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_.native());
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_.native());
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock lock(mutex_.native());
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

bool on_pool_worker() { return t_inside_pool_worker; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  // Serial fallback: tiny range, nested call from a pool worker (nesting
  // would deadlock wait_idle on the shared queue), or single-threaded pool.
  // The first two are tested before the global pool exists, so a serial
  // call never starts its threads.
  ThreadPool* pool =
      count <= grain || on_pool_worker() ? nullptr : &ThreadPool::global();
  if (pool == nullptr || pool->thread_count() == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t blocks =
      std::min(count / std::max<std::size_t>(grain, 1) + 1,
               pool->thread_count() * 4);
  const std::size_t block_size = (count + blocks - 1) / blocks;
  std::atomic<std::size_t> next{begin};
  // Work-stealing-lite: each submitted task grabs the next block index.
  for (std::size_t b = 0; b < blocks; ++b) {
    pool->submit([&next, end, block_size, &body] {
      for (;;) {
        const std::size_t lo =
            next.fetch_add(block_size, std::memory_order_relaxed);
        if (lo >= end) return;
        const std::size_t hi = std::min(end, lo + block_size);
        for (std::size_t i = lo; i < hi; ++i) body(i);
      }
    });
  }
  pool->wait_idle();
}

}  // namespace pobp
