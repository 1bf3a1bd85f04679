#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace rabid::util {

std::size_t resolve_thread_count(std::int32_t requested) {
  if (requested >= 1) return static_cast<std::size_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  RABID_ASSERT_MSG(threads >= 1, "a thread pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RABID_ASSERT_MSG(!stopping_, "submit on a stopping thread pool");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  obs::observe(obs::HistogramId::kPoolQueueDepth,
               static_cast<std::uint64_t>(depth));
}

void ThreadPool::worker_loop(std::size_t index) {
  // Label this worker's track in the chrome trace (recorded even when
  // tracing starts later — names are metadata, not events).
  obs::Registry::instance().trace().set_thread_name(
      "pool-worker-" + std::to_string(index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    obs::count(obs::Counter::kPoolTasks);
    task();
  }
}

namespace {

/// Shared state of one parallel_for call: the body, a work counter,
/// plus the first exception any runner hit.  Owns a *copy* of the body
/// so helper tasks never reference the caller's stack — parallel_for
/// can unwind (a throwing body, a failed submit) while helpers are
/// still draining, and nothing dangles.
struct ForState {
  std::function<void(std::size_t)> fn;
  std::atomic<std::size_t> next;
  std::size_t end;
  std::mutex mu;
  std::exception_ptr error;

  /// Claims and runs indices until the range (or the error budget) is
  /// exhausted; returns how many indices this runner processed.
  /// Never throws: a throwing body records the first exception and
  /// parks the counter so no new index is handed out.
  std::size_t run() {
    std::size_t processed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return processed;
      try {
        fn(i);
        ++processed;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        // Park the counter past the end so no new index is handed out.
        next.store(end, std::memory_order_relaxed);
        return processed;
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  obs::count(obs::Counter::kPoolParallelFors);
  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;

  // One helper task per worker (capped by the range); the calling thread
  // is the final runner, so a pool of size 1 still overlaps with it.
  const std::size_t helpers =
      std::min(workers_.size(), end - begin > 1 ? end - begin - 1 : 0);
  std::vector<std::future<void>> done;
  done.reserve(helpers);
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      done.push_back(submit([state] {
        obs::ScopedTimer timer("parallel_for worker", "pool");
        obs::count(obs::Counter::kPoolIndices, state->run());
      }));
    }
    obs::count(obs::Counter::kPoolIndices, state->run());
  } catch (...) {
    // submit() itself failed (allocation, queue assert).  Park the
    // counter and wait for already-launched helpers before unwinding so
    // the pool is quiescent when the caller sees the exception.
    state->next.store(end, std::memory_order_relaxed);
    for (std::future<void>& f : done) f.wait();
    throw;
  }
  for (std::future<void>& f : done) f.get();
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace rabid::util
