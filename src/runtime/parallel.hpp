// Deterministic data-parallel loops over the global thread pool.
//
// `parallel_for(n, fn)` runs fn(0) .. fn(n-1), in parallel when the
// runtime has more than one thread, and guarantees:
//  * every index runs exactly once;
//  * the call returns only after all indices completed;
//  * the first exception thrown by any fn(i) is rethrown to the caller
//    (remaining indices still run — no cancellation, no partial batches);
//  * with thread_count() == 1 (e.g. RECO_THREADS=1) the loop is the plain
//    sequential `for`, bit-for-bit identical to the pre-parallel code.
//
// `parallel_map(items, fn)` additionally stores fn(items[i]) at out[i],
// so the result vector is in input order regardless of which thread
// finished which item first.  Callers are responsible for making fn(i)
// independent of execution order (e.g. per-index RNG seeding).
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace reco::runtime {

namespace detail {

/// Shared state of one parallel_for batch: an index dispenser plus a
/// completion latch for the helper jobs submitted to the pool.
struct BatchState {
  explicit BatchState(int size) : n(size) {}

  const int n;
  std::atomic<int> next{0};
  std::mutex mu;
  std::condition_variable done;
  int outstanding_helpers = 0;
  std::exception_ptr error;

  void record_error(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::move(e);
  }
  void helper_finished() {
    std::lock_guard<std::mutex> lock(mu);
    if (--outstanding_helpers == 0) done.notify_all();
  }
  void wait_helpers() {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [this] { return outstanding_helpers == 0; });
  }
};

/// True while this thread is a lane of a running batch: the caller or a
/// pool helper inside the batch's drain loop.
inline thread_local bool tls_in_batch = false;

/// Marks the current thread as a batch lane for the guard's lifetime and
/// restores the previous mark on scope exit, exceptional or not.
class BatchLaneGuard {
 public:
  BatchLaneGuard() : outer_(tls_in_batch) { tls_in_batch = true; }
  ~BatchLaneGuard() { tls_in_batch = outer_; }
  BatchLaneGuard(const BatchLaneGuard&) = delete;
  BatchLaneGuard& operator=(const BatchLaneGuard&) = delete;

 private:
  const bool outer_;
};

}  // namespace detail

template <typename Fn>
void parallel_for(int n, Fn&& fn) {
  if (n <= 0) return;
  ThreadPool& pool = global_pool();
  // Sequential fast path: single-threaded runtime, trivial batch, or a
  // nested call from any lane of a running batch, the caller's included.
  // Running inline keeps every lane busy with its own indices: a lane
  // never waits on a helper queued behind another batch's helpers, and
  // never runs another batch's job on its stack.
  if (pool.num_workers() == 0 || n == 1 || detail::tls_in_batch) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  detail::BatchState batch(n);
  auto drain = [&fn, &batch] {
    const detail::BatchLaneGuard lane;
    for (;;) {
      const int i = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.n) return;
      try {
        fn(i);
      } catch (...) {
        batch.record_error(std::current_exception());
      }
    }
  };

  // The caller is one lane; at most n-1 helpers share the rest.  Helpers
  // capture stack state by reference, which stays valid because we never
  // return before wait_helpers().
  const int helpers = std::min(pool.num_workers(), n - 1);
  batch.outstanding_helpers = helpers;
  for (int h = 0; h < helpers; ++h) {
    pool.submit([&drain, &batch] {
      drain();
      batch.helper_finished();
    });
  }
  drain();
  batch.wait_helpers();
  if (batch.error) std::rethrow_exception(batch.error);
}

template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, const T&>>;
  std::vector<R> out(items.size());
  parallel_for(static_cast<int>(items.size()), [&](int i) { out[i] = fn(items[i]); });
  return out;
}

}  // namespace reco::runtime
