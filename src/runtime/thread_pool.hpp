// Shared-memory parallel runtime: a fixed-size thread pool driving the
// embarrassingly parallel hot paths (per-coflow BvN decompositions, bench
// sweep points, trace synthesis).
//
// Design constraints, in priority order:
//  1. *Determinism*: parallel_for / parallel_map (parallel.hpp) hand out
//     work by index and store results by index, so outputs are identical
//     to the sequential loop regardless of thread count or completion
//     order.  RECO_THREADS=1 takes the plain sequential code path.
//  2. *No deadlocks by construction*: the submitting thread always
//     participates in draining its own batch, and a batch launched from
//     any lane of a running batch — the caller or a pool helper — runs
//     inline on that lane.  Every job the global pool runs is a batch
//     helper, and a helper never waits on another batch, so every queued
//     helper is eventually picked up: nested parallelism never waits on
//     a queue slot.
//  3. *No work stealing, no lock-free cleverness*: one mutex + condvar
//     queue.  The units of work here (a 150x150 BvN decomposition, a full
//     pipeline run per sweep point) are milliseconds to seconds; queue
//     overhead is noise.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace reco::runtime {

/// Fixed-size pool of worker threads consuming a FIFO job queue.
/// Constructing with `num_workers <= 0` spawns no threads (a purely
/// sequential pool); `submit` then runs the job inline.
class ThreadPool {
 public:
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for a sequential pool).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a job.  Jobs are opaque: the pool never waits on them, so a
  /// job may itself submit further jobs without risk of deadlock.
  void submit(std::function<void()> job);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Parse a thread count from a `--threads=` flag or `RECO_THREADS`: the
/// whole text must be a positive decimal `int`.  Anything else ("", "abc",
/// "4x", "0", "-1", "2.5", out of range) throws std::invalid_argument
/// quoting the text.
int parse_thread_count(std::string_view text);

/// Total parallelism the runtime will use: the `set_thread_count` override
/// if one is active, else the `RECO_THREADS` environment variable, else
/// `std::thread::hardware_concurrency()`.  Always >= 1; 1 means every
/// parallel_for / parallel_map runs the plain sequential loop.  Throws
/// std::invalid_argument if `RECO_THREADS` is set but malformed.
int thread_count();

/// Physical parallelism of the machine: `hardware_concurrency()`, clamped
/// to >= 1.  Unlike thread_count() this ignores RECO_THREADS and
/// set_thread_count — it is the ground truth the benchmark baselines
/// record per entry, so a perf guard on another box can tell "this thread
/// sweep actually had cores to scale onto" from "this row was measured
/// oversubscribed on a smaller machine".
int hardware_cores();

/// Override the thread count (e.g. from a `--threads=N` flag or a test
/// comparing thread counts); `n <= 0` clears the override, reverting to
/// RECO_THREADS / hardware_concurrency.  Keeps a global pool already sized
/// for `n` and its workers; otherwise retires the pool, and global_pool()
/// builds one at the new size.  Call it only between parallel regions
/// (startup, test setup) — never while a parallel_for is in flight.
void set_thread_count(int n);

/// The process-wide pool backing parallel_for / parallel_map, sized
/// `thread_count() - 1` (the caller is the remaining worker).  Created on
/// first use.
ThreadPool& global_pool();

}  // namespace reco::runtime
