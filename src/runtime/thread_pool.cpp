#include "runtime/thread_pool.hpp"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace reco::runtime {

namespace {

/// Telemetry shim around a submitted job: queue wait (enqueue -> first
/// instruction), busy time, and a "pool.task" span on the worker's wall
/// track.  Only wrapped when telemetry is on at submit time, so the
/// disabled cost is the one branch in submit().
std::function<void()> wrap_job_for_telemetry(std::function<void()> job) {
  const auto enqueued = obs::Tracer::Clock::now();
  return [job = std::move(job), enqueued]() {
    const auto start = obs::Tracer::Clock::now();
    job();
    const auto end = obs::Tracer::Clock::now();
    if (!obs::enabled()) return;  // toggled off mid-flight: drop the sample
    const double wait_us = std::chrono::duration<double, std::micro>(start - enqueued).count();
    const double busy_us = std::chrono::duration<double, std::micro>(end - start).count();
    static obs::Counter& tasks = obs::metrics().counter("pool.tasks");
    static obs::Counter& busy = obs::metrics().counter("pool.busy_us");
    static obs::Histogram& wait =
        obs::metrics().histogram("pool.queue_wait_us", obs::pow2_buckets(1048576.0));
    tasks.inc();
    busy.inc(busy_us);
    wait.observe(wait_us);
    obs::tracer().complete("pool.task", "pool", start, end, {{"queue_wait_us", wait_us}});
  };
}

/// Parallelism picked from the environment: RECO_THREADS if set (which
/// must then parse), otherwise the hardware.
int env_thread_count() {
  const char* env = std::getenv("RECO_THREADS");
  if (!env) return hardware_cores();
  try {
    return parse_thread_count(env);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("RECO_THREADS: ") + e.what());
  }
}

struct GlobalPoolState {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
  int pool_threads = 0;  // thread_count() the pool was built for
  int override_threads = 0;  // 0 = no override
};

GlobalPoolState& global_state() {
  static GlobalPoolState state;
  return state;
}

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  workers_.reserve(num_workers > 0 ? num_workers : 0);
  for (int t = 0; t < num_workers; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
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

void ThreadPool::submit(std::function<void()> job) {
  if (obs::enabled()) job = wrap_job_for_telemetry(std::move(job));
  if (workers_.empty()) {
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

int parse_thread_count(std::string_view text) {
  int value = 0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || value < 1) {
    throw std::invalid_argument("thread count \"" + std::string(text) +
                                "\" is not a positive integer");
  }
  return value;
}

int hardware_cores() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int thread_count() {
  GlobalPoolState& s = global_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.override_threads >= 1 ? s.override_threads : env_thread_count();
}

void set_thread_count(int n) {
  GlobalPoolState& s = global_state();
  std::unique_ptr<ThreadPool> retired;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.override_threads = n >= 1 ? n : 0;
    // A pool already sized for `n` stays: its workers keep running instead
    // of being joined and respawned.  The check reads only the pool's own
    // size, never RECO_THREADS, so a malformed variable cannot make it throw.
    if (n >= 1 && s.pool && s.pool_threads == n) return;
    // Drop the stale pool; global_pool() rebuilds at the new size.  The
    // retired pool joins its workers outside the lock.
    retired = std::move(s.pool);
    s.pool_threads = 0;
  }
}

ThreadPool& global_pool() {
  GlobalPoolState& s = global_state();
  const int want = thread_count();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.pool || s.pool_threads != want) {
    s.pool.reset();  // join old workers before spawning replacements
    s.pool = std::make_unique<ThreadPool>(want - 1);
    s.pool_threads = want;
  }
  return *s.pool;
}

}  // namespace reco::runtime
