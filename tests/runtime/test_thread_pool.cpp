#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/parallel.hpp"

namespace reco::runtime {
namespace {

/// RAII: force a thread count for one test, restore the default after.
struct ScopedThreads {
  explicit ScopedThreads(int n) { set_thread_count(n); }
  ~ScopedThreads() { set_thread_count(0); }
};

/// RAII: set an environment variable for one test, restore it after.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Outcome of nested_rendezvous(): how many outer indices gave up
/// waiting, which thread ran each outer index, and which threads ran
/// each outer index's nested indices.
struct Rendezvous {
  int timeouts = 0;
  std::thread::id lane[2];
  std::vector<std::thread::id> nested[2];
};

/// parallel_for(2) whose indices each run a nested parallel_for(4) and
/// then wait (at most 2 s) until the other index has finished its nested
/// batch.  At 2 threads this needs both lanes to progress at once: a lane
/// whose nested batch waits on a helper queued behind the other lane's
/// outer helper stalls until the other lane's wait times out.
Rendezvous nested_rendezvous() {
  Rendezvous run;
  std::mutex mu;
  std::condition_variable cv;
  int nested_done = 0;
  parallel_for(2, [&](int i) {
    run.lane[i] = std::this_thread::get_id();
    run.nested[i].resize(4);
    parallel_for(4, [&](int j) { run.nested[i][j] = std::this_thread::get_id(); });
    std::unique_lock<std::mutex> lock(mu);
    ++nested_done;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(2), [&] { return nested_done == 2; })) {
      ++run.timeouts;
    }
  });
  return run;
}

TEST(ThreadPool, SubmittedJobsRun) {
  // The sync objects outlive the pool: the wait can see ran == 20 before
  // the worker that ran job 20 has locked `mu` and notified, and the pool's
  // destructor joins that worker while `mu` and `cv` still exist.
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  for (int i = 0; i < 20; ++i) {
    pool.submit([&] {
      if (ran.fetch_add(1) + 1 == 20) {
        std::lock_guard<std::mutex> lock(mu);  // pair with the wait to avoid lost wakeups
        cv.notify_all();
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ran.load() == 20; });
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, SequentialPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  bool ran = false;
  pool.submit([&] { ran = true; });  // runs on the calling thread
  EXPECT_TRUE(ran);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  ScopedThreads threads(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SingleThreadRunsOnCallerThread) {
  ScopedThreads threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  parallel_for(64, [&](int i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, PropagatesExceptions) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      parallel_for(100,
                   [&](int i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  ScopedThreads threads(4);
  std::atomic<int> total{0};
  parallel_for(8, [&](int) { parallel_for(8, [&](int) { total.fetch_add(1); }); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, NestedBatchesLetEveryLaneProgress) {
  ScopedThreads threads(2);
  EXPECT_EQ(nested_rendezvous().timeouts, 0);
}

TEST(ParallelFor, NestedIndicesRunOnTheirLanesOwnThread) {
  ScopedThreads threads(2);
  const std::thread::id caller = std::this_thread::get_id();
  const Rendezvous run = nested_rendezvous();
  ASSERT_EQ(run.timeouts, 0);
  // The rendezvous puts the two outer indices on different lanes: the
  // caller's and a pool helper's.
  EXPECT_NE(run.lane[0], run.lane[1]);
  EXPECT_TRUE(run.lane[0] == caller || run.lane[1] == caller);
  for (int i = 0; i < 2; ++i) {
    for (const std::thread::id& id : run.nested[i]) EXPECT_EQ(id, run.lane[i]) << "outer " << i;
  }
}

TEST(ParallelFor, LanesFanOutAgainAfterAThrow) {
  ScopedThreads threads(2);
  EXPECT_THROW(parallel_for(2,
                            [](int) {
                              parallel_for(4, [](int j) {
                                if (j == 1) throw std::runtime_error("nested");
                              });
                            }),
               std::runtime_error);
  // A lane mark left set would run the rendezvous' outer batch inline on
  // the caller, so its first index would wait out the full 2 s.
  EXPECT_EQ(nested_rendezvous().timeouts, 0);
}

TEST(ParallelMap, PreservesInputOrder) {
  ScopedThreads threads(8);
  std::vector<int> items(500);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> out = parallel_map(items, [](const int& x) { return x * x; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], items[i] * items[i]);
}

TEST(ParallelMap, EmptyInputYieldsEmptyOutput) {
  const std::vector<int> none;
  EXPECT_TRUE(parallel_map(none, [](const int& x) { return x; }).empty());
}

TEST(Runtime, ParseThreadCountAcceptsPositiveIntsOnly) {
  EXPECT_EQ(parse_thread_count("8"), 8);
  for (const char* bad : {"", "abc", "4x", "0", "-1", "2.5", "99999999999"}) {
    try {
      (void)parse_thread_count(bad);
      ADD_FAILURE() << "accepted \"" << bad << '"';
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find('"' + std::string(bad) + '"'), std::string::npos)
          << e.what();
    }
  }
}

TEST(Runtime, MalformedRecoThreadsThrows) {
  set_thread_count(0);  // no override: RECO_THREADS decides
  {
    const ScopedEnv env("RECO_THREADS", "abc");
    EXPECT_THROW((void)thread_count(), std::invalid_argument);
    set_thread_count(3);  // an explicit override never reads the environment
    EXPECT_EQ(thread_count(), 3);
    set_thread_count(0);
  }
  EXPECT_GE(thread_count(), 1);
}

/// Set on each lane that ran an index of mark_lanes(); a pool worker keeps
/// it for as long as the worker thread lives.
thread_local bool tls_lane_marked = false;

/// parallel_for(n) whose indices wait (at most 2 s) until all n have
/// started, so each runs on its own lane: the caller and every one of an
/// n-thread pool's n - 1 workers.  Returns whether each index's lane was
/// already marked, and marks it.
std::vector<char> mark_lanes(int n) {
  std::vector<char> was_marked(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  parallel_for(n, [&](int i) {
    was_marked[i] = tls_lane_marked;
    tls_lane_marked = true;
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return started == n; });
  });
  return was_marked;
}

TEST(Runtime, SameThreadCountKeepsPoolWorkers) {
  ScopedThreads threads(3);
  (void)mark_lanes(3);
  set_thread_count(3);  // same count: the workers must survive
  for (const char marked : mark_lanes(3)) EXPECT_TRUE(marked);
  set_thread_count(4);  // new count: fresh workers carry no mark
  const std::vector<char> after = mark_lanes(4);
  EXPECT_NE(std::count(after.begin(), after.end(), 0), 0);
}

TEST(Runtime, ThreadCountOverrideAndRestore) {
  set_thread_count(7);
  EXPECT_EQ(thread_count(), 7);
  EXPECT_EQ(global_pool().num_workers(), 6);  // caller is the 7th lane
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1);
}

}  // namespace
}  // namespace reco::runtime
