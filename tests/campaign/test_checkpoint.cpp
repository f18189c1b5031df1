// Deterministic checkpoint/restart (docs/RELIABILITY.md): the snapshot
// substrate, the SupportIndex round-trip, and the resume property — a
// daemon run killed at an arbitrary event and resumed from its checkpoint
// is byte-identical (schedule digest, stats, makespan, event count) to the
// uninterrupted run, across seeds, policies, interruption points, and
// thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "core/support_index.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/online_daemon.hpp"
#include "trace/generator.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

constexpr std::uint32_t kTestMagic = 0x54534554u;  // "TEST"

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Snapshot, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.put_u8(7);
  w.put_bool(true);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefull);
  w.put_i32(-42);
  w.put_i64(-1234567890123ll);
  w.put_f64(3.141592653589793);
  w.put_f64(-0.0);       // sign bit survives
  w.put_f64(5e-324);     // smallest denormal survives
  std::ostringstream out;
  w.finish(out, kTestMagic, 3);

  std::istringstream in(out.str());
  SnapshotReader r(in, kTestMagic, 3, "test snapshot");
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1234567890123ll);
  EXPECT_EQ(bits_of(r.get_f64()), bits_of(3.141592653589793));
  EXPECT_EQ(bits_of(r.get_f64()), bits_of(-0.0));
  EXPECT_EQ(bits_of(r.get_f64()), bits_of(5e-324));
  EXPECT_EQ(r.remaining(), 0u);
  r.expect_end();
}

TEST(Snapshot, RejectsDamagedFilesWithClearErrors) {
  SnapshotWriter w;
  w.put_u64(0x1122334455667788ull);
  w.put_f64(2.5);
  std::ostringstream out;
  w.finish(out, kTestMagic, 1);
  const std::string blob = out.str();

  const auto read_as = [](const std::string& bytes, std::uint32_t magic,
                          std::uint32_t version) {
    std::istringstream in(bytes);
    SnapshotReader r(in, magic, version, "test snapshot");
  };
  EXPECT_NE(error_of([&] { read_as(blob, kTestMagic + 1, 1); }).find("bad magic"),
            std::string::npos);
  EXPECT_NE(error_of([&] { read_as(blob, kTestMagic, 2); }).find("unsupported format version"),
            std::string::npos);
  EXPECT_NE(error_of([&] { read_as("XY", kTestMagic, 1); }).find("truncated header"),
            std::string::npos);
  EXPECT_NE(
      error_of([&] { read_as(blob.substr(0, blob.size() - 1), kTestMagic, 1); })
          .find("truncated payload"),
      std::string::npos);
  std::string corrupted = blob;
  corrupted[24] ^= 0x01;  // first payload byte
  EXPECT_NE(error_of([&] { read_as(corrupted, kTestMagic, 1); }).find("digest mismatch"),
            std::string::npos);
  // Unread payload bytes are format drift, not success.
  std::istringstream in(blob);
  SnapshotReader r(in, kTestMagic, 1, "test snapshot");
  (void)r.get_u64();
  EXPECT_THROW(r.expect_end(), std::runtime_error);
}

TEST(Snapshot, SupportIndexRoundTripIsBitExact) {
  Rng rng(5150);
  Matrix m(9);
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) {
      if (rng.uniform() < 0.4) m.at(i, j) = rng.uniform(0.01, 3.0);
    }
  }
  const SupportIndex index(std::move(m));

  SnapshotWriter w;
  save_support_index(w, index);
  std::ostringstream out;
  w.finish(out, kTestMagic, 1);
  std::istringstream in(out.str());
  SnapshotReader r(in, kTestMagic, 1, "test snapshot");
  const SupportIndex restored = load_support_index(r);
  r.expect_end();

  ASSERT_EQ(restored.n(), index.n());
  for (int i = 0; i < index.n(); ++i) {
    for (int j = 0; j < index.n(); ++j) {
      EXPECT_EQ(bits_of(restored.at(i, j)), bits_of(index.at(i, j)))
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(Snapshot, SupportIndexLoaderRejectsMalformedEntries) {
  // Payloads with an intact digest whose entries the saver never writes:
  // each must throw a named error instead of loading a wrong index.
  struct Entry {
    int i;
    int j;
    double v;
  };
  const auto load = [](const std::vector<Entry>& entries) {
    SnapshotWriter w;
    w.put_i32(2);
    w.put_i32(static_cast<std::int32_t>(entries.size()));
    for (const Entry& e : entries) {
      w.put_i32(e.i);
      w.put_i32(e.j);
      w.put_f64(e.v);
    }
    std::ostringstream out;
    w.finish(out, kTestMagic, 1);
    std::istringstream in(out.str());
    SnapshotReader r(in, kTestMagic, 1, "test snapshot");
    (void)load_support_index(r);
    r.expect_end();
  };
  const double inf = std::numeric_limits<double>::infinity();
  const std::string bad_value = "SupportIndex value not finite or below kTimeEps";
  const std::string bad_order = "SupportIndex entry duplicated or out of order";
  EXPECT_NE(error_of([&] { load({{0, 0, std::nan("")}}); }).find(bad_value), std::string::npos);
  EXPECT_NE(error_of([&] { load({{0, 1, inf}}); }).find(bad_value), std::string::npos);
  EXPECT_NE(error_of([&] { load({{0, 1, -inf}}); }).find(bad_value), std::string::npos);
  EXPECT_NE(error_of([&] { load({{1, 0, 0.0}}); }).find(bad_value), std::string::npos);
  EXPECT_NE(error_of([&] { load({{1, 0, 0.5 * kTimeEps}}); }).find(bad_value),
            std::string::npos);
  EXPECT_NE(error_of([&] { load({{0, 0, 1.0}, {0, 0, 2.0}}); }).find(bad_order),
            std::string::npos);
  EXPECT_NE(error_of([&] { load({{1, 0, 1.0}, {0, 1, 2.0}}); }).find(bad_order),
            std::string::npos);
  EXPECT_NE(error_of([&] { load({{0, 1, 1.0}, {0, 0, 2.0}}); }).find(bad_order),
            std::string::npos);
  // What the saver writes still loads: ascending entries, any sign, down to
  // exactly kTimeEps in magnitude.
  EXPECT_EQ(error_of([&] { load({{0, 0, kTimeEps}, {0, 1, -2.0}, {1, 0, 3.5}}); }), "");
}

// ---------------------------------------------------------------------------
// Daemon kill-and-resume byte-identity (the tentpole acceptance property).

GeneratorOptions stream_options(std::uint64_t seed) {
  GeneratorOptions o;
  o.num_ports = 10;
  o.num_coflows = 24;
  o.seed = seed;
  o.mean_interarrival = 0.01;
  return o;
}

sim::OnlineDaemonReport run_full(const std::vector<Coflow>& coflows, OnlinePolicyKind kind) {
  sim::VectorSource source(coflows);
  sim::OnlineDaemon daemon(kind);
  return daemon.run(source);
}

/// Interrupt after `stop_after` scheduling events, checkpoint, resume in a
/// fresh daemon, and return the resumed run's final report (or the partial
/// report if the stream finished before the quota — caller skips those).
struct ResumedRun {
  bool interrupted = false;
  sim::OnlineDaemonReport report;
};

ResumedRun interrupt_and_resume(const std::vector<Coflow>& coflows, OnlinePolicyKind kind,
                                std::uint64_t stop_after) {
  sim::VectorSource first(coflows);
  sim::OnlineDaemonOptions opt;
  opt.stop_after_events = stop_after;
  sim::OnlineDaemon daemon(kind, opt);
  const sim::OnlineDaemonReport partial = daemon.run(first);
  ResumedRun out;
  out.interrupted = partial.interrupted;
  if (!partial.interrupted) return out;

  std::ostringstream checkpoint;
  daemon.save_checkpoint(checkpoint);

  sim::VectorSource second(coflows);
  sim::OnlineDaemon resumed(kind);
  std::istringstream in(checkpoint.str());
  out.report = resumed.resume(second, in);
  return out;
}

/// Byte-identity between a resumed and an uninterrupted run.  Everything
/// except alloc_events (a process-local capacity-growth counter: the
/// resuming process re-grows its arenas, so its high-water accounting may
/// differ by design) and wall-clock decision latency.
void expect_identical(const sim::OnlineDaemonReport& resumed,
                      const sim::OnlineDaemonReport& full, const std::string& tag) {
  EXPECT_EQ(resumed.digest, full.digest) << tag;
  EXPECT_EQ(resumed.events, full.events) << tag;
  EXPECT_EQ(bits_of(resumed.makespan), bits_of(full.makespan)) << tag;
  EXPECT_EQ(resumed.stats.submitted, full.stats.submitted) << tag;
  EXPECT_EQ(resumed.stats.finished, full.stats.finished) << tag;
  EXPECT_EQ(resumed.stats.reconfigurations, full.stats.reconfigurations) << tag;
  EXPECT_EQ(resumed.stats.epochs, full.stats.epochs) << tag;
  EXPECT_EQ(bits_of(resumed.stats.total_weighted_cct), bits_of(full.stats.total_weighted_cct))
      << tag;
  EXPECT_FALSE(resumed.interrupted) << tag;
}

TEST(DaemonCheckpoint, ResumeIsByteIdenticalAcrossSeedsPoliciesAndCutPoints) {
  for (const OnlinePolicyKind kind :
       {OnlinePolicyKind::kEpochRecoMul, OnlinePolicyKind::kFifoRecoSin,
        OnlinePolicyKind::kDrainReplanRecoMul}) {
    for (const std::uint64_t seed : {921u, 922u}) {
      const auto coflows = generate_workload(stream_options(seed));
      const sim::OnlineDaemonReport full = run_full(coflows, kind);
      int exercised = 0;
      for (const std::uint64_t stop : {3u, 11u, 29u}) {
        const ResumedRun r = interrupt_and_resume(coflows, kind, stop);
        if (!r.interrupted) continue;  // stream drained before the quota
        ++exercised;
        expect_identical(r.report, full,
                         "seed " + std::to_string(seed) + " stop " + std::to_string(stop));
      }
      EXPECT_GT(exercised, 0) << "seed " << seed;
    }
  }
}

TEST(DaemonCheckpoint, ResumeIsByteIdenticalAcrossThreadCounts) {
  const auto coflows = generate_workload(stream_options(931));
  const OnlinePolicyKind kind = OnlinePolicyKind::kDrainReplanRecoMul;
  runtime::set_thread_count(1);
  const sim::OnlineDaemonReport full = run_full(coflows, kind);
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    const ResumedRun r = interrupt_and_resume(coflows, kind, 9);
    ASSERT_TRUE(r.interrupted) << threads << " threads";
    expect_identical(r.report, full, std::to_string(threads) + " threads");
  }
  runtime::set_thread_count(0);  // restore default
}

TEST(DaemonCheckpoint, RejectsMismatchedPolicyOptionsAndDamage) {
  const auto coflows = generate_workload(stream_options(941));
  sim::VectorSource first(coflows);
  sim::OnlineDaemonOptions opt;
  opt.stop_after_events = 7;
  sim::OnlineDaemon daemon(OnlinePolicyKind::kEpochRecoMul, opt);
  const sim::OnlineDaemonReport partial = daemon.run(first);
  ASSERT_TRUE(partial.interrupted);
  std::ostringstream checkpoint;
  daemon.save_checkpoint(checkpoint);
  const std::string blob = checkpoint.str();

  const auto resume_with = [&](OnlinePolicyKind kind, const sim::OnlineDaemonOptions& options,
                               const std::string& bytes, const std::vector<Coflow>& stream) {
    sim::VectorSource source(stream);
    sim::OnlineDaemon fresh(kind, options);
    std::istringstream in(bytes);
    (void)fresh.resume(source, in);
  };

  // Wrong policy kind.
  EXPECT_NE(error_of([&] {
              resume_with(OnlinePolicyKind::kFifoRecoSin, {}, blob, coflows);
            }).find("different policy"),
            std::string::npos);
  // Wrong sampler period: a resumed run must replay the saved cadence.
  sim::OnlineDaemonOptions sampled;
  sampled.sample_every = 0.25;
  EXPECT_NE(error_of([&] {
              resume_with(OnlinePolicyKind::kEpochRecoMul, sampled, blob, coflows);
            }).find("sample_every"),
            std::string::npos);
  // Source shorter than the saved run's admission cursor.
  EXPECT_NE(error_of([&] {
              resume_with(OnlinePolicyKind::kEpochRecoMul, {}, blob, {});
            }).find("shorter than the saved run"),
            std::string::npos);
  // Corrupted payload byte.
  std::string corrupted = blob;
  corrupted[corrupted.size() / 2] ^= 0x40;
  EXPECT_NE(error_of([&] {
              resume_with(OnlinePolicyKind::kEpochRecoMul, {}, corrupted, coflows);
            }).find("corrupted"),
            std::string::npos);
  // Truncated file.
  EXPECT_NE(error_of([&] {
              resume_with(OnlinePolicyKind::kEpochRecoMul, {}, blob.substr(0, 40), coflows);
            }).find("truncated"),
            std::string::npos);
  // Not a daemon checkpoint at all.
  EXPECT_NE(error_of([&] {
              resume_with(OnlinePolicyKind::kEpochRecoMul, {}, "definitely not a checkpoint",
                          coflows);
            }).find("daemon checkpoint"),
            std::string::npos);

  // Malformed times, generations and tick counts, each re-digested so that
  // only the field's own check can reject it.  The payload opens with the
  // core's state; then come the clock, the dispatch count, the generation,
  // the plan base, two flags, the last-activity time, the sampler period
  // and the sampler and checkpoint tick counts.  The pending events close
  // it, so the last one's time and generation are its last 16 bytes.
  SnapshotWriter core_state;
  daemon.core().save(core_state);
  const std::size_t clock_at = 24 + core_state.payload().size();
  const std::size_t processed_at = clock_at + 8;
  const std::size_t gen_at = clock_at + 16;
  const std::size_t plan_base_at = clock_at + 24;
  const std::size_t last_activity_at = clock_at + 34;
  const std::size_t sample_ticks_at = clock_at + 50;
  const std::size_t checkpoint_ticks_at = clock_at + 58;
  const std::size_t event_time_at = blob.size() - 16;
  const std::size_t event_gen_at = blob.size() - 8;
  const auto put_le = [](std::string& bytes, std::size_t at, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) bytes[at + b] = static_cast<char>((v >> (8 * b)) & 0xffu);
  };
  const auto get_le = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= std::uint64_t{static_cast<unsigned char>(blob[at + b])} << (8 * b);
    }
    return v;
  };
  const auto patched_fields =
      [&](std::initializer_list<std::pair<std::size_t, std::uint64_t>> fields) {
        std::string bytes = blob;
        for (const auto& [at, v] : fields) put_le(bytes, at, v);
        put_le(bytes, 16, fnv1a64(bytes.data() + 24, bytes.size() - 24));
        return bytes;
      };
  const auto patched = [&](std::size_t at, std::uint64_t v) {
    return patched_fields({{at, v}});
  };
  const auto rejection = [&](const std::string& bytes) {
    return error_of([&] { resume_with(OnlinePolicyKind::kEpochRecoMul, {}, bytes, coflows); });
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -1.0}) {
    const std::string tag = "value " + std::to_string(bad);
    EXPECT_NE(rejection(patched(clock_at, bits_of(bad))).find("daemon checkpoint: clock"),
              std::string::npos)
        << tag;
    EXPECT_NE(rejection(patched(plan_base_at, bits_of(bad))).find("daemon checkpoint: plan base"),
              std::string::npos)
        << tag;
    EXPECT_NE(rejection(patched(last_activity_at, bits_of(bad)))
                  .find("daemon checkpoint: last-activity time"),
              std::string::npos)
        << tag;
    // -1 lies before the clock, which is never negative.
    EXPECT_NE(rejection(patched(event_time_at, bits_of(bad)))
                  .find("daemon checkpoint: pending event time"),
              std::string::npos)
        << tag;
  }
  EXPECT_NE(rejection(patched(event_gen_at, get_le(gen_at) + 1))
                .find("daemon checkpoint: pending event generation"),
            std::string::npos);
  // Sampler and checkpoint ticks are dispatched events, so together they
  // cannot outnumber the dispatch count (the report subtracts both from
  // it).  The last case wraps a sum of the two to zero.
  const std::uint64_t processed = get_le(processed_at);
  const std::string ticks = "daemon checkpoint: sampler and checkpoint ticks";
  EXPECT_NE(rejection(patched(sample_ticks_at, processed + 1)).find(ticks), std::string::npos);
  EXPECT_NE(rejection(patched(checkpoint_ticks_at, processed + 1)).find(ticks),
            std::string::npos);
  EXPECT_NE(rejection(patched_fields({{sample_ticks_at, processed}, {checkpoint_ticks_at, 1}}))
                .find(ticks),
            std::string::npos);
  EXPECT_NE(rejection(patched_fields({{sample_ticks_at, 1},
                                      {checkpoint_ticks_at, ~std::uint64_t{0}}}))
                .find(ticks),
            std::string::npos);

  // The checkpoint itself is intact: the happy path still resumes.
  sim::VectorSource source(coflows);
  sim::OnlineDaemon fresh(OnlinePolicyKind::kEpochRecoMul);
  std::istringstream in(blob);
  const sim::OnlineDaemonReport resumed = fresh.resume(source, in);
  expect_identical(resumed, run_full(coflows, OnlinePolicyKind::kEpochRecoMul), "happy path");
}

}  // namespace
}  // namespace reco
