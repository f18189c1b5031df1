// Event-driven online scheduler daemon: the one driver of the sched-layer
// OnlineCore.  `reco_serve` runs it over a coflow stream, and
// `schedule_online` below runs it over a materialized workload for the
// benches, `reco_sim_cli online` and the tests.
//
// Coflow arrivals and epoch completions are typed events in the daemon's
// own heap; every decision is delegated to the OnlineCore.  The
// clairvoyant batch loop the daemon replaced is kept as a test oracle
// (tests/oracles/online_loop.hpp), and the daemon must emit byte-identical
// schedules to it — that equivalence is pinned by tests.  What the daemon
// does that the loop does not:
//
//  * a pull-based CoflowSource, so a 100k-coflow stream is generated one
//    coflow at a time instead of materializing the whole workload;
//  * non-clairvoyant control flow: the loop peeks at the next arrival to
//    place the cut; the daemon only learns of an arrival when its event
//    fires, and cuts the running plan *then* — same kept prefix, no
//    lookahead into the future;
//  * zero steady-state allocation: an event is four plain fields, the core
//    recycles its slots, and few events are outstanding at once;
//  * deterministic checkpoint/restart (docs/RELIABILITY.md): the event heap
//    holds exactly what a checkpoint records, so the whole daemon — core
//    slots, clock, dispatch counter, generation tags and the outstanding
//    events — serializes to a versioned snapshot, and a run resumed from
//    it replays byte-identically (same digest, stats, makespan, event
//    count) to the uninterrupted run.
//
// Event protocol (events run in (time, scheduling order); generation-tagged:
// a bumped generation orphans every event scheduled under the old one, and
// an orphan is still dispatched and counted, then ignored):
//
//   arrival(t):  ingest every source coflow with arrival <= t + eps;
//                drain-replan: cut the running plan at t, replan at
//                max(t, kept-prefix end); epoch/fifo: start work iff idle.
//   replan(t):   ingest <= t + eps (late admissions between cut and replan
//                land exactly as the reference loop admits them), then plan
//                and hold (drain) — completion scheduled at full makespan.
//   complete(t): commit the whole plan (nothing cut it), then replan if
//                anything is still live.
//   fifo_done(t): serve the next admitted coflow, if any.
//   sample(t) / checkpoint(t): telemetry snapshot / periodic checkpoint
//                write; both are write-only with respect to scheduling and
//                excluded from the reported event count.
#pragma once

#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/coflow.hpp"
#include "core/slice.hpp"
#include "core/types.hpp"
#include "sched/online_core.hpp"

namespace reco::sim {

/// Pull-based arrival stream, sorted by nondecreasing arrival time.
class CoflowSource {
 public:
  virtual ~CoflowSource() = default;
  /// Next coflow, or nullptr when the stream is exhausted.  The pointee is
  /// valid until the next pop() (sources may reuse one buffer).
  virtual const Coflow* peek() = 0;
  virtual void pop() = 0;
};

/// Adapts a materialized workload (sorted or not) into a CoflowSource.
class VectorSource final : public CoflowSource {
 public:
  explicit VectorSource(const std::vector<Coflow>& coflows);
  const Coflow* peek() override;
  void pop() override;
  /// Input position of each coflow, in the order the source yields them:
  /// nondecreasing arrival, input position breaking ties.
  const std::vector<int>& order() const { return by_arrival_; }

 private:
  const std::vector<Coflow>* coflows_;
  std::vector<int> by_arrival_;
  std::size_t cursor_ = 0;
};

/// Adapts any pull-style producer with `const Coflow* peek()` / `void pop()`
/// (e.g. trace::ArrivalStream, which lives below sim in the layer graph and
/// cannot inherit from CoflowSource) into a CoflowSource.
template <typename S>
class PullSource final : public CoflowSource {
 public:
  explicit PullSource(S& stream) : stream_(&stream) {}
  const Coflow* peek() override { return stream_->peek(); }
  void pop() override { stream_->pop(); }

 private:
  S* stream_;
};

struct OnlineDaemonOptions {
  OnlineCoreOptions core;
  /// Simulated-time telemetry sampling period in seconds.  > 0 schedules a
  /// recurring daemon event that snapshots the metrics registry into
  /// `obs::sim_sampler()` every `sample_every` sim-seconds (only while
  /// obs::enabled(); exact simulated-time windows, unlike the wall
  /// sampler).  Sampling is write-only: schedules, digest, makespan, and
  /// the reported event count are byte-identical with it on or off.
  double sample_every = 0.0;
  /// Graceful-shutdown flag (e.g. set from a SIGINT/SIGTERM handler).  The
  /// drive loop polls it between events and stops at the next event
  /// boundary — a consistent, checkpointable state — with
  /// `report.interrupted` set.  Null: never polled.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
  /// Deterministic interruption point for tests/CI: stop after this many
  /// *scheduling* events (sampler/checkpoint ticks excluded; 0 = never).
  /// Unlike a signal, the cut lands at the same event at every thread
  /// count, which is what the kill-and-resume byte-identity tests pin.
  std::uint64_t stop_after_events = 0;
  /// Periodic checkpointing: every `checkpoint_every` sim-seconds (> 0,
  /// with a non-empty `checkpoint_path`) the daemon writes a checkpoint of
  /// itself to the path (atomically, via a .tmp sibling and rename).
  /// Checkpoint ticks are daemon events but never touch scheduling
  /// state, so the run is byte-identical with them on or off.
  double checkpoint_every = 0.0;
  std::string checkpoint_path;
};

/// End-of-run summary: core stats plus the daemon-level determinism and
/// latency evidence the acceptance tests key on.
struct OnlineDaemonReport {
  OnlineCoreStats stats;
  std::uint64_t digest = 0;          ///< FNV-1a over every emitted slice
  std::uint64_t events = 0;          ///< event dispatches (excluding sampler/checkpoint ticks)
  Time makespan = 0.0;               ///< sim clock at the last scheduling event
  double decision_p50_us = 0.0;      ///< per-decision latency quantiles
  double decision_p99_us = 0.0;
  double decision_mean_us = 0.0;
  double decision_max_us = 0.0;
  std::uint64_t decisions = 0;
  bool interrupted = false;          ///< stopped early (stop flag / event quota)
  std::uint64_t checkpoints_written = 0;
};

class OnlineDaemon {
 public:
  OnlineDaemon(OnlinePolicyKind kind, const OnlineDaemonOptions& options = {});

  /// Pre-size core buffers for an expected stream length.
  void reserve(std::size_t expected_coflows);

  /// Drive the event loop until the source is exhausted and every admitted
  /// coflow has finished (or a stop condition fires — see
  /// `report.interrupted`).  One daemon runs one stream.
  OnlineDaemonReport run(CoflowSource& source);

  /// Restore a saved run and drive it to completion.  `source` must be the
  /// same stream the saved run consumed (deterministic sources replay; the
  /// daemon fast-forwards it to the saved admission cursor).  The daemon
  /// must be freshly constructed with the same policy kind and options —
  /// mismatches throw std::runtime_error, as do truncated/corrupted/
  /// version-mismatched checkpoints.
  OnlineDaemonReport resume(CoflowSource& source, std::istream& checkpoint);

  /// Serialize the complete daemon state (valid between events: after an
  /// interrupted run(), or from inside a checkpoint tick).
  void save_checkpoint(std::ostream& out) const;

  const OnlineCore& core() const { return core_; }

 private:
  enum class EventKind : std::uint8_t {
    kArrival = 0,
    kReplan = 1,
    kComplete = 2,
    kFifoDone = 3,
    kSample = 4,
    kCheckpoint = 5,
  };
  /// One outstanding event.  `seq` is its scheduling order, which breaks
  /// equal-time ties; it restarts at 0 on restore, and the checkpoint lists
  /// events in (at, seq) order, so re-scheduling them keeps the tie order.
  struct Event {
    EventKind kind;
    Time at;
    std::uint64_t gen;
    std::uint64_t seq;
  };

  void schedule_event(EventKind kind, Time at, std::uint64_t gen);
  /// Pop the earliest event, advance the clock to it and dispatch it.
  void run_one();

  void on_arrival(Time now);
  void on_replan(Time now, std::uint64_t gen);
  void on_complete(Time now, std::uint64_t gen);
  void on_fifo_done(Time now, std::uint64_t gen);
  void on_sample();
  void on_checkpoint();
  void schedule_next_sample();
  void write_checkpoint_file();
  void load_checkpoint(CoflowSource& source, std::istream& in);
  OnlineDaemonReport drive();

  /// Submit every source coflow with arrival <= horizon; returns how many.
  /// Mirrors the reference loop's eps-tolerant admission boundary.
  std::size_t ingest_until(Time horizon);
  void schedule_next_arrival();
  void start_if_idle(Time now);

  OnlineCore core_;
  /// Outstanding events: a binary heap with the earliest (at, seq) on top.
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0.0;               ///< sim clock: time of the last dispatched event
  std::uint64_t processed_ = 0;  ///< dispatches, sampler/checkpoint ticks included
  CoflowSource* source_ = nullptr;
  /// Sim-sampler period (0 = off); ticks are events but never touch
  /// scheduling state, so they cannot perturb the run.
  double sample_every_ = 0.0;
  std::uint64_t sample_events_ = 0;  ///< sampler dispatches, excluded from report
  const volatile std::sig_atomic_t* stop_flag_ = nullptr;
  std::uint64_t stop_after_events_ = 0;
  double checkpoint_every_ = 0.0;
  std::string checkpoint_path_;
  std::uint64_t checkpoint_events_ = 0;  ///< checkpoint dispatches, excluded from report
  std::uint64_t checkpoint_writes_ = 0;
  bool interrupted_ = false;
  /// Sim clock at the most recent *scheduling* event — the report makespan
  /// (now_ may trail into pure sampler ticks after the last slice).
  Time last_activity_ = 0.0;
  /// Bumped whenever a cut invalidates in-flight completion/replan events.
  std::uint64_t gen_ = 0;
  Time plan_base_ = 0.0;
  bool running_ = false;          ///< a plan/epoch/serve is outstanding
  bool arrival_pending_ = false;  ///< an arrival event is outstanding
};

/// What `schedule_online` emitted, with CCTs indexed like its input.
struct OnlineScheduleResult {
  SliceSchedule schedule;        ///< real-time slices across all epochs
  std::vector<Time> cct;         ///< per-coflow CCT measured from arrival
  int reconfigurations = 0;
  int epochs = 0;                ///< batch replan rounds (batch policies only)
  Time total_weighted_cct = 0.0;
  std::uint64_t digest = 0;      ///< FNV-1a over emitted slices (replay witness)
};

/// Run a materialized workload through an OnlineDaemon over a VectorSource.
/// The coflows' `arrival` fields are honoured; they need not be sorted.
/// `cct[k]` is input coflow k's CCT, measured from its arrival.  With
/// `options.record_schedule` or `record_cct` off, `schedule` or `cct` stays
/// empty.
OnlineScheduleResult schedule_online(const std::vector<Coflow>& coflows, OnlinePolicyKind policy,
                                     const OnlineCoreOptions& options = {});

}  // namespace reco::sim
