#include "sim/online_daemon.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/snapshot.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"

namespace reco::sim {

namespace {
// "RDCP" little-endian: Reco Daemon CheckPoint.
constexpr std::uint32_t kDaemonMagic = 0x50434452u;
constexpr std::uint32_t kDaemonVersion = 1;

/// Event order: earlier time first, then earlier scheduling.  As a heap
/// comparator ("runs later than") it keeps the next event on top.
constexpr auto kRunsLater = [](const auto& a, const auto& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

/// A restored clock, plan base or last-activity time must be one a run can
/// reach: finite and non-negative.
Time checked_time(SnapshotReader& r, const char* what) {
  const Time t = r.get_f64();
  if (!std::isfinite(t) || t < 0.0) {
    throw std::runtime_error(std::string("daemon checkpoint: ") + what +
                             " is not a finite non-negative time");
  }
  return t;
}
}  // namespace

VectorSource::VectorSource(const std::vector<Coflow>& coflows) : coflows_(&coflows) {
  by_arrival_.resize(coflows.size());
  std::iota(by_arrival_.begin(), by_arrival_.end(), 0);
  std::stable_sort(by_arrival_.begin(), by_arrival_.end(), [&](int a, int b) {
    return coflows[a].arrival < coflows[b].arrival;
  });
}

const Coflow* VectorSource::peek() {
  if (cursor_ >= by_arrival_.size()) return nullptr;
  return &(*coflows_)[static_cast<std::size_t>(by_arrival_[cursor_])];
}

void VectorSource::pop() { ++cursor_; }

OnlineDaemon::OnlineDaemon(OnlinePolicyKind kind, const OnlineDaemonOptions& options)
    : core_(kind, options.core),
      sample_every_(options.sample_every),
      stop_flag_(options.stop_flag),
      stop_after_events_(options.stop_after_events),
      checkpoint_every_(options.checkpoint_every),
      checkpoint_path_(options.checkpoint_path) {}

void OnlineDaemon::reserve(std::size_t expected_coflows) { core_.reserve(expected_coflows); }

void OnlineDaemon::schedule_event(EventKind kind, Time at, std::uint64_t gen) {
  events_.push_back({kind, at, gen, next_seq_++});
  std::push_heap(events_.begin(), events_.end(), kRunsLater);
}

void OnlineDaemon::run_one() {
  std::pop_heap(events_.begin(), events_.end(), kRunsLater);
  const Event e = events_.back();
  events_.pop_back();
  now_ = e.at;
  ++processed_;
  switch (e.kind) {
    case EventKind::kArrival:
      on_arrival(now_);
      break;
    case EventKind::kReplan:
      on_replan(now_, e.gen);
      break;
    case EventKind::kComplete:
      on_complete(now_, e.gen);
      break;
    case EventKind::kFifoDone:
      on_fifo_done(now_, e.gen);
      break;
    case EventKind::kSample:
      on_sample();
      break;
    case EventKind::kCheckpoint:
      on_checkpoint();
      break;
  }
}

OnlineDaemonReport OnlineDaemon::run(CoflowSource& source) {
  source_ = &source;
  last_activity_ = now_;
  if (sample_every_ > 0.0 && obs::enabled()) {
    obs::sim_sampler().sample(now_);  // delta base for the first window
    schedule_next_sample();
  }
  if (checkpoint_every_ > 0.0 && !checkpoint_path_.empty()) {
    schedule_event(EventKind::kCheckpoint, now_ + checkpoint_every_, gen_);
  }
  schedule_next_arrival();
  return drive();
}

OnlineDaemonReport OnlineDaemon::resume(CoflowSource& source, std::istream& checkpoint) {
  source_ = &source;
  load_checkpoint(source, checkpoint);
  if (sample_every_ > 0.0 && obs::enabled() && !events_.empty()) {
    // Fresh process, fresh metrics registry: re-seed the sampler's delta
    // base, mirroring run()'s pre-roll sample.
    obs::sim_sampler().sample(now_);
  }
  return drive();
}

OnlineDaemonReport OnlineDaemon::drive() {
  interrupted_ = false;
  while (!events_.empty()) {
    run_one();
    if (events_.empty()) break;
    const bool stop_requested = stop_flag_ != nullptr && *stop_flag_ != 0;
    const std::uint64_t scheduling_events = processed_ - sample_events_ - checkpoint_events_;
    if (stop_requested ||
        (stop_after_events_ > 0 && scheduling_events >= stop_after_events_)) {
      interrupted_ = true;
      break;
    }
  }
  source_ = nullptr;

  OnlineDaemonReport report;
  report.stats = core_.stats();
  report.digest = core_.digest();
  report.events = processed_ - sample_events_ - checkpoint_events_;
  report.makespan = last_activity_;
  const DecisionLatencyRecorder& lat = core_.latency();
  report.decisions = lat.count();
  report.decision_p50_us = lat.quantile_us(0.5);
  report.decision_p99_us = lat.quantile_us(0.99);
  report.decision_mean_us = lat.mean_us();
  report.decision_max_us = lat.max_us();
  report.interrupted = interrupted_;
  report.checkpoints_written = checkpoint_writes_;
  return report;
}

void OnlineDaemon::save_checkpoint(std::ostream& out) const {
  SnapshotWriter w;
  core_.save(w);
  w.put_f64(now_);
  w.put_u64(processed_);
  w.put_u64(gen_);
  w.put_f64(plan_base_);
  w.put_bool(running_);
  w.put_bool(arrival_pending_);
  w.put_f64(last_activity_);
  w.put_f64(sample_every_);
  w.put_u64(sample_events_);
  w.put_u64(checkpoint_events_);
  // In run order, (at, seq): re-scheduling in this order hands out fresh
  // sequence numbers that reproduce the saved tie-break order.
  std::vector<Event> pending = events_;
  std::sort(pending.begin(), pending.end(),
            [](const Event& a, const Event& b) { return kRunsLater(b, a); });
  w.put_u64(pending.size());
  for (const Event& e : pending) {
    w.put_u8(static_cast<std::uint8_t>(e.kind));
    w.put_f64(e.at);
    w.put_u64(e.gen);
  }
  w.finish(out, kDaemonMagic, kDaemonVersion);
}

void OnlineDaemon::load_checkpoint(CoflowSource& source, std::istream& in) {
  SnapshotReader r(in, kDaemonMagic, kDaemonVersion, "daemon checkpoint");
  core_.load(r);
  now_ = checked_time(r, "clock");
  processed_ = r.get_u64();
  gen_ = r.get_u64();
  plan_base_ = checked_time(r, "plan base");
  running_ = r.get_bool();
  arrival_pending_ = r.get_bool();
  last_activity_ = checked_time(r, "last-activity time");
  const double saved_sample_every = r.get_f64();
  if (saved_sample_every != sample_every_) {
    throw std::runtime_error(
        "daemon checkpoint: sample_every differs from the saved run");
  }
  sample_events_ = r.get_u64();
  checkpoint_events_ = r.get_u64();
  // Both kinds of tick are among the dispatched events, and the report's
  // event count subtracts them from it.
  if (sample_events_ > processed_ || checkpoint_events_ > processed_ - sample_events_) {
    throw std::runtime_error(
        "daemon checkpoint: sampler and checkpoint ticks exceed the dispatch count");
  }
  const std::uint64_t n_pending = r.get_u64();
  events_.clear();
  next_seq_ = 0;
  const bool checkpointing = checkpoint_every_ > 0.0 && !checkpoint_path_.empty();
  bool checkpoint_chain_live = false;
  for (std::uint64_t k = 0; k < n_pending; ++k) {
    const std::uint8_t raw_kind = r.get_u8();
    if (raw_kind > static_cast<std::uint8_t>(EventKind::kCheckpoint)) {
      throw std::runtime_error("daemon checkpoint: bad pending event kind");
    }
    const auto kind = static_cast<EventKind>(raw_kind);
    const Time at = r.get_f64();
    const std::uint64_t gen = r.get_u64();
    if (!std::isfinite(at) || at < now_ - kTimeEps) {
      throw std::runtime_error(
          "daemon checkpoint: pending event time is not finite or lies before the clock");
    }
    if (gen > gen_) {
      // Once a later cut reached this generation, the event would fire as live.
      throw std::runtime_error(
          "daemon checkpoint: pending event generation is ahead of the daemon's");
    }
    if (kind == EventKind::kCheckpoint) {
      // The periodic chain belongs to the process, not the run: keep the
      // saved tick only if this process is configured to checkpoint too
      // (ticks are excluded from the event count, so dropping one cannot
      // perturb the schedule or the report).
      if (!checkpointing) continue;
      checkpoint_chain_live = true;
    }
    schedule_event(kind, at, gen);
  }
  r.expect_end();
  // Replay the deterministic source past the coflows the saved run already
  // admitted; the next peek() is exactly the next unseen arrival.
  for (std::uint64_t k = 0; k < core_.stats().submitted; ++k) {
    if (source.peek() == nullptr) {
      throw std::runtime_error(
          "daemon checkpoint: coflow source is shorter than the saved run");
    }
    source.pop();
  }
  // The periodic tick that wrote this checkpoint had not yet re-armed its
  // chain when save_checkpoint ran; restore the next tick at the same
  // instant the original run scheduled it.
  if (!checkpoint_chain_live && checkpointing && !events_.empty()) {
    schedule_event(EventKind::kCheckpoint, now_ + checkpoint_every_, gen_);
  }
}

void OnlineDaemon::write_checkpoint_file() {
  const std::string tmp = checkpoint_path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("daemon checkpoint: cannot open " + tmp);
    }
    save_checkpoint(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("daemon checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), checkpoint_path_.c_str()) != 0) {
    throw std::runtime_error("daemon checkpoint: rename failed for " + checkpoint_path_);
  }
  ++checkpoint_writes_;
  if (obs::enabled()) obs::metrics().counter("daemon.checkpoints").inc();
}

std::size_t OnlineDaemon::ingest_until(Time horizon) {
  std::size_t admitted = 0;
  while (const Coflow* c = source_->peek()) {
    if (c->arrival > horizon) break;
    core_.submit(*c);
    source_->pop();
    ++admitted;
  }
  return admitted;
}

void OnlineDaemon::schedule_next_arrival() {
  if (arrival_pending_) return;
  const Coflow* c = source_->peek();
  if (c == nullptr) return;
  arrival_pending_ = true;
  schedule_event(EventKind::kArrival, std::max(c->arrival, now_), gen_);
}

void OnlineDaemon::on_arrival(Time now) {
  last_activity_ = now;
  arrival_pending_ = false;
  // Fresh fabric = nothing live and nothing pending: any other !running_
  // state means a replan event is already queued and will pick this up.
  const bool was_idle = core_.idle() && !running_;
  const std::size_t admitted = ingest_until(now + kTimeEps);
  schedule_next_arrival();
  // An eps-boundary coflow may have been pulled in early by a replan/epoch
  // lookahead; its arrival event then delivers nothing and must not cut.
  if (admitted == 0) return;

  if (running_ && core_.kind() == OnlinePolicyKind::kDrainReplanRecoMul) {
    // Drain-replan: cut the running plan *now*.  Slices already started
    // keep running (the kept prefix); everything else is cancelled and the
    // residual set — plus the newcomer(s) — is replanned once the kept
    // prefix drains, but never before this arrival instant.
    ++gen_;  // orphan the held plan's completion event
    running_ = false;
    const Time epoch_end = core_.commit(now - plan_base_);
    const Time replan_at = std::max(now, plan_base_ + epoch_end);
    if (obs::enabled()) {
      obs::flight_recorder().record("cut", now, static_cast<std::int64_t>(admitted),
                                    replan_at - now);
    }
    schedule_event(EventKind::kReplan, replan_at, gen_);
  } else if (was_idle) {
    start_if_idle(now);
  }
  // running_ under epoch/fifo: newcomers wait for the epoch/serve boundary.
}

void OnlineDaemon::on_replan(Time now, std::uint64_t gen) {
  if (gen != gen_ || running_) return;
  last_activity_ = now;
  // Late-admission boundary: coflows landing within eps of the replan
  // instant join this plan, exactly as the reference loop admits them.
  ingest_until(now + kTimeEps);
  schedule_next_arrival();
  start_if_idle(now);
}

void OnlineDaemon::on_complete(Time now, std::uint64_t gen) {
  if (gen != gen_) return;
  last_activity_ = now;
  running_ = false;
  if (core_.kind() == OnlinePolicyKind::kDrainReplanRecoMul) {
    // No arrival cut this plan: commit it whole.  Every batch coflow
    // drains, so the fabric goes idle until the next arrival event.
    core_.commit(std::numeric_limits<Time>::infinity());
    start_if_idle(now);  // liveness backstop; no-op when idle as expected
  } else {
    // Epoch boundary: admit eps-boundary stragglers, then roll the next
    // epoch immediately if anyone is waiting.
    ingest_until(now + kTimeEps);
    schedule_next_arrival();
    start_if_idle(now);
  }
}

void OnlineDaemon::on_fifo_done(Time now, std::uint64_t gen) {
  if (gen != gen_) return;
  last_activity_ = now;
  running_ = false;
  start_if_idle(now);
}

void OnlineDaemon::on_sample() {
  ++sample_events_;
  if (obs::enabled()) obs::sim_sampler().sample(now_);
  // Any live run keeps >= 1 real event outstanding (an arrival, completion,
  // replan, or fifo_done); none here means the stream drained, so this
  // tick closed the final window and the chain ends with it.
  if (!events_.empty()) schedule_next_sample();
}

void OnlineDaemon::on_checkpoint() {
  ++checkpoint_events_;  // counted before the write so the snapshot includes this tick
  write_checkpoint_file();
  if (!events_.empty()) {
    schedule_event(EventKind::kCheckpoint, now_ + checkpoint_every_, gen_);
  }
}

void OnlineDaemon::schedule_next_sample() {
  schedule_event(EventKind::kSample, now_ + sample_every_, gen_);
}

void OnlineDaemon::start_if_idle(Time now) {
  if (running_ || core_.idle()) return;
  running_ = true;
  if (core_.kind() == OnlinePolicyKind::kFifoRecoSin) {
    const Time done = core_.step_fifo(now);
    schedule_event(EventKind::kFifoDone, std::max(done, now), gen_);
  } else if (core_.kind() == OnlinePolicyKind::kDrainReplanRecoMul) {
    // Plan and *hold*: commit happens either at the cut (an arrival) or at
    // the completion event if nothing interrupts.
    plan_base_ = now;
    const Time makespan = core_.plan(now);
    schedule_event(EventKind::kComplete, now + makespan, gen_);
  } else {
    // Epoch batching is non-preemptive: the whole plan commits up front and
    // the fabric is busy until it drains.
    plan_base_ = now;
    core_.plan(now);
    const Time epoch_end = core_.commit(std::numeric_limits<Time>::infinity());
    schedule_event(EventKind::kComplete, now + epoch_end, gen_);
  }
}

OnlineScheduleResult schedule_online(const std::vector<Coflow>& coflows, OnlinePolicyKind policy,
                                     const OnlineCoreOptions& options) {
  VectorSource source(coflows);
  OnlineDaemonOptions daemon_options;
  daemon_options.core = options;
  OnlineDaemon daemon(policy, daemon_options);
  daemon.reserve(coflows.size());
  daemon.run(source);

  const OnlineCore& core = daemon.core();
  OnlineScheduleResult result;
  result.schedule = core.schedule();
  // The core keys CCTs by admission sequence, which is the source's order.
  const std::vector<Time>& by_seq = core.cct_by_seq();
  result.cct.resize(by_seq.size());
  for (std::size_t s = 0; s < by_seq.size(); ++s) result.cct[source.order()[s]] = by_seq[s];
  result.reconfigurations = core.stats().reconfigurations;
  result.epochs = core.stats().epochs;
  result.total_weighted_cct = core.stats().total_weighted_cct;
  result.digest = core.digest();
  return result;
}

}  // namespace reco::sim
