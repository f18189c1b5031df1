#include "sched/online_core.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "ocs/all_stop_executor.hpp"
#include "sched/reco_sin.hpp"

namespace reco {

namespace {

/// online.* instruments, bound once per process (stable handles; every
/// record gated on obs::enabled() at the call site).
struct OnlineMetrics {
  obs::Counter& submitted = obs::metrics().counter("online.submitted");
  obs::Counter& finished = obs::metrics().counter("online.finished");
  obs::Counter& plans = obs::metrics().counter("online.plans");
  obs::Counter& commits = obs::metrics().counter("online.commits");
  obs::Counter& emitted_slices = obs::metrics().counter("online.emitted_slices");
  obs::Counter& reconfigurations = obs::metrics().counter("online.reconfigurations");
  obs::Counter& alloc_events = obs::metrics().counter("online.alloc_events");
  obs::Counter& slot_reuses = obs::metrics().counter("online.slot_reuses");
  obs::Histogram& decision_latency_us =
      obs::metrics().histogram("online.decision_latency_us", obs::pow2_buckets(1048576.0));
  obs::Histogram& batch_size =
      obs::metrics().histogram("online.batch_size", obs::pow2_buckets(65536.0));

  static OnlineMetrics& get() {
    static OnlineMetrics m;
    return m;
  }
};

using LatencyClock = std::chrono::steady_clock;

double elapsed_us(LatencyClock::time_point since) {
  return std::chrono::duration<double, std::micro>(LatencyClock::now() - since).count();
}

}  // namespace

void DecisionLatencyRecorder::record_us(double us) {
  if (us < 0.0) us = 0.0;
  std::size_t k = 0;
  double bound = 1.0;
  while (k + 1 < kBuckets && us > bound) {
    bound *= 2.0;
    ++k;
  }
  ++buckets_[k];
  min_us_ = count_ == 0 ? us : std::min(min_us_, us);
  ++count_;
  sum_us_ += us;
  max_us_ = std::max(max_us_, us);
}

double DecisionLatencyRecorder::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  static const std::vector<double> bounds = [] {
    std::vector<double> b(kBuckets);
    double bound = 1.0;
    for (std::size_t k = 0; k < kBuckets; ++k, bound *= 2.0) b[k] = bound;
    return b;
  }();
  // quantile_from_buckets wants a trailing overflow slot; record_us clamps
  // into the last bucket, so overflow is always empty.
  std::array<std::uint64_t, kBuckets + 1> counts{};
  std::copy(buckets_.begin(), buckets_.end(), counts.begin());
  return obs::quantile_from_buckets(bounds, counts.data(), q, min_us_, max_us_);
}

OnlineCore::OnlineCore(OnlinePolicyKind kind, const OnlineCoreOptions& options)
    : kind_(kind), options_(options) {
  if (options_.ordering == OrderingPolicy::kLp) {
    throw std::invalid_argument(
        "OnlineCore: the LP ordering cannot order residuals; use BSSI or SEBF");
  }
}

void OnlineCore::reserve(std::size_t expected_coflows) {
  if (options_.record_cct) cct_.reserve(expected_coflows);
  // Slot count tracks peak concurrency, not stream length; a modest reserve
  // avoids the early doubling churn without guessing the peak.
  slots_.reserve(std::min<std::size_t>(expected_coflows, 256));
  free_slots_.reserve(slots_.capacity());
  live_slots_.reserve(slots_.capacity());
  note_footprint();
}

std::uint64_t OnlineCore::submit(const Coflow& coflow) {
  const std::uint64_t seq = stats_.submitted++;
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].residual.assign(coflow.demand);  // capacity-reusing re-seat
    ++stats_.slot_reuses;
    if (obs::enabled()) OnlineMetrics::get().slot_reuses.inc();
  } else {
    slot = static_cast<int>(slots_.size());
    slots_.emplace_back();
    // An index's arena holds every n x n shape, so re-seating this slot
    // never allocates.
    slots_[slot].residual = SupportIndex(coflow.demand);
  }
  Slot& s = slots_[slot];
  s.id = coflow.id;
  s.seq = seq;
  s.weight = coflow.weight;
  s.arrival = coflow.arrival;
  s.last_end = 0.0;
  live_slots_.push_back(slot);
  stats_.peak_live = std::max<std::uint64_t>(stats_.peak_live, live_slots_.size());
  stats_.demand_total += coflow.demand.total();
  if (options_.record_cct) cct_.push_back(0.0);
  if (obs::enabled()) {
    OnlineMetrics::get().submitted.inc();
    obs::flight_recorder().record("admission", coflow.arrival,
                                  static_cast<std::int64_t>(coflow.id), coflow.demand.total());
  }
  note_footprint();
  return seq;
}

Time OnlineCore::plan(Time now) {
  if (kind_ == OnlinePolicyKind::kFifoRecoSin) {
    throw std::logic_error("OnlineCore::plan: serialized policy plans via step_fifo");
  }
  if (has_plan_) throw std::logic_error("OnlineCore::plan: previous plan not committed");
  if (live_slots_.empty()) throw std::logic_error("OnlineCore::plan: nothing live to plan");
  obs::ScopedSpan span("online.plan", "online");
  span.arg("batch", static_cast<double>(live_slots_.size()));

  const auto t0 = LatencyClock::now();
  const std::size_t batch = live_slots_.size();
  batch_slots_.assign(live_slots_.begin(), live_slots_.end());
  batch_residuals_.resize(batch);
  batch_weights_.resize(batch);
  batch_ids_.resize(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const Slot& s = slots_[batch_slots_[b]];
    batch_residuals_[b] = &s.residual;
    batch_weights_[b] = s.weight;
    batch_ids_[b] = static_cast<CoflowId>(b);  // local id == batch position
  }

  order_residuals_into(batch_residuals_, batch_weights_, options_.ordering, ordering_scratch_,
                       order_);
  packet_schedule_into(batch_residuals_, batch_ids_, order_, packet_scratch_, packet_);
  reco_mul_transform_into(packet_, options_.delta, options_.c_threshold, mul_scratch_, plan_);

  const double us = elapsed_us(t0);
  latency_.record_us(us);
  ++stats_.plans;
  has_plan_ = true;
  base_ = now;
  if (obs::enabled()) {
    OnlineMetrics::get().plans.inc();
    OnlineMetrics::get().decision_latency_us.observe(us);
    OnlineMetrics::get().batch_size.observe(static_cast<double>(batch));
    obs::flight_recorder().record("plan", now, static_cast<std::int64_t>(batch), us);
  }
  span.arg("slices", static_cast<double>(plan_.real.size()));
  return makespan(plan_.real);
}

Time OnlineCore::commit(Time cut_local) {
  if (!has_plan_) throw std::logic_error("OnlineCore::commit: no plan outstanding");
  obs::ScopedSpan span("online.commit", "online");

  Time epoch_end = 0.0;
  std::uint64_t kept = 0;
  for (std::size_t f = 0; f < plan_.real.size(); ++f) {
    const FlowSlice& s = plan_.real[f];
    if (s.start > cut_local + kTimeEps) continue;  // not started by the cut: cancel
    Slot& slot = slots_[batch_slots_[s.coflow]];
    emit_slice(s.start + base_, s.end + base_, s.src, s.dst, slot.id);
    // Transmitted volume is the *pseudo* duration (the real slice is
    // stretched by all-stop halts, which move no data).  Accounting uses
    // the exact residual decrement, so delivered + outstanding == submitted
    // even when clamp_zero snaps the last crumbs (the conservation
    // invariant of the drain-replan bugfix sweep).
    const double before = slot.residual.at(s.src, s.dst);
    const double after = clamp_zero(before - plan_.pseudo[f].duration());
    slot.residual.set(s.src, s.dst, after);
    stats_.delivered_total += before - slot.residual.at(s.src, s.dst);
    slot.last_end = std::max(slot.last_end, base_ + s.end);
    epoch_end = std::max(epoch_end, s.end);
    ++kept;
  }

  // Reconfigurations implied by the slices actually emitted: distinct start
  // batches among the kept *real* slices.  (The historical path counted
  // pseudo-axis batches — against a real-axis cut in drain-replan mode —
  // which drifts from what the emitted SliceSchedule implies.)  Real starts
  // ascend along the plan's order, so the kept slices are its first `kept`
  // entries, already sorted.  Epoch bases advance by at least one delta
  // between commits, so per-commit batch counts sum to exactly
  // count_reconfigurations(schedule()).
  int reconfs = 0;
  Time prev_start = 0.0;
  for (std::size_t k = 0; k < kept; ++k) {
    const Time start = plan_.real[plan_.order[k]].start + base_;
    if (k == 0 || !approx_eq(prev_start, start)) ++reconfs;
    prev_start = start;
  }
  stats_.reconfigurations += reconfs;
  ++stats_.commits;
  ++stats_.epochs;

  // Finish pass: a batch coflow is done when its residual has drained to
  // below the service quantum.  Single-pass flag compaction keeps the live
  // list in admission order without the old O(B^2) find-and-erase.
  finished_flags_.assign(slots_.size(), 0);
  bool any_finished = false;
  for (const int slot_idx : batch_slots_) {
    Slot& slot = slots_[slot_idx];
    if (slot.residual.max_entry() < kMinServiceQuantum) {
      finished_flags_[slot_idx] = 1;
      any_finished = true;
      finish_slot(slot_idx, std::max(slot.last_end, slot.arrival));
    }
  }
  if (any_finished) {
    std::size_t out = 0;
    for (const int slot_idx : live_slots_) {
      if (!finished_flags_[slot_idx]) live_slots_[out++] = slot_idx;
    }
    live_slots_.resize(out);
  }

  has_plan_ = false;
  if (obs::enabled()) {
    OnlineMetrics::get().commits.inc();
    OnlineMetrics::get().emitted_slices.inc(static_cast<double>(kept));
    OnlineMetrics::get().reconfigurations.inc(static_cast<double>(reconfs));
    obs::flight_recorder().record("commit", base_, static_cast<std::int64_t>(kept),
                                  static_cast<double>(reconfs));
  }
  span.arg("kept_slices", static_cast<double>(kept));
  span.arg("reconfigurations", static_cast<double>(reconfs));
  note_footprint();
  return epoch_end;
}

Time OnlineCore::step_fifo(Time now) {
  if (kind_ != OnlinePolicyKind::kFifoRecoSin) {
    throw std::logic_error("OnlineCore::step_fifo: batch policy steps via plan/commit");
  }
  if (live_slots_.empty()) return now;
  obs::ScopedSpan span("online.step_fifo", "online");

  const int slot_idx = live_slots_.front();
  Slot& slot = slots_[slot_idx];
  const Time start = std::max(now, slot.arrival);

  const auto t0 = LatencyClock::now();
  const Matrix& demand = slot.residual.matrix();
  const Time before_total = demand.total();
  const CircuitSchedule cs = reco_sin(demand, options_.delta);
  step_slices_.clear();
  const ExecutionResult exec =
      execute_all_stop(cs, demand, options_.delta, start, slot.id, &step_slices_);
  const double us = elapsed_us(t0);
  latency_.record_us(us);

  for (const FlowSlice& s : step_slices_) emit_slice(s.start, s.end, s.src, s.dst, s.coflow);
  // Distinct start batches among the emitted slices (the executor appends
  // in establishment order, so starts are non-decreasing).
  int reconfs = 0;
  for (std::size_t k = 0; k < step_slices_.size(); ++k) {
    if (k == 0 || !approx_eq(step_slices_[k - 1].start, step_slices_[k].start)) ++reconfs;
  }
  stats_.reconfigurations += reconfs;
  stats_.delivered_total += before_total - exec.residual.total();
  ++stats_.plans;

  const Time done_at = start + exec.cct;
  slot.last_end = done_at;
  finish_slot(slot_idx, done_at);
  live_slots_.erase(live_slots_.begin());

  if (obs::enabled()) {
    OnlineMetrics::get().plans.inc();
    OnlineMetrics::get().decision_latency_us.observe(us);
    OnlineMetrics::get().emitted_slices.inc(static_cast<double>(step_slices_.size()));
    OnlineMetrics::get().reconfigurations.inc(static_cast<double>(reconfs));
  }
  span.arg("slices", static_cast<double>(step_slices_.size()));
  note_footprint();
  return done_at;
}

Time OnlineCore::outstanding() const {
  Time total = 0.0;
  for (const int slot_idx : live_slots_) {
    const SupportIndex& r = slots_[slot_idx].residual;
    for (int i = 0; i < r.n(); ++i) total += r.row_sum_exact(i);
  }
  return total;
}

std::size_t OnlineCore::capacity_footprint() const {
  std::size_t total = slots_.capacity() + free_slots_.capacity() + live_slots_.capacity() +
                      batch_slots_.capacity() + batch_residuals_.capacity() +
                      batch_weights_.capacity() + batch_ids_.capacity() + order_.capacity() +
                      packet_.capacity() + plan_.pseudo.capacity() + plan_.real.capacity() +
                      plan_.order.capacity() + finished_flags_.capacity() +
                      step_slices_.capacity() + schedule_.capacity() + cct_.capacity();
  total += ordering_scratch_.capacity_footprint();
  total += packet_scratch_.capacity_footprint();
  total += mul_scratch_.capacity_footprint();
  for (const Slot& s : slots_) total += s.residual.capacity_footprint();
  return total;
}

void OnlineCore::emit_slice(Time start, Time end, PortId src, PortId dst, CoflowId id) {
  const auto mix = [this](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      digest_ ^= (x >> (8 * b)) & 0xffULL;
      digest_ *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  mix(std::bit_cast<std::uint64_t>(start));
  mix(std::bit_cast<std::uint64_t>(end));
  mix(static_cast<std::uint64_t>(src));
  mix(static_cast<std::uint64_t>(dst));
  mix(static_cast<std::uint64_t>(id));
  ++stats_.emitted_slices;
  if (options_.record_schedule) schedule_.push_back({start, end, src, dst, id});
}

void OnlineCore::finish_slot(int slot, Time done_at) {
  Slot& s = slots_[slot];
  // CCT measured from arrival, clamped non-negative: boundary admissions
  // (arrival <= clock + eps) could historically report a CCT of -eps.
  const Time cct = std::max(0.0, done_at - s.arrival);
  if (options_.record_cct) cct_[s.seq] = cct;
  stats_.total_weighted_cct += s.weight * cct;
  ++stats_.finished;
  free_slots_.push_back(slot);
  if (obs::enabled()) OnlineMetrics::get().finished.inc();
}

void DecisionLatencyRecorder::save(SnapshotWriter& out) const {
  for (const std::uint64_t b : buckets_) out.put_u64(b);
  out.put_u64(count_);
  out.put_f64(sum_us_);
  out.put_f64(min_us_);
  out.put_f64(max_us_);
}

void DecisionLatencyRecorder::load(SnapshotReader& in) {
  for (std::uint64_t& b : buckets_) b = in.get_u64();
  count_ = in.get_u64();
  sum_us_ = in.get_f64();
  min_us_ = in.get_f64();
  max_us_ = in.get_f64();
}

void OnlineCore::save(SnapshotWriter& out) const {
  out.put_u8(static_cast<std::uint8_t>(kind_));
  out.put_f64(options_.delta);
  out.put_f64(options_.c_threshold);
  out.put_u8(static_cast<std::uint8_t>(options_.ordering));
  out.put_bool(options_.record_schedule);
  out.put_bool(options_.record_cct);

  out.put_u64(slots_.size());
  for (const Slot& s : slots_) {
    out.put_i32(s.id);
    out.put_u64(s.seq);
    out.put_f64(s.weight);
    out.put_f64(s.arrival);
    out.put_f64(s.last_end);
    save_support_index(out, s.residual);
  }
  out.put_u64(free_slots_.size());
  for (const int slot : free_slots_) out.put_i32(slot);
  out.put_u64(live_slots_.size());
  for (const int slot : live_slots_) out.put_i32(slot);

  out.put_bool(has_plan_);
  out.put_f64(base_);

  out.put_u64(stats_.submitted);
  out.put_u64(stats_.finished);
  out.put_u64(stats_.plans);
  out.put_u64(stats_.commits);
  out.put_u64(stats_.emitted_slices);
  out.put_u64(stats_.slot_reuses);
  out.put_u64(stats_.alloc_events);
  out.put_u64(stats_.peak_live);
  out.put_i32(stats_.reconfigurations);
  out.put_i32(stats_.epochs);
  out.put_f64(stats_.demand_total);
  out.put_f64(stats_.delivered_total);
  out.put_f64(stats_.total_weighted_cct);

  latency_.save(out);
  out.put_u64(digest_);

  out.put_u64(cct_.size());
  for (const Time t : cct_) out.put_f64(t);
  out.put_u64(schedule_.size());
  for (const FlowSlice& s : schedule_) {
    out.put_f64(s.start);
    out.put_f64(s.end);
    out.put_i32(s.src);
    out.put_i32(s.dst);
    out.put_i32(s.coflow);
  }
  out.put_u64(footprint_high_water_);
}

void OnlineCore::load(SnapshotReader& in) {
  const auto kind = in.get_u8();
  if (kind != static_cast<std::uint8_t>(kind_)) {
    throw std::runtime_error("OnlineCore::load: checkpoint was written with a different policy");
  }
  const double delta = in.get_f64();
  const double c_threshold = in.get_f64();
  const auto ordering = in.get_u8();
  const bool record_schedule = in.get_bool();
  const bool record_cct = in.get_bool();
  if (delta != options_.delta || c_threshold != options_.c_threshold ||
      ordering != static_cast<std::uint8_t>(options_.ordering) ||
      record_schedule != options_.record_schedule || record_cct != options_.record_cct) {
    throw std::runtime_error("OnlineCore::load: checkpoint was written with different options");
  }

  const std::uint64_t slot_count = in.get_u64();
  slots_.clear();
  slots_.reserve(slot_count);
  for (std::uint64_t k = 0; k < slot_count; ++k) {
    Slot s;
    s.id = in.get_i32();
    s.seq = in.get_u64();
    s.weight = in.get_f64();
    s.arrival = in.get_f64();
    s.last_end = in.get_f64();
    s.residual = load_support_index(in);
    slots_.push_back(std::move(s));
  }
  const auto read_slot_list = [&](std::vector<int>& list) {
    const std::uint64_t count = in.get_u64();
    list.clear();
    list.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      const int slot = in.get_i32();
      if (slot < 0 || static_cast<std::uint64_t>(slot) >= slot_count) {
        throw std::runtime_error("OnlineCore::load: slot index out of range");
      }
      list.push_back(slot);
    }
  };
  read_slot_list(free_slots_);
  read_slot_list(live_slots_);

  const bool had_plan = in.get_bool();
  const Time base = in.get_f64();

  stats_.submitted = in.get_u64();
  stats_.finished = in.get_u64();
  stats_.plans = in.get_u64();
  stats_.commits = in.get_u64();
  stats_.emitted_slices = in.get_u64();
  stats_.slot_reuses = in.get_u64();
  stats_.alloc_events = in.get_u64();
  stats_.peak_live = in.get_u64();
  stats_.reconfigurations = in.get_i32();
  stats_.epochs = in.get_i32();
  stats_.demand_total = in.get_f64();
  stats_.delivered_total = in.get_f64();
  stats_.total_weighted_cct = in.get_f64();

  latency_.load(in);
  digest_ = in.get_u64();

  const std::uint64_t cct_count = in.get_u64();
  cct_.clear();
  cct_.reserve(cct_count);
  for (std::uint64_t k = 0; k < cct_count; ++k) cct_.push_back(in.get_f64());
  const std::uint64_t slice_count = in.get_u64();
  schedule_.clear();
  schedule_.reserve(slice_count);
  for (std::uint64_t k = 0; k < slice_count; ++k) {
    FlowSlice s;
    s.start = in.get_f64();
    s.end = in.get_f64();
    s.src = in.get_i32();
    s.dst = in.get_i32();
    s.coflow = in.get_i32();
    schedule_.push_back(s);
  }
  footprint_high_water_ = in.get_u64();

  has_plan_ = false;
  if (had_plan) {
    // Rebuild the outstanding plan by re-running the pipeline on the
    // restored residuals.  plan() is a pure function of the live set
    // (residuals only move in commit()), so plan_/packet_/order_ come back
    // bit-identical; its stats/latency side effects are then undone so the
    // restored totals stand.
    const OnlineCoreStats saved_stats = stats_;
    const DecisionLatencyRecorder saved_latency = latency_;
    plan(base);
    stats_ = saved_stats;
    latency_ = saved_latency;
  }
}

void OnlineCore::note_footprint() {
  const std::size_t footprint = capacity_footprint();
  if (footprint > footprint_high_water_) {
    footprint_high_water_ = footprint;
    ++stats_.alloc_events;
    if (obs::enabled()) OnlineMetrics::get().alloc_events.inc();
  }
}

}  // namespace reco
