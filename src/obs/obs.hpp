// Telemetry control plane: one global kill switch, one global metrics
// registry, one global tracer, and the file writers that flush them.
//
// The contract with instrumented code:
//
//   if (reco::obs::enabled()) {          // one relaxed load + branch
//     static auto& c = reco::obs::metrics().counter("bvn.rounds");
//     c.inc();
//     reco::obs::tracer().sim_instant("flow.complete", "sim.flow", t, track);
//   }
//
// Telemetry is OFF by default; `init_from_env()` honours RECO_TRACE=1 and
// CLI flags (`--trace-out`, `--metrics-out`) call `set_enabled(true)`.
// Collection never feeds back into scheduling decisions, so schedules are
// byte-identical with telemetry on or off (pinned by
// tests/property/test_telemetry_determinism.cpp).
#pragma once

#include <atomic>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace reco::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// The per-site branch.  Relaxed: sites tolerate seeing a toggle late.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on);

/// Enable iff RECO_TRACE is set to anything but "0"/"" ; returns enabled().
bool init_from_env();

/// Process-wide registry / tracer (created on first use, never destroyed
/// before exit-time flushes).
MetricsRegistry& metrics();
Tracer& tracer();

/// Zero all metric values and drop all trace events (registrations and
/// outstanding handles survive).
void reset();

/// Fold the tracer's drop count into the `obs.trace.dropped_events`
/// counter (monotone: increments by the delta since the last sync).
/// Called by the time-series sampler on every tick and by the exporters,
/// so trace loss is visible wherever metrics are.
void sync_trace_dropped();

/// Flush to disk, creating missing parent directories.  Throws
/// std::runtime_error naming the path on I/O failure.
void save_trace_json(const std::string& path);
void save_metrics_csv(const std::string& path);

/// Register an exit-time flush of whichever paths are non-empty (used by
/// the bench binaries, whose main() belongs to google-benchmark).  Safe to
/// call more than once; the last paths win.
void flush_at_exit(std::string trace_path, std::string metrics_path);

}  // namespace reco::obs
