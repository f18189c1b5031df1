// Metric exposition: Prometheus text format and a JSON time-series dump,
// served live by a minimal HTTP endpoint or written to files for headless
// runs.
//
//   GET /metrics   Prometheus text format 0.0.4: every registry metric
//                  (dots sanitized to underscores, `reco_` prefix;
//                  histograms as cumulative _bucket/_sum/_count) plus the
//                  latest *windowed* statistics from both samplers as
//                  reco_window_* gauges — so a scrape sees "p99 decision
//                  latency over the last window", not just lifetime
//                  cumulative buckets.
//   GET /snapshot  JSON dump of both samplers' rings (wall + sim).
//
// The endpoint is OFF by default and fully out of band: it only *reads*
// registry/sampler state (both are internally synchronized), never blocks
// a scheduling thread, and serving a request cannot perturb a schedule —
// the telemetry-determinism property test runs with the exporter live.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace reco::obs {

/// A metric name sanitized for Prometheus: characters outside
/// [a-zA-Z0-9_:] map to '_', and the result is prefixed with `reco_`.
std::string prometheus_name(const std::string& name);

/// Prometheus text-format exposition (version 0.0.4) of one registry
/// snapshot: `# TYPE` lines, counters as plain samples, histograms
/// as cumulative `_bucket{le="..."}` series ending in `le="+Inf"` plus
/// `_sum` and `_count`.
void write_prometheus_text(std::ostream& out, const MetricsRegistry& registry);

/// The latest window of `sampler` as reco_window_* gauges labelled with
/// the timeline: counter rates (`_per_s`) and histogram percentiles
/// (`_p50` / `_p90` / `_p99`) — the "right now" view.
void write_prometheus_window(std::ostream& out, const TimeSeriesSampler& sampler);

/// The full /metrics page: global registry + both global samplers.
void write_prometheus_page(std::ostream& out);

/// The /snapshot page: {"snapshots": [<wall ring>, <sim ring>]}.
void write_snapshot_json(std::ostream& out);

/// File writers for headless runs (create missing parent directories;
/// throw std::runtime_error naming the path on I/O failure).
void save_prometheus(const std::string& path);
void save_snapshot_json(const std::string& path);

/// Minimal single-connection HTTP/1.0 server on a background thread.
/// Routes: GET /metrics, GET /snapshot (404 otherwise).  Loopback only.
///
/// Hardened against misbehaving clients, since a wedged exporter would
/// outlive the run it observes: every poll/accept/recv/send retries EINTR,
/// requests are read across partial segments until the request line is
/// complete, request size is bounded (kMaxRequestBytes; over-limit clients
/// get 413), sends use MSG_NOSIGNAL (a client hanging up mid-response
/// cannot SIGPIPE the process), and each client gets an idle timeout
/// (default 2 s) on both the read and write side — a client that connects
/// and goes silent, trickles bytes forever, or stops reading the response
/// is dropped at the next timeout and the server moves on.
class MetricsHttpServer {
 public:
  /// Request-line bound: longer requests are answered 413 and dropped.
  static constexpr std::size_t kMaxRequestBytes = 8192;

  MetricsHttpServer() = default;
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port, see port()) and
  /// start serving.  Throws std::runtime_error on socket/bind failure.
  void start(int port);

  /// Stop accepting, close the socket, join the thread.  Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  /// Actual bound port (resolves port 0), valid after start().
  int port() const { return port_; }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Clients dropped for idle timeout / trickling / not reading.
  std::uint64_t clients_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Per-client read/write idle timeout (tests shrink it to keep the
  /// slow-client cases fast).  Applies to clients accepted afterwards.
  void set_client_timeout_ms(int ms) {
    client_timeout_ms_.store(ms, std::memory_order_relaxed);
  }

 private:
  void serve_loop();
  void serve_client(int client);

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<int> client_timeout_ms_{2000};
  std::thread thread_;
};

}  // namespace reco::obs
