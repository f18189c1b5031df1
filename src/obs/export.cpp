#include "obs/export.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "stats/csv.hpp"

namespace reco::obs {

namespace {

/// Prometheus sample values: plain floats, with the spec's spellings for
/// the non-finite cases ("+Inf"/"-Inf"/"NaN").
void write_prom_value(std::ostream& out, double v) {
  if (std::isnan(v)) {
    out << "NaN";
  } else if (std::isinf(v)) {
    out << (v > 0 ? "+Inf" : "-Inf");
  } else {
    const auto flags = out.flags();
    out.precision(12);
    out << v;
    out.flags(flags);
  }
}

void write_prom_sample(std::ostream& out, const std::string& name, const char* labels,
                       double value) {
  out << name << labels << ' ';
  write_prom_value(out, value);
  out << '\n';
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "reco_";
  out.reserve(name.size() + 5);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prometheus_text(std::ostream& out, const MetricsRegistry& registry) {
  const RegistrySnapshot snap = registry.structured_snapshot();
  for (const MetricSample& c : snap.counters) {
    const std::string name = prometheus_name(c.name);
    out << "# TYPE " << name << " counter\n";
    write_prom_sample(out, name, "", c.value);
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    const std::string name = prometheus_name(h.name);
    out << "# TYPE " << name << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t k = 0; k < h.bounds.size(); ++k) {
      cum += h.counts[k];
      out << name << "_bucket{le=\"";
      write_prom_value(out, h.bounds[k]);
      out << "\"} " << cum << '\n';
    }
    cum += h.counts[h.bounds.size()];
    out << name << "_bucket{le=\"+Inf\"} " << cum << '\n';
    write_prom_sample(out, name + "_sum", "", h.sum);
    out << name << "_count " << h.count << '\n';
  }
}

void write_prometheus_window(std::ostream& out, const TimeSeriesSampler& sampler) {
  const SamplePoint latest = sampler.latest();
  if (latest.stats.empty() || latest.window <= 0.0) return;
  const std::string label = "{timeline=\"" + sampler.timeline() + "\"}";
  const auto gauge = [&](const std::string& name, double value) {
    out << "# TYPE " << name << " gauge\n";
    write_prom_sample(out, name, label.c_str(), value);
  };
  gauge("reco_window_seconds", latest.window);
  gauge("reco_window_end", latest.t);
  for (const WindowStat& w : latest.stats) {
    const std::string base = "reco_window_" + prometheus_name(w.name).substr(5);
    if (w.kind == "counter") {
      gauge(base + "_per_s", w.rate);
    } else if (w.kind == "histogram") {
      gauge(base + "_per_s", w.rate);
      if (w.window_count > 0) {
        gauge(base + "_p50", w.p50);
        gauge(base + "_p90", w.p90);
        gauge(base + "_p99", w.p99);
      }
    }
  }
}

void write_prometheus_page(std::ostream& out) {
  sync_trace_dropped();
  write_prometheus_text(out, metrics());
  write_prometheus_window(out, wall_sampler());
  write_prometheus_window(out, sim_sampler());
}

void write_snapshot_json(std::ostream& out) {
  out << "{\"snapshots\": [";
  wall_sampler().write_json(out);
  out << ", ";
  sim_sampler().write_json(out);
  out << "]}";
}

void save_prometheus(const std::string& path) {
  ensure_parent_directory(path);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_prometheus: cannot open " + path);
  write_prometheus_page(out);
  if (!out) throw std::runtime_error("save_prometheus: write failed for " + path);
}

void save_snapshot_json(const std::string& path) {
  ensure_parent_directory(path);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_snapshot_json: cannot open " + path);
  write_snapshot_json(out);
  if (!out) throw std::runtime_error("save_snapshot_json: write failed for " + path);
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::start(int port) {
  if (running_.load(std::memory_order_relaxed)) {
    throw std::logic_error("MetricsHttpServer: already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("MetricsHttpServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("MetricsHttpServer: cannot bind 127.0.0.1:" +
                             std::to_string(port) + " (" + std::strerror(err) + ")");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  stop_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
}

void MetricsHttpServer::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_relaxed);
}

namespace {

/// poll() retrying EINTR; returns poll's result (0 = timeout, < 0 = error).
int poll_retry(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  int r;
  do {
    r = ::poll(&pfd, 1, timeout_ms);
  } while (r < 0 && errno == EINTR);
  return r;
}

}  // namespace

void MetricsHttpServer::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int ready = poll_retry(listen_fd_, POLLIN, 200);  // 200 ms stop granularity
    if (ready <= 0) continue;
    int client;
    do {
      client = ::accept(listen_fd_, nullptr, nullptr);
    } while (client < 0 && errno == EINTR);
    if (client < 0) continue;
    serve_client(client);
    ::close(client);
  }
}

void MetricsHttpServer::serve_client(int client) {
  const int timeout_ms = client_timeout_ms_.load(std::memory_order_relaxed);

  // Read until the request line is complete (a well-behaved scraper sends
  // it in one segment, but partial delivery is legal), bounding both the
  // total size and the time we are willing to wait on one client.
  std::string request;
  bool oversized = false;
  while (request.find('\n') == std::string::npos) {
    if (request.size() >= kMaxRequestBytes) {
      oversized = true;
      break;
    }
    if (poll_retry(client, POLLIN, timeout_ms) <= 0) {
      // Idle/trickling client (or poll error): drop it, never wedge.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    char buf[2048];
    ssize_t got;
    do {
      got = ::recv(client, buf, sizeof(buf), 0);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) {
      // Peer closed (or hard error) before finishing the request line.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    request.append(buf, static_cast<std::size_t>(got));
  }

  // Request line: METHOD SP target SP version.  Only GET is routed.
  std::string target;
  if (!oversized) {
    const std::size_t sp1 = request.find(' ');
    const std::size_t sp2 = sp1 != std::string::npos ? request.find(' ', sp1 + 1)
                                                     : std::string::npos;
    if (sp2 != std::string::npos && request.compare(0, 4, "GET ") == 0) {
      target = request.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }

  std::ostringstream body;
  const char* status = "200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  if (oversized) {
    status = "413 Content Too Large";
    content_type = "text/plain; charset=utf-8";
    body << "413: request exceeds " << kMaxRequestBytes << " bytes\n";
  } else if (target == "/metrics") {
    write_prometheus_page(body);
  } else if (target == "/snapshot") {
    write_snapshot_json(body);
    content_type = "application/json";
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body << "404: routes are GET /metrics and GET /snapshot\n";
  }

  const std::string payload = body.str();
  std::ostringstream head;
  head << "HTTP/1.0 " << status << "\r\nContent-Type: " << content_type
       << "\r\nContent-Length: " << payload.size() << "\r\nConnection: close\r\n\r\n";
  const std::string response = head.str() + payload;
  std::size_t sent = 0;
  while (sent < response.size()) {
    if (poll_retry(client, POLLOUT, timeout_ms) <= 0) {
      // Client stopped reading: drop the rest of the response.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ssize_t n;
    do {
      // MSG_NOSIGNAL: a client hanging up mid-response must surface as
      // EPIPE here, not SIGPIPE the whole process.
      n = ::send(client, response.data() + sent, response.size() - sent, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace reco::obs
