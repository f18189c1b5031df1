// Prometheus/JSON exposition and the /metrics HTTP endpoint: name
// sanitization, cumulative bucket encoding, windowed gauges, file
// writers, and a live loopback round-trip.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"

namespace reco::obs {
namespace {

class FreshRegistry {
 public:
  FreshRegistry() { obs::reset(); }
  ~FreshRegistry() { obs::reset(); }
};

/// Minimal blocking HTTP/1.0 GET against 127.0.0.1:`port`; returns the
/// full response (status line + headers + body), empty on connect failure.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST(PrometheusName, SanitizesAndPrefixes) {
  EXPECT_EQ(prometheus_name("online.decision_latency_us"), "reco_online_decision_latency_us");
  EXPECT_EQ(prometheus_name("bvn.peel.aborts"), "reco_bvn_peel_aborts");
  EXPECT_EQ(prometheus_name("weird-name 2"), "reco_weird_name_2");
  EXPECT_EQ(prometheus_name("ok_name:sub"), "reco_ok_name:sub");
}

TEST(PrometheusText, EncodesCountersAndCumulativeBuckets) {
  FreshRegistry fresh;
  metrics().counter("exp.test.events").inc(7.0);
  Histogram& h = metrics().histogram("exp.test.lat", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  h.observe(100.0);  // overflow

  std::ostringstream out;
  write_prometheus_text(out, metrics());
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE reco_exp_test_events counter\nreco_exp_test_events 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE reco_exp_test_lat histogram"), std::string::npos);
  // Cumulative buckets: 1 obs <= 1, 2 <= 2, 3 <= 4, 4 <= +Inf == count.
  EXPECT_NE(text.find("reco_exp_test_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("reco_exp_test_lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("reco_exp_test_lat_bucket{le=\"4\"} 3"), std::string::npos);
  EXPECT_NE(text.find("reco_exp_test_lat_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("reco_exp_test_lat_sum 105"), std::string::npos);
  EXPECT_NE(text.find("reco_exp_test_lat_count 4"), std::string::npos);
}

TEST(PrometheusWindow, ExposesLatestWindowAsLabelledGauges) {
  FreshRegistry fresh;
  Counter& c = metrics().counter("exp.test.replans");
  Histogram& h = metrics().histogram("exp.test.decide_us", {1.0, 2.0, 4.0, 8.0});
  TimeSeriesSampler sampler("testwin");
  sampler.sample(0.0);
  c.inc(10.0);
  for (int i = 0; i < 4; ++i) h.observe(3.0);
  sampler.sample(2.0);

  std::ostringstream out;
  write_prometheus_window(out, sampler);
  const std::string text = out.str();
  EXPECT_NE(text.find("reco_window_seconds{timeline=\"testwin\"} 2"), std::string::npos);
  EXPECT_NE(text.find("reco_window_exp_test_replans_per_s{timeline=\"testwin\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("reco_window_exp_test_decide_us_per_s{timeline=\"testwin\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("reco_window_exp_test_decide_us_p99{timeline=\"testwin\"}"),
            std::string::npos);
}

TEST(PrometheusWindow, EmptySamplerWritesNothing) {
  FreshRegistry fresh;
  TimeSeriesSampler sampler("testwin");
  std::ostringstream out;
  write_prometheus_window(out, sampler);
  EXPECT_TRUE(out.str().empty());
}

TEST(ExportFiles, SaversCreateParseableArtifacts) {
  FreshRegistry fresh;
  metrics().counter("exp.test.saved").inc(3.0);
  const std::string prom_path = "export_test_out/metrics.prom";
  const std::string snap_path = "export_test_out/snapshot.json";
  save_prometheus(prom_path);
  save_snapshot_json(snap_path);

  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_NE(prom_text.str().find("reco_exp_test_saved 3"), std::string::npos);

  std::ifstream snap(snap_path);
  ASSERT_TRUE(snap.good());
  std::stringstream snap_text;
  snap_text << snap.rdbuf();
  const std::string json = snap_text.str();
  EXPECT_EQ(json.rfind("{\"snapshots\": [", 0), 0u);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  std::remove(prom_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(MetricsHttpServer, ServesMetricsSnapshotAnd404OnLoopback) {
  FreshRegistry fresh;
  metrics().counter("exp.test.http").inc(42.0);

  MetricsHttpServer server;
  server.start(0);  // ephemeral
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string metrics_page = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics_page.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics_page.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics_page.find("# TYPE reco_exp_test_http counter"), std::string::npos);
  EXPECT_NE(metrics_page.find("reco_exp_test_http 42"), std::string::npos);

  const std::string snapshot_page = http_get(server.port(), "/snapshot");
  EXPECT_NE(snapshot_page.find("200 OK"), std::string::npos);
  EXPECT_NE(snapshot_page.find("application/json"), std::string::npos);
  EXPECT_NE(snapshot_page.find("{\"snapshots\": ["), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(MetricsHttpServer, StopJoinsAndPortIsReusable) {
  FreshRegistry fresh;
  int port = 0;
  {
    MetricsHttpServer server;
    server.start(0);
    port = server.port();
    server.stop();
  }
  // The listener is closed: a second server can bind a fresh ephemeral
  // port, and connecting to the old one no longer yields a response.
  MetricsHttpServer second;
  second.start(0);
  EXPECT_TRUE(second.running());
  EXPECT_GT(second.port(), 0);
  EXPECT_NE(second.port(), 0);
  (void)port;
  second.stop();
}

/// Raw loopback connection for the misbehaving-client tests.
int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string read_all(int fd) {
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    response.append(buf, static_cast<std::size_t>(got));
  }
  return response;
}

TEST(MetricsHttpServer, ServesRequestsArrivingInPartialSegments) {
  FreshRegistry fresh;
  metrics().counter("exp.partial.segments").inc(5.0);
  MetricsHttpServer server;
  server.start(0);

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  // A legal-but-annoying client: the request line lands in three segments.
  for (const char* piece : {"GET /met", "rics HTT", "P/1.0\r\n\r\n"}) {
    ASSERT_GT(::send(fd, piece, std::strlen(piece), 0), 0);
    usleep(10 * 1000);
  }
  const std::string response = read_all(fd);
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("reco_exp_partial_segments 5"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.clients_dropped(), 0u);
  server.stop();
}

TEST(MetricsHttpServer, SilentClientIsDroppedAndServiceContinues) {
  FreshRegistry fresh;
  MetricsHttpServer server;
  server.set_client_timeout_ms(100);
  server.start(0);

  // Connect and send nothing: the server must cut us loose at the idle
  // timeout instead of wedging its accept loop forever.
  const int mute = connect_to(server.port());
  ASSERT_GE(mute, 0);
  char byte;
  const ssize_t got = ::recv(mute, &byte, 1, 0);  // blocks until the server closes
  EXPECT_LE(got, 0);
  ::close(mute);
  EXPECT_GE(server.clients_dropped(), 1u);

  // The next well-behaved scrape is unaffected.
  const std::string after = http_get(server.port(), "/metrics");
  EXPECT_NE(after.find("200 OK"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 1u);
  server.stop();
}

TEST(MetricsHttpServer, OversizedRequestGets413) {
  FreshRegistry fresh;
  MetricsHttpServer server;
  server.start(0);

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  // A "request line" that never ends: more than kMaxRequestBytes without a
  // newline must be answered 413, not buffered without bound.
  const std::string flood(MetricsHttpServer::kMaxRequestBytes + 1000, 'A');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // server may already have responded and closed
    sent += static_cast<std::size_t>(n);
  }
  const std::string response = read_all(fd);
  ::close(fd);
  EXPECT_NE(response.find("413"), std::string::npos);

  // Still serving.
  const std::string after = http_get(server.port(), "/metrics");
  EXPECT_NE(after.find("200 OK"), std::string::npos);
  server.stop();
}

TEST(MetricsHttpServer, ClientHangingUpMidResponseDoesNotKillTheProcess) {
  FreshRegistry fresh;
  // A big registry makes the response span multiple sends.
  for (int i = 0; i < 400; ++i) {
    metrics().counter("exp.hangup.metric_" + std::to_string(i)).inc(1.0);
  }
  MetricsHttpServer server;
  server.start(0);
  for (int round = 0; round < 3; ++round) {
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    const char* request = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(fd, request, std::strlen(request), 0), 0);
    ::close(fd);  // hang up without reading the response
  }
  // If any of those closes raised SIGPIPE, the process is already gone; a
  // live scrape proves the server absorbed them.
  const std::string after = http_get(server.port(), "/metrics");
  EXPECT_NE(after.find("200 OK"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace reco::obs
