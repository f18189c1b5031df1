#include "obs/flight_recorder.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stats/csv.hpp"

namespace reco::obs {

namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

void write_event(std::ostream& out, const FlightEvent& e) {
  const auto flags = out.flags();
  out.precision(12);
  out << "{\"seq\": " << e.seq << ", \"t\": " << finite_or_zero(e.t) << ", \"kind\": ";
  write_json_string(out, e.kind);
  out << ", \"id\": " << e.id << ", \"value\": " << finite_or_zero(e.value);
  if (!e.note.empty()) {
    out << ", \"note\": ";
    write_json_string(out, e.note);
  }
  out << "}\n";
  out.flags(flags);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(const char* kind, double t, std::int64_t id, double value,
                            std::string note) {
  std::lock_guard<std::mutex> lock(mu_);
  FlightEvent e;
  e.seq = total_++;
  e.t = t;
  e.kind = kind;
  e.id = id;
  e.value = value;
  e.note = std::move(note);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % capacity_;
  }
}

void FlightRecorder::arm(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
}

bool FlightRecorder::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !path_.empty();
}

std::string FlightRecorder::armed_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

void FlightRecorder::trigger(const char* reason) {
  std::string path;
  std::vector<FlightEvent> events;
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty()) return;
    path = path_;
    events.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      events.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    seq = total_;
  }
  // I/O outside the lock: trigger sites sit on failure paths and must not
  // stall recording threads behind a slow disk.
  try {
    ensure_parent_directory(path);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    for (const FlightEvent& e : events) write_event(out, e);
    FlightEvent marker;
    marker.seq = seq;
    marker.t = 0.0;
    marker.kind = "trigger";
    marker.note = reason;
    write_event(out, marker);
    if (!out) throw std::runtime_error("write failed for " + path);
    dumps_.fetch_add(1, std::memory_order_relaxed);
    if (enabled()) {
      static auto& c = metrics().counter("obs.flight.dumps");
      c.inc();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: flight-recorder dump failed: %s\n", e.what());
  }
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t FlightRecorder::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
}

FlightRecorder& flight_recorder() {
  static FlightRecorder* r = new FlightRecorder();  // leak: outlives atexit flushes
  return *r;
}

}  // namespace reco::obs
