#include "obs/trace.hpp"

#include <cstdio>
#include <ostream>

#include "obs/obs.hpp"

namespace reco::obs {

namespace {

constexpr std::size_t kDefaultCapacity = 1u << 20;  // ~1M events

thread_local int tls_wall_track = -1;

double to_us(Tracer::Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// JSON string escaping for event names / labels (control chars, quotes).
void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out << buf;
        } else {
          out << ch;
        }
    }
  }
  out << '"';
}

void write_event(std::ostream& out, const TraceEvent& e) {
  out << "{\"name\":";
  write_json_string(out, e.name);
  out << ",\"cat\":";
  write_json_string(out, e.cat[0] == '\0' ? "reco" : e.cat);
  out << ",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts_us;
  if (e.ph == 'X') out << ",\"dur\":" << e.dur_us;
  if (e.ph == 'i') out << ",\"s\":\"t\"";  // thread-scoped instant
  out << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  if (!e.args.empty()) {
    out << ",\"args\":{";
    for (std::size_t a = 0; a < e.args.size(); ++a) {
      if (a > 0) out << ',';
      write_json_string(out, e.args[a].key);
      out << ':' << e.args[a].value;
    }
    out << '}';
  }
  out << '}';
}

void write_metadata(std::ostream& out, const char* what, int pid, int tid,
                    const std::string& label) {
  out << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"args\":{\"name\":";
  write_json_string(out, label);
  out << "}}";
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()), capacity_(kDefaultCapacity) {}

void Tracer::record(TraceEvent e) {
  // Cheap pre-lock probe; the exact check re-runs under the lock.
  if (approx_size_.load(std::memory_order_relaxed) >= capacity()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(e));
  approx_size_.store(events_.size(), std::memory_order_relaxed);
}

int Tracer::wall_track_id() {
  if (tls_wall_track < 0) {
    std::lock_guard<std::mutex> lock(mu_);
    tls_wall_track = next_wall_track_++;
  }
  return tls_wall_track;
}

void Tracer::complete(std::string name, const char* cat, Clock::time_point start,
                      Clock::time_point end, std::initializer_list<TraceArg> args) {
  complete(std::move(name), cat, start, end, args.begin(),
           static_cast<int>(args.size()));
}

void Tracer::complete(std::string name, const char* cat, Clock::time_point start,
                      Clock::time_point end, const TraceArg* args, int num_args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ph = 'X';
  e.ts_us = to_us(start - epoch_);
  e.dur_us = to_us(end - start);
  e.pid = kWallPid;
  e.tid = wall_track_id();
  e.args.assign(args, args + num_args);
  record(std::move(e));
}

void Tracer::sim_span(std::string name, const char* cat, double t0_s, double t1_s, int track,
                      std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ph = 'X';
  e.ts_us = t0_s * 1e6;
  e.dur_us = (t1_s - t0_s) * 1e6;
  e.pid = kSimPid;
  e.tid = track;
  e.args.assign(args);
  record(std::move(e));
}

void Tracer::sim_instant(std::string name, const char* cat, double t_s, int track,
                         std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ph = 'i';
  e.ts_us = t_s * 1e6;
  e.pid = kSimPid;
  e.tid = track;
  e.args.assign(args);
  record(std::move(e));
}

void Tracer::name_sim_track(int track, std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [t, name] : sim_track_names_) {
    if (t == track) {
      name = std::move(label);
      return;
    }
  }
  sim_track_names_.emplace_back(track, std::move(label));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  sim_track_names_.clear();
  approx_size_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::write_chrome_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.precision(9);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  write_metadata(out, "process_name", kWallPid, 0, "wall clock (pipeline)");
  out << ",\n";
  write_metadata(out, "process_name", kSimPid, 0, "simulated time (fabric)");
  for (const auto& [track, label] : sim_track_names_) {
    out << ",\n";
    write_metadata(out, "thread_name", kSimPid, track, label);
  }
  for (const TraceEvent& e : events_) {
    out << ",\n";
    write_event(out, e);
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(const char* name, const char* cat)
    : active_(enabled()), name_(name), cat_(cat) {
  if (active_) start_ = Tracer::Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  tracer().complete(name_, cat_, start_, Tracer::Clock::now(), args_, num_args_);
}

}  // namespace reco::obs
