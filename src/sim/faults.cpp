#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace/line_reader.hpp"

namespace reco::sim {

namespace {

/// Timed-out attempt k waits delta * min(kBackoffFactor^(k-1), kBackoffCap).
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffCap = 32.0;

bool bad_probability(double p) { return !(p >= 0.0) || !(p <= 1.0); }

/// Exponential with mean `mean` from one uniform draw.
Time exponential(Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform());
}

PortSide parse_side(const std::string& token) {
  if (token == "in" || token == "ingress") return PortSide::kIngress;
  if (token == "out" || token == "egress") return PortSide::kEgress;
  if (token == "both") return PortSide::kBoth;
  throw std::runtime_error("unknown side '" + token + "' (expected in|out|both)");
}

}  // namespace

void validate_fault_config(const FaultConfig& config) {
  if (!(config.jitter_fraction >= 0.0) || !std::isfinite(config.jitter_fraction)) {
    throw std::invalid_argument("FaultConfig: jitter_fraction must be finite and >= 0, got " +
                                std::to_string(config.jitter_fraction));
  }
  if (!(config.retry_probability >= 0.0) || config.retry_probability >= 1.0) {
    throw std::invalid_argument(
        "FaultConfig: retry_probability must be in [0, 1) (>= 1 retries forever), got " +
        std::to_string(config.retry_probability));
  }
  if (config.max_attempts < 1) {
    throw std::invalid_argument("FaultConfig: max_attempts must be >= 1, got " +
                                std::to_string(config.max_attempts));
  }
  if (bad_probability(config.setup_timeout_probability)) {
    throw std::invalid_argument("FaultConfig: setup_timeout_probability must be in [0, 1]");
  }
  if (bad_probability(config.crosspoint_failure_probability)) {
    throw std::invalid_argument("FaultConfig: crosspoint_failure_probability must be in [0, 1]");
  }
  if (!(config.port_mtbf >= 0.0) || !std::isfinite(config.port_mtbf)) {
    throw std::invalid_argument("FaultConfig: port_mtbf must be finite and >= 0");
  }
  if (!(config.port_mttr >= 0.0) || !std::isfinite(config.port_mttr)) {
    throw std::invalid_argument("FaultConfig: port_mttr must be finite and >= 0");
  }
  for (const PortFault& f : config.port_faults) {
    if (!std::isfinite(f.at) || f.at < 0.0) {
      throw std::invalid_argument("FaultConfig: port fault time must be finite and >= 0");
    }
    if (f.port < 0) {
      throw std::invalid_argument("FaultConfig: port fault references negative port " +
                                  std::to_string(f.port));
    }
    if (f.repair_after >= 0.0 && !std::isfinite(f.repair_after)) {
      throw std::invalid_argument("FaultConfig: port fault repair delay must be finite");
    }
  }
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)),
      setup_rng_(config_.seed),
      // Independent stream for the port process so adding port faults never
      // shifts the setup timing stream (and vice versa).
      port_rng_(config_.seed ^ 0x9e3779b97f4a7c15ull) {
  validate_fault_config(config_);
}

void FaultInjector::push_fault(const PortFault& fault) {
  Pending down;
  down.t = {fault.at, fault.port, fault.side, /*up=*/false};
  down.seq = next_seq_++;
  pending_.push_back(down);
  if (fault.repair_after >= 0.0) {
    Pending up;
    up.t = {fault.at + fault.repair_after, fault.port, fault.side, /*up=*/true};
    up.seq = next_seq_++;
    pending_.push_back(up);
  }
}

void FaultInjector::bind_ports(int num_ports) {
  if (bound_) return;
  bound_ = true;
  for (const PortFault& f : config_.port_faults) {
    if (f.port >= num_ports) {
      throw std::invalid_argument("fault trace references port " + std::to_string(f.port) +
                                  " of a " + std::to_string(num_ports) + "-port fabric");
    }
    push_fault(f);
  }
  if (config_.port_mtbf > 0.0) {
    for (PortId p = 0; p < num_ports; ++p) {
      Pending down;
      down.t = {exponential(port_rng_, config_.port_mtbf), p, PortSide::kBoth, /*up=*/false};
      down.seq = next_seq_++;
      down.random = true;
      pending_.push_back(down);
    }
  }
  std::sort(pending_.begin(), pending_.end(), [](const Pending& a, const Pending& b) {
    return a.t.at != b.t.at ? a.t.at < b.t.at : a.seq < b.seq;
  });
}

std::vector<PortTransition> FaultInjector::advance_to(Time now) {
  std::vector<PortTransition> out;
  while (!pending_.empty() && pending_.front().t.at <= now + kTimeEps) {
    const Pending p = pending_.front();
    pending_.erase(pending_.begin());
    out.push_back(p.t);
    if (p.random) {
      // Continue the port's renewal process: failure -> repair (if MTTR is
      // configured) -> next failure.  Streams stay in pop order, which is
      // deterministic by (time, seq).
      Pending next;
      next.seq = next_seq_++;
      next.random = true;
      if (!p.t.up && config_.port_mttr > 0.0) {
        next.t = {p.t.at + exponential(port_rng_, config_.port_mttr), p.t.port, p.t.side,
                  /*up=*/true};
      } else if (p.t.up) {
        next.t = {p.t.at + exponential(port_rng_, config_.port_mtbf), p.t.port, p.t.side,
                  /*up=*/false};
      } else {
        continue;  // permanent random failure: the process for this port ends
      }
      const auto pos = std::upper_bound(
          pending_.begin(), pending_.end(), next, [](const Pending& a, const Pending& b) {
            return a.t.at != b.t.at ? a.t.at < b.t.at : a.seq < b.seq;
          });
      pending_.insert(pos, next);
    }
  }
  return out;
}

std::optional<Time> FaultInjector::next_transition() const {
  if (pending_.empty()) return std::nullopt;
  return pending_.front().t.at;
}

std::optional<Time> FaultInjector::next_repair() const {
  for (const Pending& p : pending_) {
    if (p.t.up) return p.t.at;
  }
  return std::nullopt;
}

SetupOutcome FaultInjector::sample_setup(Time delta, const std::vector<Circuit>& requested) {
  SetupOutcome out;
  out.attempts = 0;
  while (true) {
    ++out.attempts;
    // Draw order: jitter, timeout, retry.  A draw whose probability is
    // zero is skipped, so timing-only configs consume jitter then retry.
    double slowdown = 1.0;
    if (config_.jitter_fraction > 0.0) {
      slowdown += config_.jitter_fraction * setup_rng_.uniform();
    }
    out.setup_time += delta * slowdown;
    bool timed_out = false;
    if (config_.setup_timeout_probability > 0.0 &&
        setup_rng_.uniform() < config_.setup_timeout_probability) {
      timed_out = true;
    }
    bool retry = false;
    if (config_.retry_probability > 0.0 &&
        setup_rng_.uniform() < config_.retry_probability) {
      retry = true;
    }
    if (!timed_out && !retry) break;
    if (out.attempts >= config_.max_attempts) {
      out.established = false;  // budget exhausted: failed, not looping
      return out;
    }
    if (timed_out) {
      // Bounded exponential backoff before the next attempt.  Failed
      // attempts (retry draws) repeat immediately.
      const double k = std::min(std::pow(kBackoffFactor, out.attempts - 1), kBackoffCap);
      out.setup_time += delta * k;
    }
  }
  out.established = true;
  if (config_.crosspoint_failure_probability > 0.0) {
    for (const Circuit& c : requested) {
      if (setup_rng_.uniform() < config_.crosspoint_failure_probability) {
        out.failed_circuits.push_back(c);
      } else {
        out.established_circuits.push_back(c);
      }
    }
  } else {
    out.established_circuits = requested;
  }
  return out;
}

std::vector<PortFault> parse_fault_trace(std::istream& in, int num_ports) {
  std::vector<PortFault> faults;
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& what) {
    trace_detail::parse_error("fault trace", lineno, what);
  };
  while (trace_detail::next_line(in, line, lineno)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (line[first] == '#') continue;
    std::istringstream ls(line);
    PortFault f;
    std::string side;
    std::string repair;
    if (!(ls >> f.at >> f.port >> side >> repair)) {
      fail("expected '<time_s> <port> <in|out|both> <repair_s|never>'");
    }
    if (!std::isfinite(f.at) || f.at < 0.0) fail("fault time must be finite and >= 0");
    if (f.port < 0) fail("port must be >= 0");
    if (num_ports >= 0 && f.port >= num_ports) {
      fail("port " + std::to_string(f.port) + " out of range for a " +
           std::to_string(num_ports) + "-port fabric");
    }
    try {
      f.side = parse_side(side);
    } catch (const std::runtime_error& e) {
      fail(e.what());
    }
    if (repair == "never" || repair == "-") {
      f.repair_after = -1.0;
    } else {
      std::istringstream rs(repair);
      if (!(rs >> f.repair_after) || !(rs >> std::ws).eof() ||
          !std::isfinite(f.repair_after) || f.repair_after < 0.0) {
        fail("repair delay must be a finite non-negative number or 'never'");
      }
    }
    std::string extra;
    if (ls >> extra) fail("trailing token '" + extra + "'");
    faults.push_back(f);
  }
  return faults;
}

std::vector<PortFault> load_fault_trace(const std::string& path, int num_ports) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_fault_trace: cannot open " + path);
  return parse_fault_trace(in, num_ports);
}

}  // namespace reco::sim
