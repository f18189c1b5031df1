#include "trace/serialization.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/line_reader.hpp"

namespace reco {

namespace {

/// "(i, j)", for error messages only: built with appends, so a record that
/// parses builds no string.
std::string flow_label(int i, int j) {
  std::string label = "(";
  label += std::to_string(i);
  label += ", ";
  label += std::to_string(j);
  label += ')';
  return label;
}

}  // namespace

void write_trace(std::ostream& out, const std::vector<Coflow>& coflows, int num_ports) {
  // Format v2 adds the arrival time (v1 readers did not need it because the
  // paper assumes pre-buffered coflows; the online extension does).
  out << "reco-trace 2 " << num_ports << ' ' << coflows.size() << '\n';
  out << std::setprecision(17);
  for (const Coflow& c : coflows) {
    std::vector<std::tuple<int, int, double>> flows;
    for (int i = 0; i < c.demand.n(); ++i) {
      for (int j = 0; j < c.demand.n(); ++j) {
        if (!approx_zero(c.demand.at(i, j))) flows.emplace_back(i, j, c.demand.at(i, j));
      }
    }
    out << c.id << ' ' << c.weight << ' ' << c.arrival << ' ' << flows.size();
    for (const auto& [i, j, d] : flows) out << ' ' << i << ' ' << j << ' ' << d;
    out << '\n';
  }
}

std::vector<Coflow> read_trace(std::istream& in, int& num_ports) {
  using trace_detail::next_line;
  using trace_detail::parse_error;
  constexpr const char* kWho = "read_trace";
  std::string line;
  std::size_t lineno = 0;
  if (!next_line(in, line, lineno)) throw std::runtime_error("read_trace: empty input");
  std::istringstream header(line);
  std::string magic;
  int version = 0;
  long long count = -1;
  if (!(header >> magic >> version >> num_ports >> count) || magic != "reco-trace") {
    parse_error(kWho, lineno, "bad header (want 'reco-trace <version> <ports> <coflows>')");
  }
  if (version != 1 && version != 2) {
    parse_error(kWho, lineno, "unsupported version " + std::to_string(version));
  }
  if (num_ports <= 0) parse_error(kWho, lineno, "non-positive port count");
  if (count < 0) parse_error(kWho, lineno, "negative coflow count");
  trace_detail::expect_line_end(header, kWho, lineno, "header");

  std::vector<Coflow> coflows;
  coflows.reserve(static_cast<std::size_t>(count));
  std::set<int> seen_ids;
  for (long long k = 0; k < count; ++k) {
    if (!next_line(in, line, lineno)) {
      parse_error(kWho, lineno + 1,
                  "truncated: expected " + std::to_string(count) + " coflow records, found " +
                      std::to_string(k));
    }
    std::istringstream rec(line);
    Coflow c;
    long long num_flows = -1;
    bool header_ok = static_cast<bool>(rec >> c.id >> c.weight);
    if (header_ok && version >= 2) header_ok = static_cast<bool>(rec >> c.arrival);
    if (!header_ok || !(rec >> num_flows) || num_flows < 0) {
      parse_error(kWho, lineno, "bad coflow record (want '<id> <weight> "
                                "[arrival] <num_flows> [<in> <out> <demand>]...')");
    }
    if (!std::isfinite(c.weight) || c.weight < 0.0) {
      parse_error(kWho, lineno, "NaN or negative weight");
    }
    if (!std::isfinite(c.arrival) || c.arrival < 0.0) {
      parse_error(kWho, lineno, "NaN or negative arrival");
    }
    if (!seen_ids.insert(c.id).second) {
      parse_error(kWho, lineno, "duplicate coflow id " + std::to_string(c.id));
    }
    c.demand = Matrix(num_ports);
    std::set<std::pair<int, int>> seen_flows;
    for (long long f = 0; f < num_flows; ++f) {
      int i = 0;
      int j = 0;
      double d = 0.0;
      if (!(rec >> i >> j >> d)) {
        parse_error(kWho, lineno,
                    "truncated flow list (declared " + std::to_string(num_flows) + " flows)");
      }
      if (i < 0 || i >= num_ports || j < 0 || j >= num_ports) {
        parse_error(kWho, lineno,
                    "flow " + flow_label(i, j) + " out of range for a " +
                        std::to_string(num_ports) + "-port fabric");
      }
      if (!std::isfinite(d) || d < 0.0) {
        parse_error(kWho, lineno, "NaN or negative demand on flow " + flow_label(i, j));
      }
      if (!seen_flows.emplace(i, j).second) {
        parse_error(kWho, lineno, "duplicate flow " + flow_label(i, j));
      }
      c.demand.at(i, j) = d;
    }
    trace_detail::expect_line_end(rec, kWho, lineno, "flow list");
    coflows.push_back(std::move(c));
  }
  return coflows;
}

void save_trace(const std::string& path, const std::vector<Coflow>& coflows, int num_ports) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace: cannot open " + path);
  write_trace(out, coflows, num_ports);
}

std::vector<Coflow> load_trace(const std::string& path, int& num_ports) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace: cannot open " + path);
  return read_trace(in, num_ports);
}

}  // namespace reco
