#include "trace/fb_format.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "trace/line_reader.hpp"

namespace reco {
namespace {

/// Parse all of `s` as a T: base 10 for an integer, chars_format::general
/// for a double (so no hex and no leading '+').  False on any leftover.
template <class T>
bool parse_whole(std::string_view s, T& out) {
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc() && ptr == last;
}

/// Circuit bandwidth (paper: 100 Gb/s).
constexpr double kLinkGbps = 100.0;

}  // namespace

Time megabytes_to_seconds(double megabytes) {
  return megabytes * 8.0 / (kLinkGbps * 1000.0);  // MB -> Mbit -> seconds
}

std::vector<Coflow> read_fb_trace(std::istream& in, int& num_ports) {
  using trace_detail::next_line;
  using trace_detail::parse_error;
  constexpr const char* kWho = "read_fb_trace";
  std::string line;
  std::size_t lineno = 0;
  if (!next_line(in, line, lineno)) throw std::runtime_error("read_fb_trace: empty input");
  std::istringstream header(line);
  int num_coflows = 0;
  if (!(header >> num_ports >> num_coflows) || num_ports <= 0 || num_coflows < 0) {
    parse_error(kWho, lineno, "bad header (want '<racks> <coflows>')");
  }
  trace_detail::expect_line_end(header, kWho, lineno, "header");
  std::vector<Coflow> coflows;
  coflows.reserve(num_coflows);

  for (int k = 0; k < num_coflows; ++k) {
    if (!next_line(in, line, lineno)) {
      parse_error(kWho, lineno + 1,
                  "truncated: expected " + std::to_string(num_coflows) +
                      " coflow records, found " + std::to_string(k));
    }
    std::istringstream rec(line);
    long long raw_id = 0;
    double arrival_ms = 0.0;
    int num_mappers = 0;
    if (!(rec >> raw_id >> arrival_ms >> num_mappers) || num_mappers < 0) {
      parse_error(kWho, lineno, "bad coflow record (want '<id> <arrival_ms> "
                                "<mappers> <racks...> <reducers> <rack:mb>...')");
    }
    if (!std::isfinite(arrival_ms) || arrival_ms < 0.0) {
      parse_error(kWho, lineno, "NaN or negative arrival");
    }
    std::vector<int> mappers(num_mappers);
    for (int& m : mappers) {
      if (!(rec >> m)) parse_error(kWho, lineno, "truncated mapper list");
      if (m < 0 || m >= num_ports) {
        parse_error(kWho, lineno,
                    "mapper rack " + std::to_string(m) + " out of range for " +
                        std::to_string(num_ports) + " racks");
      }
    }
    int num_reducers = 0;
    if (!(rec >> num_reducers) || num_reducers < 0) {
      parse_error(kWho, lineno, "bad reducer count");
    }

    Coflow c;
    c.id = k;  // ids are re-normalized; the raw id is not needed downstream
    c.weight = 1.0;
    c.arrival = 0.0;  // the paper's coflows are pre-buffered
    c.demand = Matrix(num_ports);

    for (int r = 0; r < num_reducers; ++r) {
      std::string token;
      if (!(rec >> token)) parse_error(kWho, lineno, "truncated reducer list");
      const std::size_t colon = token.find(':');
      if (colon == std::string::npos) {
        parse_error(kWho, lineno, "reducer token '" + token + "' missing ':'");
      }
      const std::string_view text(token);
      int rack = -1;
      double size_mb = -1.0;
      if (!parse_whole(text.substr(0, colon), rack) ||
          !parse_whole(text.substr(colon + 1), size_mb)) {
        parse_error(kWho, lineno, "unparseable reducer token '" + token + "'");
      }
      if (rack < 0 || rack >= num_ports) {
        parse_error(kWho, lineno,
                    "reducer rack " + std::to_string(rack) + " out of range for " +
                        std::to_string(num_ports) + " racks");
      }
      if (!std::isfinite(size_mb) || size_mb < 0.0) {
        parse_error(kWho, lineno, "NaN or negative shuffle size in '" + token + "'");
      }
      if (mappers.empty() || size_mb == 0.0) continue;
      // The paper's preprocessing: split the reducer's shuffle volume
      // uniformly across the mappers.
      const Time per_mapper = megabytes_to_seconds(size_mb) / mappers.size();
      for (int m : mappers) {
        // Mapper and reducer in the same rack: intra-rack traffic never
        // crosses the fabric.
        if (m == rack) continue;
        c.demand.at(m, rack) += per_mapper;
      }
    }
    trace_detail::expect_line_end(rec, kWho, lineno, "reducer list");
    coflows.push_back(std::move(c));
  }
  return coflows;
}

std::vector<Coflow> load_fb_trace(const std::string& path, int& num_ports) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_fb_trace: cannot open " + path);
  return read_fb_trace(in, num_ports);
}

}  // namespace reco
