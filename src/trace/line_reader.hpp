// Shared helpers for the line-oriented trace formats (reco-trace,
// Facebook/Sincronia shuffles, fault traces): every record lives on one
// line, so parse errors can name the offending line.
#pragma once

#include <cstddef>
#include <istream>
#include <stdexcept>
#include <string>

namespace reco::trace_detail {

/// Throws std::runtime_error "<who> line <line>: <what>".
[[noreturn]] inline void parse_error(const char* who, std::size_t line,
                                     const std::string& what) {
  throw std::runtime_error(std::string(who) + " line " + std::to_string(line) + ": " + what);
}

/// Throws parse_error if `rec` holds another token after the `what` it was
/// read for.
inline void expect_line_end(std::istream& rec, const char* who, std::size_t line,
                            const std::string& what) {
  std::string extra;
  if (rec >> extra) parse_error(who, line, "trailing token '" + extra + "' after the " + what);
}

/// Advance to the next non-blank line, keeping `lineno` 1-based and in
/// sync.  Returns false at end of input.
inline bool next_line(std::istream& in, std::string& line, std::size_t& lineno) {
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") != std::string::npos) return true;
  }
  return false;
}

}  // namespace reco::trace_detail
