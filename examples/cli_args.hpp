// Strict `--key=value` flag parsing shared by reco_sim_cli, reco_serve and
// reco_campaign, and strict number parsing for every example's arguments.
//
// `--key=value` sets a flag, a bare `--key` sets it to "1", and every other
// argument is positional.  Each CLI passes `parse` the flags it reads; any
// other `--key` throws a cli::FlagError naming it, so a typo such as
// `--rep=10` is an error, not a silent default.  The numeric getters parse
// the whole value with std::from_chars: an empty value, trailing junk, or a
// number that does not fit the target type throws a cli::FlagError naming
// the flag; nothing falls back to 0 or wraps in a cast.  get_choice throws
// one for a value outside the flag's list of names.  get_double accepts
// "nan" and "inf", so the library's own parameter guards still see, and
// name, them.  The examples that take positional numbers (datacenter_shuffle,
// ocs_what_if, trace_tool) call parse_int / parse_double with the argument's
// name and a range.  Each program prints a FlagError and exits 2.
#pragma once

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace reco::cli {

/// A malformed flag or argument value; what() names it and the value.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// All of `text` as a double, or a FlagError naming `name` (a flag's
/// "--key" or a positional argument's name).
inline double parse_double(const std::string& name, const std::string& text) {
  double value = 0.0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) {
    throw FlagError(name + ": \"" + text + "\" is not a number");
  }
  return value;
}

/// All of `text` as a T in [lo, hi], or a FlagError naming `name` and the
/// range.
template <class T>
T parse_int(const std::string& name, const std::string& text,
            T lo = std::numeric_limits<T>::min(), T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>);
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || value < lo || value > hi) {
    throw FlagError(name + ": \"" + text + "\" is not an integer in [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
  }
  return value;
}

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : parse_double("--" + key, it->second);
  }
  template <class T>
  T get_int(const std::string& key, T fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : parse_int<T>("--" + key, it->second);
  }
  /// The value of --key, or `fallback`, if it is one of `choices`; else a
  /// FlagError naming the flag, the value and the choices.
  std::string get_choice(const std::string& key, const std::string& fallback,
                         std::initializer_list<std::string_view> choices) const {
    const std::string value = get(key, fallback);
    if (std::find(choices.begin(), choices.end(), value) != choices.end()) return value;
    std::string names;
    for (const std::string_view choice : choices) {
      if (!names.empty()) names += '|';
      names += choice;
    }
    throw FlagError("--" + key + ": \"" + value + "\" is not one of " + names);
  }
  /// Size the parallel runtime from --threads=N, if given.
  void apply_threads() const {
    if (!has("threads")) return;
    try {
      runtime::set_thread_count(runtime::parse_thread_count(get("threads", "")));
    } catch (const std::invalid_argument& e) {
      throw FlagError(std::string("--threads: ") + e.what());
    }
  }
};

/// Split argv into flags and positionals; a flag not in `known` (names
/// without the leading "--") throws a FlagError naming it.
inline Args parse(int argc, char** argv, std::initializer_list<std::string_view> known) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      a.positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw FlagError("--" + key + ": unknown flag");
    }
    a.options[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return a;
}

}  // namespace reco::cli
