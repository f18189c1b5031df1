// reco_e2e: runs one end-to-end benchmark workload and prints its result as
// one JSON object on stdout.
//
//   reco_e2e --workload=NAME --seed=S [--seconds=T] [--threads=N] [--trace]
//            [--scale=full|tiny] [--out=DIR]
//
//   NAME       sin-plan | mul-batch | online-stream | campaign
//   --seconds  measurement budget: after the workload's minimum number of
//              passes over its fixed input, passes repeat while the next is
//              expected to end within it (--trace runs one untraced pass and
//              one traced pass)
//   --threads  runtime thread count (default: the workload's own)
//   --trace    also run a traced pass and report per-layer metrics; with
//              --out, write the spans to DIR/NAME.trace.json
//   --scale    tiny shrinks every input for the smoke test
//
// Flags are parsed strictly: an unknown flag, a repeated flag or a value
// that is not entirely a number in range exits with status 2.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <string_view>

#include "e2e.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using e2e::Result;
using e2e::RunConfig;

struct Workload {
  const char* name;
  Result (*run)(const RunConfig&, e2e::SpanRecorder&);
  int threads;
};

constexpr Workload kWorkloads[] = {
    {"sin-plan", e2e::run_sin_plan, 1},
    {"mul-batch", e2e::run_mul_batch, 1},
    {"online-stream", e2e::run_online_stream, 1},
    {"campaign", e2e::run_campaign, 2},
};

constexpr const char* kUsage =
    "usage: reco_e2e --workload=sin-plan|mul-batch|online-stream|campaign --seed=S\n"
    "                [--seconds=T] [--threads=N] [--trace] [--scale=full|tiny] [--out=DIR]\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "reco_e2e: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    usage_error("--" + std::string(flag) + ": '" + std::string(text) + "' is not a number");
  }
  if (!(value >= lo && value <= hi)) {
    usage_error("--" + std::string(flag) + ": " + std::string(text) + " is out of range");
  }
  return value;
}

struct Parsed {
  RunConfig cfg;
  const Workload* workload = nullptr;
  std::string out_dir;
};

Parsed parse_flags(int argc, char** argv) {
  Parsed p;
  bool seen_seed = false;
  bool seen_threads = false;
  std::set<std::string_view> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") usage_error("unexpected argument '" + std::string(arg) + "'");
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(2, eq == std::string_view::npos ? arg.npos : eq - 2);
    const bool has_value = eq != std::string_view::npos;
    const std::string_view value = has_value ? arg.substr(eq + 1) : std::string_view{};
    if (!seen.insert(key).second) usage_error("--" + std::string(key) + " given twice");
    if (key == "trace") {
      if (has_value) usage_error("--trace takes no value");
      p.cfg.trace = true;
      continue;
    }
    if (!has_value) usage_error("--" + std::string(key) + " needs a value");
    if (key == "workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) p.workload = &w;
      }
      if (p.workload == nullptr) usage_error("unknown workload '" + std::string(value) + "'");
    } else if (key == "seed") {
      p.cfg.seed = parse_number<std::uint64_t>(key, value, 0, UINT64_MAX);
      seen_seed = true;
    } else if (key == "seconds") {
      p.cfg.seconds = parse_number<double>(key, value, 0.0, 3600.0);
    } else if (key == "threads") {
      p.cfg.threads = parse_number<int>(key, value, 1, 64);
      seen_threads = true;
    } else if (key == "scale") {
      if (value != "full" && value != "tiny") usage_error("--scale must be full or tiny");
      p.cfg.tiny = value == "tiny";
    } else if (key == "out") {
      p.out_dir = value;
    } else {
      usage_error("unknown flag --" + std::string(key));
    }
  }
  if (p.workload == nullptr) usage_error("--workload is required");
  if (!seen_seed) usage_error("--seed is required");
  p.cfg.workload = p.workload->name;
  if (!seen_threads) p.cfg.threads = p.workload->threads;
  return p;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<e2e::Metric>& ms) {
  std::string out = "{";
  for (std::size_t k = 0; k < ms.size(); ++k) {
    out += (k ? ", " : "") + json_string(ms[k].name) + ": {\"value\": " +
           json_number(ms[k].value) + ", \"unit\": " + json_string(ms[k].unit) + "}";
  }
  return out + "}";
}

std::string json_values(const std::vector<std::pair<std::string, double>>& vs) {
  std::string out = "{";
  for (std::size_t k = 0; k < vs.size(); ++k) {
    out += (k ? ", " : "") + json_string(vs[k].first) + ": " + json_number(vs[k].second);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Parsed p = parse_flags(argc, argv);
  const RunConfig& cfg = p.cfg;
  reco::runtime::set_thread_count(cfg.threads);
  e2e::SpanRecorder spans;
  Result r;
  try {
    r = p.workload->run(cfg, spans);
    if (cfg.trace && !p.out_dir.empty()) {
      spans.write_chrome_json(p.out_dir + "/" + cfg.workload + ".trace.json");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reco_e2e: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(r.digest));
  std::string errors = "[";
  for (std::size_t k = 0; k < r.errors.size(); ++k) {
    errors += (k ? ", " : "") + json_string(r.errors[k]);
  }
  errors += "]";

  std::string out = "{\"workload\": " + json_string(cfg.workload) +
                    ", \"seed\": " + std::to_string(cfg.seed) +
                    ", \"threads\": " + std::to_string(cfg.threads) +
                    ", \"trace\": " + (cfg.trace ? "true" : "false") +
                    ", \"scale\": " + (cfg.tiny ? "\"tiny\"" : "\"full\"") +
                    ", \"digest\": \"" + digest + "\"" +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"errors\": " + errors +
                    ", \"metrics\": " + json_metrics(r.metrics) +
                    ", \"per_layer\": " + json_metrics(r.per_layer) +
                    ", \"counts\": " + json_values(r.counts);
  if (cfg.trace) out += ", \"self_ms\": " + json_values(spans.self_ms());
  out += "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
