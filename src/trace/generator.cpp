#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "runtime/parallel.hpp"
#include "trace/rng.hpp"

namespace reco {

namespace {

// Table I/II calibration (see the header).  Transmission-mode
// probabilities by count (Table II); M2M takes the remainder.
constexpr double kPS2S = 0.2338;
constexpr double kPS2M = 0.0989;
constexpr double kPM2S = 0.4011;
// Density split *within* M2M coflows, derived from Table I.
constexpr double kPM2MSparse = 0.486;
constexpr double kPM2MNormal = 0.193;
/// +-fraction applied independently per flow (paper: 5 %).
constexpr double kPerturbation = 0.05;
/// Per-flow demand scale for M2M coflows, in units of c*delta: flows are
/// lognormal around kM2MFlowScale*c*delta with a heavy tail.
constexpr double kM2MFlowScale = 4.0;

/// Heavy-tailed small width in [2, cap]: most fan-outs are narrow, a few
/// span much of the cluster (matching MapReduce reducer-count skew).
int sample_width(Rng& rng, int cap) {
  const double x = rng.pareto(2.0, 1.3);
  return std::clamp(static_cast<int>(x), 2, cap);
}

/// Pick (rows, cols) for an M2M coflow in the requested density class,
/// where density = rows*cols / n^2 (Table I's DS over the fabric).
void sample_m2m_shape(Rng& rng, int n, DensityClass cls, int& rows, int& cols) {
  const double n2 = static_cast<double>(n) * n;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    switch (cls) {
      case DensityClass::kSparse: {
        const int cap = std::max(2, static_cast<int>(std::sqrt(0.05 * n2)));
        rows = sample_width(rng, cap);
        cols = sample_width(rng, cap);
        break;
      }
      case DensityClass::kNormal: {
        const int cap = std::max(3, static_cast<int>(std::sqrt(0.5 * n2)));
        rows = rng.uniform_int(std::max(2, cap / 4), cap);
        cols = rng.uniform_int(std::max(2, cap / 4), cap);
        break;
      }
      case DensityClass::kDense: {
        const int lo = std::max(2, static_cast<int>(std::sqrt(0.5 * n2)));
        rows = rng.uniform_int(lo, n);
        cols = rng.uniform_int(lo, n);
        break;
      }
    }
    if (classify_density(static_cast<double>(rows) * cols / n2) == cls) return;
  }
  // Tiny fabrics make some classes geometrically unreachable (e.g. a
  // sparse M2M needs rows*cols <= 0.05*n^2 < 4 below ~9 ports).  Keep the
  // last sample: the workload's density mix degrades gracefully instead of
  // failing — only the 150-port calibration targets Table I exactly.
}

/// Independent per-coflow stream seed: splitmix64 output for state
/// `options.seed` advanced k+1 steps (the same generator Rng's constructor
/// uses).  Each coflow consumes its own stream, so coflow k's bits do not
/// depend on how many draws earlier coflows made — the property that lets
/// parallel synthesis be bit-identical to the sequential loop.
std::uint64_t coflow_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Synthesize coflow k in isolation, writing into a caller-owned buffer
/// (demand storage and the row/col index scratch are reused across calls —
/// allocation-free once warm).  `gap_out` receives the coflow's
/// exponential inter-arrival gap; arrivals are prefix-summed by the caller
/// (the only cross-coflow coupling in the generator).
void synthesize_coflow_into(const GeneratorOptions& options, int k, std::vector<int>& rows_buf,
                            std::vector<int>& cols_buf, Time& gap_out, Coflow& c) {
  Rng rng(coflow_seed(options.seed, static_cast<std::uint64_t>(k)));
  const int n = options.num_ports;
  const Time min_demand = options.c_threshold * options.delta;

  c.id = k;
  c.arrival = 0.0;
  c.weight = rng.uniform();
  gap_out = 0.0;
  if (options.mean_interarrival > 0.0) {
    // Poisson process: exponential inter-arrival gaps.
    double u = rng.uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    gap_out = -options.mean_interarrival * std::log(u);
  }
  c.demand.zero(n);

  // Mode first (Table II count mix), then shape.
  const double mode_draw = rng.uniform();
  int num_rows = 1;
  int num_cols = 1;
  bool m2m = false;
  if (mode_draw < kPS2S) {
    // single -> single
  } else if (mode_draw < kPS2S + kPS2M) {
    num_cols = sample_width(rng, std::min(n, 30));
  } else if (mode_draw < kPS2S + kPS2M + kPM2S) {
    num_rows = sample_width(rng, std::min(n, 30));
  } else {
    m2m = true;
    const double density_draw = rng.uniform();
    DensityClass cls = DensityClass::kDense;
    if (density_draw < kPM2MSparse) {
      cls = DensityClass::kSparse;
    } else if (density_draw < kPM2MSparse + kPM2MNormal) {
      cls = DensityClass::kNormal;
    }
    sample_m2m_shape(rng, n, cls, num_rows, num_cols);
  }

  rows_buf.resize(n);
  cols_buf.resize(n);
  rng.sample_distinct(n, num_rows, rows_buf.data());
  rng.sample_distinct(n, num_cols, cols_buf.data());

  // Flow sizes.  M2M: per-reducer shuffle volume split uniformly across
  // mappers (the paper's preprocessing); non-M2M: mice-scale flows just
  // above the optical threshold.  Both get +-kPerturbation per flow.
  const double scale = kM2MFlowScale * min_demand;
  for (int jj = 0; jj < num_cols; ++jj) {
    Time per_mapper;
    if (m2m) {
      // Heavy-tailed per-reducer volume, expressed per mapper.
      per_mapper = scale * rng.lognormal(0.0, 1.0);
    } else {
      // Control-plane-scale transfers: genuinely tiny (media ~7% of the
      // optical threshold, i.e. tens of microseconds at 100 Gb/s).  With
      // enforce_threshold they are clipped up to c*delta — the paper's
      // "only elephants enter the OCS" regime; without it they are the
      // mice of the Sec. VI hybrid experiments.
      per_mapper = min_demand * rng.lognormal(-2.6, 1.3);
    }
    for (int ii = 0; ii < num_rows; ++ii) {
      const double jitter = 1.0 + kPerturbation * rng.uniform(-1.0, 1.0);
      // Even "mice" are at least a packet's worth of data (~1 us at line
      // rate); below that the flow is indistinguishable from round-off.
      Time d = std::max(per_mapper * jitter, 1e-6);
      if (options.enforce_threshold) d = std::max(min_demand, d);
      c.demand.at(rows_buf[ii], cols_buf[jj]) = d;
    }
  }
}

}  // namespace

std::vector<Coflow> generate_workload(const GeneratorOptions& options) {
  if (options.num_ports < 2) {
    throw std::invalid_argument("generate_workload: need at least 2 ports");
  }
  std::vector<Coflow> coflows(options.num_coflows);
  std::vector<Time> gaps(options.num_coflows, 0.0);
  runtime::parallel_for(options.num_coflows, [&](int k) {
    std::vector<int> rows_buf;
    std::vector<int> cols_buf;
    synthesize_coflow_into(options, k, rows_buf, cols_buf, gaps[k], coflows[k]);
  });

  // Arrival times are the prefix sums of the per-coflow gaps — the one
  // sequential dependency, applied after the parallel synthesis.
  Time arrival_clock = 0.0;
  for (int k = 0; k < options.num_coflows; ++k) {
    arrival_clock += gaps[k];
    coflows[k].arrival = arrival_clock;
  }
  return coflows;
}

ArrivalStream::ArrivalStream(const GeneratorOptions& options) : options_(options) {
  if (options_.num_ports < 2) {
    throw std::invalid_argument("ArrivalStream: need at least 2 ports");
  }
}

const Coflow* ArrivalStream::peek() {
  if (next_ >= options_.num_coflows) return nullptr;
  if (!ready_) {
    Time gap = 0.0;
    synthesize_coflow_into(options_, next_, rows_buf_, cols_buf_, gap, buf_);
    // Same prefix-sum accumulation order as generate_workload, so arrival
    // times match bit for bit.
    arrival_clock_ += gap;
    buf_.arrival = arrival_clock_;
    ready_ = true;
  }
  return &buf_;
}

void ArrivalStream::pop() {
  if (peek() == nullptr) return;
  ++next_;
  ready_ = false;
}

}  // namespace reco
