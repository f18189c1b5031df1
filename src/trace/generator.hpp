// Synthetic Facebook-like coflow workload (the DESIGN.md §4 substitution
// for the proprietary FB2010 Hive/MapReduce trace).
//
// Calibration targets, all from the paper's Sec. V-A:
//  * 526 coflows on a 150-port fabric;
//  * transmission-mode mix by count: S2S 23.38 %, S2M 9.89 %, M2S 40.11 %,
//    M2M 26.62 % — and M2M carrying ~99.94 % of all bytes (Table II);
//  * density mix: sparse 86.31 %, normal 5.13 %, dense 8.56 % (Table I) —
//    with all non-M2M coflows structurally sparse, the M2M population is
//    split ~48.6 / 19.3 / 32.2 % across sparse/normal/dense to hit it;
//  * reducer shuffle volume divided uniformly across mappers, then +-5 %
//    per-flow perturbation;
//  * every nonzero demand >= c * delta (mice flows go to packet switches);
//  * weights w_k ~ U[0, 1] (the Fig. 6 setup; Fig. 7's unit weights are
//    set after generation).
// These calibration constants live in generator.cpp; only the fabric size,
// count, seed, delta, c, threshold clipping and arrival gap are options.
#pragma once

#include <cstdint>
#include <vector>

#include "core/coflow.hpp"
#include "core/types.hpp"

namespace reco {

struct GeneratorOptions {
  int num_ports = 150;
  int num_coflows = 526;
  std::uint64_t seed = 20190707;  ///< ICDCS'19 presentation date

  Time delta = 100e-6;      ///< reconfiguration delay (default 100 us, Sec. V-C)
  double c_threshold = 4.0; ///< minimum demand = c * delta

  /// true (paper default): clip every flow up to c*delta — only elephants
  /// enter the OCS.  false: keep sub-threshold mice (for the hybrid
  /// circuit/packet experiments of Sec. VI).
  bool enforce_threshold = true;

  /// Mean coflow inter-arrival time for the online extension; 0 keeps the
  /// paper's all-buffered assumption (every arrival at t = 0).
  Time mean_interarrival = 0.0;
};

/// Generate a deterministic workload; coflow ids are 0..num_coflows-1.
std::vector<Coflow> generate_workload(const GeneratorOptions& options);

/// Streaming variant of `generate_workload`: synthesizes coflows lazily,
/// one at a time, into a single reused buffer — O(1) memory in stream
/// length, and allocation-free once warm.  Produces the *same* coflow
/// sequence bit for bit (each coflow draws from its own splitmix64 stream;
/// arrivals are the same prefix-summed gaps), so a daemon fed by an
/// ArrivalStream replays identically to one fed the materialized workload.
///
/// Pull interface matches sim::CoflowSource: the pointer returned by
/// peek() is valid until the next pop().
class ArrivalStream {
 public:
  explicit ArrivalStream(const GeneratorOptions& options);

  /// Next coflow (synthesized on first call), or nullptr when the
  /// configured `num_coflows` have all been produced.
  const Coflow* peek();
  void pop();

  /// Coflows handed out so far (popped).
  int produced() const { return next_; }

 private:
  GeneratorOptions options_;
  Coflow buf_;
  std::vector<int> rows_buf_;
  std::vector<int> cols_buf_;
  Time arrival_clock_ = 0.0;
  int next_ = 0;
  bool ready_ = false;
};

}  // namespace reco
