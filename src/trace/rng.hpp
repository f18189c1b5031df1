// Deterministic random source for workload generation.
//
// Standard-library *engines* are portable but the *distributions* are not
// (libstdc++ and libc++ produce different streams), so traces generated
// from the same seed would differ across platforms.  We therefore implement
// the distributions ourselves on top of splitmix64/xoshiro256**, making a
// (seed, options) pair a complete, portable description of a workload.
#pragma once

#include <cstdint>

namespace reco {

/// xoshiro256** seeded via splitmix64.  Small, fast, well-studied.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  int uniform_int(int n);
  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// Standard normal via Box-Muller.
  double normal();
  /// exp(mu + sigma * N(0,1)).
  double lognormal(double mu, double sigma);
  /// Pareto with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);

  /// Fisher-Yates: k distinct values from {0, ..., n-1}, in random order.
  void sample_distinct(int n, int k, int* out);

 private:
  std::uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace reco
