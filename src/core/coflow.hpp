// Coflow abstraction: a weighted demand matrix plus the paper's
// density / transmission-mode taxonomy (Sec. V-A, Tables I and II).
#pragma once

#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco {

/// Transmission-mode taxonomy of Table II, determined by how many distinct
/// ingress and egress ports a coflow touches.
enum class TransmissionMode {
  kS2S,  ///< single ingress  -> single egress   (one flow)
  kS2M,  ///< single ingress  -> multiple egress
  kM2S,  ///< multiple ingress -> single egress
  kM2M,  ///< multiple ingress -> multiple egress
};

/// Density taxonomy of Table I, over DS = nnz(D) / N^2.
enum class DensityClass {
  kSparse,  ///< DS <= 0.05
  kNormal,  ///< 0.05 < DS <= 0.5
  kDense,   ///< DS > 0.5
};

/// A coflow: all parallel flows of one application stage, abstracted as a
/// demand matrix over the fabric ports (Sec. II-A).  Weight expresses
/// latency sensitivity; arrival is kept for completeness (the paper's
/// evaluation assumes all coflows are buffered, i.e. arrival == 0).
struct Coflow {
  CoflowId id = 0;
  double weight = 1.0;
  Time arrival = 0.0;
  Matrix demand;

  /// Number of distinct ingress ports with any nonzero demand.
  int width_in() const;
  /// Number of distinct egress ports with any nonzero demand.
  int width_out() const;

  TransmissionMode mode() const;
  DensityClass density_class() const;

  /// Aggregate demand volume (sum of all entries).
  Time total_volume() const { return demand.total(); }
  /// Bottleneck load rho(D): the SEBF "effective bottleneck".
  Time bottleneck() const { return demand.rho(); }
};

/// Classify a density value per Table I thresholds.
DensityClass classify_density(double ds);

}  // namespace reco
