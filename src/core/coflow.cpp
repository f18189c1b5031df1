#include "core/coflow.hpp"

namespace reco {

int Coflow::width_in() const {
  int w = 0;
  for (int i = 0; i < demand.n(); ++i) {
    if (!approx_zero(demand.row_sum(i))) ++w;
  }
  return w;
}

int Coflow::width_out() const {
  int w = 0;
  for (int j = 0; j < demand.n(); ++j) {
    if (!approx_zero(demand.col_sum(j))) ++w;
  }
  return w;
}

TransmissionMode Coflow::mode() const {
  const bool multi_in = width_in() > 1;
  const bool multi_out = width_out() > 1;
  if (multi_in && multi_out) return TransmissionMode::kM2M;
  if (multi_in) return TransmissionMode::kM2S;
  if (multi_out) return TransmissionMode::kS2M;
  return TransmissionMode::kS2S;
}

DensityClass classify_density(double ds) {
  if (ds <= 0.05) return DensityClass::kSparse;
  if (ds <= 0.5) return DensityClass::kNormal;
  return DensityClass::kDense;
}

DensityClass Coflow::density_class() const {
  return classify_density(demand.density());
}

}  // namespace reco
