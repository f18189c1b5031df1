#include "bvn/regularization.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace reco {

namespace {
void check_quantum(Time quantum) {
  // Written so NaN fails it: every comparison with NaN is false.
  if (!(quantum > 0.0) || !std::isfinite(quantum)) {
    throw std::invalid_argument("regularize: quantum must be positive and finite");
  }
}

double round_up_to_quantum(double x, double quantum) {
  // Entries already sitting on a multiple of the quantum (up to simulation
  // tolerance) must not be bumped a full quantum higher.
  const double k = std::ceil(x / quantum - kTimeEps);
  return std::max(1.0, k) * quantum;
}
}  // namespace

Matrix regularize(const Matrix& demand, Time quantum) {
  check_quantum(quantum);
  Matrix out(demand.n());
  for (int i = 0; i < demand.n(); ++i) {
    for (int j = 0; j < demand.n(); ++j) {
      const double d = demand.at(i, j);
      if (!approx_zero(d)) out.at(i, j) = round_up_to_quantum(d, quantum);
    }
  }
  return out;
}

SupportIndex regularize(SupportIndex demand, Time quantum) {
  check_quantum(quantum);
  obs::ScopedSpan span("bvn.regularize", "bvn");
  const int nnz = demand.nnz();
  Time padding = 0.0;  // published once below; Theorem 2 bounds it by delta*nnz
  demand.transform_values([&](double v) {
    const double rounded = round_up_to_quantum(v, quantum);
    padding += rounded - v;
    return rounded;
  });
  if (obs::enabled()) {
    obs::metrics().counter("regularize.calls").inc();
    obs::metrics().counter("regularize.padding_total").inc(padding);
    obs::metrics().counter("regularize.entries").inc(static_cast<double>(nnz));
    // The Theorem-2 worst case: padding <= delta * nnz.  Emitting both lets
    // a metrics dump report the realized fraction of the bound per run.
    obs::metrics().counter("regularize.delta_nnz_bound").inc(quantum * nnz);
    span.arg("nnz", static_cast<double>(nnz));
    span.arg("padding", padding);
    span.arg("delta_nnz_bound", quantum * nnz);
  }
  return demand;
}

}  // namespace reco
