#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace reco::lp {

namespace {
/// tau_{t+1} / tau_t.
constexpr double kGeometricRatio = 2.0;
/// Largest instance, in x_{k,t} variables, that is built and solved.
constexpr long kMaxVariables = 6000;

/// Per-port loads of one coflow: ingress p -> row sum, egress p -> col sum.
/// Ports are numbered 0..n-1 (ingress) and n..2n-1 (egress).
std::vector<double> port_loads(const Coflow& c) {
  const int n = c.demand.n();
  std::vector<double> load(2 * n, 0.0);
  for (int i = 0; i < n; ++i) load[i] = c.demand.row_sum(i);
  for (int j = 0; j < n; ++j) load[n + j] = c.demand.col_sum(j);
  return load;
}
}  // namespace

IntervalLpResult solve_interval_indexed_lp(const std::vector<Coflow>& coflows) {
  IntervalLpResult out;
  const int num_coflows = static_cast<int>(coflows.size());
  if (num_coflows == 0) {
    out.status = SolveStatus::kOptimal;
    return out;
  }
  const int n = coflows.front().demand.n();
  const int num_ports = 2 * n;

  std::vector<std::vector<double>> load(num_coflows);
  std::vector<double> rho(num_coflows, 0.0);
  std::vector<double> port_total(num_ports, 0.0);
  double min_rho = std::numeric_limits<double>::infinity();
  double max_port_load = 0.0;
  for (int k = 0; k < num_coflows; ++k) {
    load[k] = port_loads(coflows[k]);
    rho[k] = coflows[k].demand.rho();
    if (rho[k] > 0.0) min_rho = std::min(min_rho, rho[k]);
    for (int p = 0; p < num_ports; ++p) port_total[p] += load[k][p];
  }
  for (double t : port_total) max_port_load = std::max(max_port_load, t);
  if (!std::isfinite(min_rho) || max_port_load <= 0.0) {
    out.status = SolveStatus::kOptimal;
    out.est_completion.assign(num_coflows, 0.0);
    return out;
  }

  // Geometric grid covering [min_rho, max_port_load].
  std::vector<double> tau;  // tau[t] = right end of interval t (0-based)
  for (double end = min_rho; ; end *= kGeometricRatio) {
    tau.push_back(end);
    if (end >= max_port_load) break;
  }
  const int num_t = static_cast<int>(tau.size());
  out.interval_ends = tau;

  // Size guard: dense simplex scales to a few thousand variables; beyond
  // that, report failure so the caller can fall back (see lp_order).
  if (static_cast<long>(num_coflows) * num_t > kMaxVariables) {
    out.status = SolveStatus::kIterLimit;
    return out;
  }

  // Variables: x[k][t] only where tau_t >= rho_k.
  Model model;
  std::vector<std::vector<int>> var(num_coflows, std::vector<int>(num_t, -1));
  for (int k = 0; k < num_coflows; ++k) {
    for (int t = 0; t < num_t; ++t) {
      if (tau[t] + 1e-12 < rho[k]) continue;
      const double left_end = t == 0 ? tau[0] / kGeometricRatio : tau[t - 1];
      var[k][t] = model.add_var(coflows[k].weight * left_end);
    }
  }

  // Completion: each coflow finishes somewhere.
  for (int k = 0; k < num_coflows; ++k) {
    Constraint c;
    c.sense = Sense::kEq;
    c.rhs = 1.0;
    for (int t = 0; t < num_t; ++t) {
      if (var[k][t] != -1) c.terms.emplace_back(var[k][t], 1.0);
    }
    model.add_constraint(std::move(c));
  }

  // Port capacity prefixes; constraints that can never bind are dropped.
  for (int p = 0; p < num_ports; ++p) {
    if (port_total[p] <= 0.0) continue;
    for (int t = 0; t < num_t; ++t) {
      if (port_total[p] <= tau[t] + 1e-12) break;  // slack even if all done
      Constraint c;
      c.sense = Sense::kLe;
      c.rhs = tau[t];
      for (int k = 0; k < num_coflows; ++k) {
        if (load[k][p] <= 0.0) continue;
        for (int s = 0; s <= t; ++s) {
          if (var[k][s] != -1) c.terms.emplace_back(var[k][s], load[k][p]);
        }
      }
      if (!c.terms.empty()) model.add_constraint(std::move(c));
    }
  }

  const Solution sol = solve(model);
  out.status = sol.status;
  if (sol.status != SolveStatus::kOptimal) return out;

  out.est_completion.assign(num_coflows, 0.0);
  for (int k = 0; k < num_coflows; ++k) {
    for (int t = 0; t < num_t; ++t) {
      if (var[k][t] != -1) out.est_completion[k] += tau[t] * sol.x[var[k][t]];
    }
  }
  return out;
}

}  // namespace reco::lp
