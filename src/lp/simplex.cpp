#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace reco::lp {

namespace {
constexpr double kEps = 1e-9;

/// Dense tableau simplex state.  Columns: structural vars, then slack /
/// surplus vars, then artificials; final column is the RHS.  Row `m` is the
/// phase-2 cost row, row `m+1` (during phase 1) the phase-1 cost row.
struct Tableau {
  int m = 0;            // constraint rows
  int cols = 0;         // total variable columns (excl. rhs)
  int rhs = 0;          // rhs column index
  std::vector<double> t;  // (m + 2) x (cols + 1), row-major
  std::vector<int> basis;  // basis[r] = column basic in row r

  double& at(int r, int c) { return t[static_cast<std::size_t>(r) * (cols + 1) + c]; }
  double at(int r, int c) const { return t[static_cast<std::size_t>(r) * (cols + 1) + c]; }

  void pivot(int pr, int pc) {
    const double p = at(pr, pc);
    const double inv = 1.0 / p;
    for (int c = 0; c <= cols; ++c) at(pr, c) *= inv;
    at(pr, pc) = 1.0;
    for (int r = 0; r < m + 2; ++r) {
      if (r == pr) continue;
      const double f = at(r, pc);
      if (std::abs(f) < kEps) {
        at(r, pc) = 0.0;
        continue;
      }
      for (int c = 0; c <= cols; ++c) at(r, c) -= f * at(pr, c);
      at(r, pc) = 0.0;
    }
    basis[pr] = pc;
  }
};

/// One simplex phase on cost row `cost_row`; columns in [0, usable_cols).
SolveStatus run_phase(Tableau& tb, int cost_row, int usable_cols, long& iters_left) {
  while (true) {
    if (iters_left-- <= 0) return SolveStatus::kIterLimit;
    const bool bland = iters_left < 0;  // unreachable guard; Bland below

    // Pricing: Dantzig (most negative reduced cost); Bland's rule kicks in
    // via the caller's iteration budget being generous enough that cycling
    // is broken by the eps-perturbed ratio test in practice.
    (void)bland;
    int pc = -1;
    double best = -kEps;
    for (int c = 0; c < usable_cols; ++c) {
      const double rc = tb.at(cost_row, c);
      if (rc < best) {
        best = rc;
        pc = c;
      }
    }
    if (pc == -1) return SolveStatus::kOptimal;

    // Ratio test with Bland tie-breaking on the basis column index.
    int pr = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int r = 0; r < tb.m; ++r) {
      const double a = tb.at(r, pc);
      if (a <= kEps) continue;
      const double ratio = tb.at(r, tb.rhs) / a;
      if (ratio < best_ratio - kEps ||
          (ratio < best_ratio + kEps && (pr == -1 || tb.basis[r] < tb.basis[pr]))) {
        best_ratio = ratio;
        pr = r;
      }
    }
    if (pr == -1) return SolveStatus::kUnbounded;
    tb.pivot(pr, pc);
  }
}

}  // namespace

int Model::add_var(double cost) {
  objective.push_back(cost);
  return num_vars++;
}

Solution solve(const Model& model) {
  const int n = model.num_vars;
  const int m = static_cast<int>(model.constraints.size());
  if (static_cast<int>(model.objective.size()) != n) {
    throw std::invalid_argument("lp::solve: objective size mismatch");
  }

  // Count auxiliary columns.  A row with negative rhs is negated first so
  // every rhs is non-negative and artificials start feasible.
  int n_slack = 0;
  int n_art = 0;
  for (const Constraint& c : model.constraints) {
    const bool flip = c.rhs < 0.0;
    Sense s = c.sense;
    if (flip && s != Sense::kEq) s = (s == Sense::kLe) ? Sense::kGe : Sense::kLe;
    if (s != Sense::kEq) ++n_slack;
    if (s != Sense::kLe) ++n_art;  // >= and == need an artificial
  }

  Tableau tb;
  tb.m = m;
  tb.cols = n + n_slack + n_art;
  tb.rhs = tb.cols;
  tb.t.assign(static_cast<std::size_t>(m + 2) * (tb.cols + 1), 0.0);
  tb.basis.assign(m, -1);

  int next_slack = n;
  int next_art = n + n_slack;
  for (int r = 0; r < m; ++r) {
    const Constraint& c = model.constraints[r];
    const double sign = c.rhs < 0.0 ? -1.0 : 1.0;
    Sense s = c.sense;
    if (sign < 0 && s != Sense::kEq) s = (s == Sense::kLe) ? Sense::kGe : Sense::kLe;
    for (const auto& [v, coeff] : c.terms) {
      if (v < 0 || v >= n) throw std::invalid_argument("lp::solve: bad var index");
      tb.at(r, v) += sign * coeff;
    }
    tb.at(r, tb.rhs) = sign * c.rhs;
    if (s == Sense::kLe) {
      tb.at(r, next_slack) = 1.0;
      tb.basis[r] = next_slack++;
    } else if (s == Sense::kGe) {
      tb.at(r, next_slack++) = -1.0;
      tb.at(r, next_art) = 1.0;
      tb.basis[r] = next_art++;
    } else {
      tb.at(r, next_art) = 1.0;
      tb.basis[r] = next_art++;
    }
  }

  // Phase-2 cost row (row m): reduced later by basic columns.
  for (int v = 0; v < n; ++v) tb.at(m, v) = model.objective[v];
  // Phase-1 cost row (row m+1): sum of artificials.
  for (int a = n + n_slack; a < tb.cols; ++a) tb.at(m + 1, a) = 1.0;

  // Make both cost rows consistent with the initial basis.
  for (int r = 0; r < m; ++r) {
    const int b = tb.basis[r];
    for (int row : {m, m + 1}) {
      const double f = tb.at(row, b);
      if (std::abs(f) < kEps) continue;
      for (int c = 0; c <= tb.cols; ++c) tb.at(row, c) -= f * tb.at(r, c);
    }
  }

  long iters = 200L + 20L * static_cast<long>(m + tb.cols);

  Solution sol;
  if (n_art > 0) {
    const SolveStatus ph1 = run_phase(tb, m + 1, tb.cols, iters);
    if (ph1 == SolveStatus::kIterLimit) {
      sol.status = ph1;
      return sol;
    }
    if (ph1 == SolveStatus::kUnbounded || tb.at(m + 1, tb.rhs) < -1e-6) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
    // Drive any artificial still basic (at value 0) out of the basis.
    for (int r = 0; r < m; ++r) {
      if (tb.basis[r] < n + n_slack) continue;
      int pc = -1;
      for (int c = 0; c < n + n_slack; ++c) {
        if (std::abs(tb.at(r, c)) > 1e-7) {
          pc = c;
          break;
        }
      }
      if (pc != -1) tb.pivot(r, pc);
      // else: redundant row; its artificial stays basic at zero, harmless.
    }
  }

  const SolveStatus ph2 = run_phase(tb, m, n + n_slack, iters);
  sol.status = ph2;
  if (ph2 != SolveStatus::kOptimal) return sol;

  sol.x.assign(n, 0.0);
  for (int r = 0; r < m; ++r) {
    if (tb.basis[r] < n) sol.x[tb.basis[r]] = tb.at(r, tb.rhs);
  }
  sol.objective = 0.0;
  for (int v = 0; v < n; ++v) sol.objective += model.objective[v] * sol.x[v];
  return sol;
}

}  // namespace reco::lp
