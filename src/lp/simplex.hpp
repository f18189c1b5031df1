// Dense two-phase primal simplex for small/medium linear programs.
//
// The paper's evaluation embeds GUROBI to solve the interval-indexed LP of
// LP-II-GB (Qiu-Stein-Zhong).  This repo has no external solver, so we
// build one: a textbook two-phase tableau simplex with Dantzig pricing and
// a Bland's-rule fallback for anti-cycling.  Exact for the instance sizes
// the benches use (thousands of variables/constraints); see DESIGN.md for
// the scaling notes.
#pragma once

#include <vector>

namespace reco::lp {

enum class Sense { kLe, kGe, kEq };

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

/// A sparse constraint row: sum(coeff_i * x_{var_i}) <sense> rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// minimize c.x subject to constraints, x >= 0.
struct Model {
  int num_vars = 0;
  std::vector<double> objective;  ///< size num_vars, minimized
  std::vector<Constraint> constraints;

  /// Create a variable with the given objective coefficient; returns index.
  int add_var(double cost);
  void add_constraint(Constraint c) { constraints.push_back(std::move(c)); }
};

struct Solution {
  SolveStatus status = SolveStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;
};

/// Solve the model.  Both phases together pivot at most 200 + 20 * (rows +
/// tableau columns) times; a model that needs more reports kIterLimit.
Solution solve(const Model& model);

}  // namespace reco::lp
