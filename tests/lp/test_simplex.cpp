#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include "trace/rng.hpp"

namespace reco::lp {
namespace {

TEST(Simplex, TrivialMinimum) {
  // min x, x >= 3.
  Model m;
  const int x = m.add_var(1.0);
  m.add_constraint({{{x, 1.0}}, Sense::kGe, 3.0});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
}

TEST(Simplex, ClassicTwoVarMaximization) {
  // max 3a + 5b st a <= 4, 2b <= 12, 3a + 2b <= 18  (expected a=2, b=6, z=36)
  Model m;
  const int a = m.add_var(-3.0);
  const int b = m.add_var(-5.0);
  m.add_constraint({{{a, 1.0}}, Sense::kLe, 4.0});
  m.add_constraint({{{b, 2.0}}, Sense::kLe, 12.0});
  m.add_constraint({{{a, 3.0}, {b, 2.0}}, Sense::kLe, 18.0});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.x[a], 2.0, 1e-9);
  EXPECT_NEAR(s.x[b], 6.0, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  // min a + 2b st a + b = 5, b >= 1.
  Model m;
  const int a = m.add_var(1.0);
  const int b = m.add_var(2.0);
  m.add_constraint({{{a, 1.0}, {b, 1.0}}, Sense::kEq, 5.0});
  m.add_constraint({{{b, 1.0}}, Sense::kGe, 1.0});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0 + 2.0, 1e-9);  // a=4, b=1
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2.
  Model m;
  const int x = m.add_var(1.0);
  m.add_constraint({{{x, 1.0}}, Sense::kLe, 1.0});
  m.add_constraint({{{x, 1.0}}, Sense::kGe, 2.0});
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x with x unbounded above.
  Model m;
  const int x = m.add_var(-1.0);
  m.add_constraint({{{x, 1.0}}, Sense::kGe, 0.0});
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalized) {
  // -x <= -2  (i.e. x >= 2), min x.
  Model m;
  const int x = m.add_var(1.0);
  m.add_constraint({{{x, -1.0}}, Sense::kLe, -2.0});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 2 twice; min x.
  Model m;
  const int x = m.add_var(1.0);
  const int y = m.add_var(0.0);
  m.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0});
  m.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 0.0, 1e-9);
  EXPECT_NEAR(s.x[y], 2.0, 1e-9);
}

TEST(Simplex, TransportationProblem) {
  // 2x2 transportation: supplies {3, 5}, demands {4, 4},
  // costs [[1, 4], [2, 1]].  Optimal: x00=3, x10=1, x11=4 -> 3 + 2 + 4 = 9.
  Model m;
  std::vector<int> v;
  const double cost[2][2] = {{1, 4}, {2, 1}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) v.push_back(m.add_var(cost[i][j]));
  }
  m.add_constraint({{{v[0], 1.0}, {v[1], 1.0}}, Sense::kEq, 3.0});
  m.add_constraint({{{v[2], 1.0}, {v[3], 1.0}}, Sense::kEq, 5.0});
  m.add_constraint({{{v[0], 1.0}, {v[2], 1.0}}, Sense::kEq, 4.0});
  m.add_constraint({{{v[1], 1.0}, {v[3], 1.0}}, Sense::kEq, 4.0});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);
}

TEST(Simplex, RandomLpsSatisfyConstraints) {
  Rng rng(81);
  for (int trial = 0; trial < 30; ++trial) {
    Model m;
    const int n = rng.uniform_int(2, 6);
    for (int v = 0; v < n; ++v) m.add_var(rng.uniform(0.1, 2.0));  // positive costs
    const int rows = rng.uniform_int(1, 5);
    for (int r = 0; r < rows; ++r) {
      Constraint c;
      c.sense = Sense::kGe;  // covering constraints: always feasible
      c.rhs = rng.uniform(1.0, 5.0);
      for (int v = 0; v < n; ++v) {
        if (rng.uniform() < 0.7) c.terms.emplace_back(v, rng.uniform(0.2, 2.0));
      }
      if (c.terms.empty()) c.terms.emplace_back(0, 1.0);
      m.add_constraint(std::move(c));
    }
    const Solution s = solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
    for (const Constraint& c : m.constraints) {
      double lhs = 0.0;
      for (const auto& [v, coeff] : c.terms) lhs += coeff * s.x[v];
      EXPECT_GE(lhs, c.rhs - 1e-6) << "trial " << trial;
    }
    for (double x : s.x) EXPECT_GE(x, -1e-9);
  }
}

TEST(Simplex, BadVarIndexThrows) {
  Model m;
  m.add_var(1.0);
  m.add_constraint({{{5, 1.0}}, Sense::kLe, 1.0});
  EXPECT_THROW(solve(m), std::invalid_argument);
}

}  // namespace
}  // namespace reco::lp
