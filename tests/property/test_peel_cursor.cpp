// PeelCursor is the one BvN peel: bvn_decompose drains it, and recovery
// replans pull only the assignments they run.  A drained cursor must give
// bvn_decompose's schedule bit for bit over the fixture families of the
// sparse-equivalence sweeps, and the cover_decompose tail must be handed
// out like any other assignment.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bvn/bvn.hpp"
#include "bvn/regularization.hpp"
#include "bvn/stuffing.hpp"
#include "core/support_index.hpp"
#include "obs/obs.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

constexpr BvnPolicy kAllPolicies[] = {BvnPolicy::kFirstMatching, BvnPolicy::kMaxMinAmortized};

CircuitSchedule drain(const Matrix& m, BvnPolicy policy) {
  PeelCursor cursor(SupportIndex(m), policy);
  CircuitSchedule out;
  while (std::optional<CircuitAssignment> a = cursor.next()) {
    out.assignments.push_back(std::move(*a));
  }
  EXPECT_FALSE(cursor.next().has_value()) << "a spent cursor must stay spent";
  return out;
}

void expect_bit_identical(const CircuitSchedule& a, const CircuitSchedule& b,
                          const std::string& context) {
  ASSERT_EQ(a.num_assignments(), b.num_assignments()) << context;
  for (int u = 0; u < a.num_assignments(); ++u) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.assignments[u].duration),
              std::bit_cast<std::uint64_t>(b.assignments[u].duration))
        << context << " assignment " << u;
    EXPECT_EQ(a.assignments[u].circuits, b.assignments[u].circuits)
        << context << " assignment " << u;
  }
}

void expect_drain_matches(const Matrix& m, const std::string& context) {
  for (const BvnPolicy policy : kAllPolicies) {
    const std::string where =
        context + (policy == BvnPolicy::kFirstMatching ? " first" : " maxmin");
    expect_bit_identical(drain(m, policy), bvn_decompose(m, policy), where);
  }
}

TEST(PeelCursor, DrainMatchesDecompose) {
  // Stuffed random demands, across the bitset's 64-column word boundary.
  Rng rng(11);
  for (const int n : {4, 8, 16, 24, 63, 64, 65, 129}) {
    for (const double density : {0.05, 0.2, 0.6, 1.0}) {
      if (n > 65 && density > 0.2) continue;
      const Matrix stuffed = stuff(testing::random_demand(rng, n, density, 0.5, 10.0));
      expect_drain_matches(stuffed, "stuffed n=" + std::to_string(n) +
                                        " density=" + std::to_string(density));
    }
  }
  // Birkhoff-structured inputs: no stuffing in front of the peel.
  Rng birkhoff(13);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + static_cast<int>(birkhoff.uniform_int(12));
    const int perms = 2 + static_cast<int>(birkhoff.uniform_int(5));
    expect_drain_matches(testing::random_doubly_stochastic(birkhoff, n, perms, 0.5, 4.0),
                         "birkhoff trial=" + std::to_string(trial));
  }
  // Reco-Sin's own input: regularized, then stuffed to a quantum multiple.
  Rng pipeline(19);
  const Time delta = 0.25;
  for (const int n : {4, 16, 65}) {
    for (const double density : {0.05, 0.6}) {
      const Matrix demand = testing::random_demand(pipeline, n, density, 1.0, 10.0);
      expect_drain_matches(stuff_granular(regularize(demand, delta), delta),
                           "reco-sin n=" + std::to_string(n) +
                               " density=" + std::to_string(density));
    }
  }
}

TEST(PeelCursor, EmptyAndRejectedInputs) {
  for (const BvnPolicy policy : kAllPolicies) {
    PeelCursor empty(SupportIndex(Matrix(4)), policy);
    EXPECT_FALSE(empty.next().has_value());
    Matrix lopsided(2);
    lopsided.at(0, 0) = 1.0;
    EXPECT_THROW((PeelCursor{SupportIndex(lopsided), policy}), std::invalid_argument);
  }
}

TEST(PeelCursor, CoverTailIsPulledLikeAnyAssignment) {
  // A 3x3 identity plus one off-diagonal crumb: the sums differ by 2e-9,
  // inside the doubly-stochastic tolerance (3e-9), and the crumb is above
  // the support threshold.  After the identity is peeled the crumb has no
  // perfect matching, so the peel hands the rest to cover_decompose.
  Matrix m(3);
  for (int i = 0; i < 3; ++i) m.at(i, i) = 1.0;
  m.at(0, 1) = 2e-9;
  for (const BvnPolicy policy : kAllPolicies) {
    const bool was_enabled = obs::enabled();
    obs::reset();
    obs::set_enabled(true);
    const CircuitSchedule pulled = drain(m, policy);
    obs::set_enabled(was_enabled);
    std::ostringstream json;
    obs::tracer().write_chrome_json(json);
    obs::reset();
    EXPECT_NE(json.str().find("\"name\":\"bvn.cover_decompose\""), std::string::npos)
        << "the peel never reached its cover_decompose tail";
    ASSERT_EQ(pulled.num_assignments(), 2);
    EXPECT_EQ(pulled.assignments[0].duration, 1.0);
    EXPECT_EQ(pulled.assignments[1].circuits, (std::vector<Circuit>{Circuit{0, 1}}));
    EXPECT_EQ(pulled.assignments[1].duration, 2e-9);
    expect_bit_identical(pulled, bvn_decompose(m, policy), "crumb");
  }
}

}  // namespace
}  // namespace reco
