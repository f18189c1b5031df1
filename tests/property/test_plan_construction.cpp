// Reco-Sin's plan front end, made cheaper without moving a bit:
//
//   * SupportIndex ingest (the constructor, and assign() over an index
//     that held other matrices) makes one branch-free pass over the dense
//     storage.  It must leave what a plain row-major scan gives: the same
//     snapped values, the same ascending supports, and sums added in the
//     same order.
//   * regularize() rounds an index's values where they lie.  It must leave
//     what the entry-by-entry build into zeros(n) left
//     (tests/oracles/regularize_by_set.hpp): support, values, incremental
//     and exact sums, and the regularize.* counters, bit for bit, also when
//     a value rounds below kTimeEps and leaves the support.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bvn/regularization.hpp"
#include "core/matrix.hpp"
#include "core/support_index.hpp"
#include "obs/obs.hpp"
#include "oracles/regularize_by_set.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<int> to_vector(std::span<const int> s) { return {s.begin(), s.end()}; }

/// Random n x n matrix with every kind of cell ingest must handle: exact
/// zeros, negative zeros, sub-tolerance crumbs of either sign, negative
/// demands and ordinary positive demands.
Matrix mixed_matrix(Rng& rng, int n, double density) {
  Matrix m(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() >= density) continue;
      switch (rng.uniform_int(6)) {
        case 0:
          m.at(i, j) = -0.0;
          break;
        case 1:
          m.at(i, j) = rng.uniform(-0.99, 0.99) * kTimeEps;  // crumb
          break;
        case 2:
          m.at(i, j) = -rng.uniform(1e-6, 3.0);
          break;
        case 3:
          m.at(i, j) = rng.uniform(1.0, 2.0) * kTimeEps;  // just above the snap
          break;
        default:
          m.at(i, j) = rng.uniform(1e-5, 10.0);
          break;
      }
    }
  }
  return m;
}

/// What an index over `m` must hold, from one plain row-major scan.
struct RowMajorReference {
  Matrix snapped;
  std::vector<std::vector<int>> rows;
  std::vector<double> row_sums;
  std::vector<double> col_sums;
  int nnz = 0;

  explicit RowMajorReference(const Matrix& m)
      : snapped(m.n()), rows(m.n()), row_sums(m.n(), 0.0), col_sums(m.n(), 0.0) {
    for (int i = 0; i < m.n(); ++i) {
      for (int j = 0; j < m.n(); ++j) {
        const double v = approx_zero(m.at(i, j)) ? 0.0 : m.at(i, j);
        snapped.at(i, j) = v;
        if (v == 0.0) continue;
        rows[i].push_back(j);
        row_sums[i] += v;
        col_sums[j] += v;
        ++nnz;
      }
    }
  }
};

void expect_matches_reference(const SupportIndex& idx, const RowMajorReference& ref,
                              const std::string& where) {
  const int n = ref.snapped.n();
  ASSERT_EQ(idx.n(), n) << where;
  EXPECT_EQ(idx.nnz(), ref.nnz) << where;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bits(idx.at(i, j)), bits(ref.snapped.at(i, j))) << where << " cell " << i << "," << j;
    }
    EXPECT_EQ(to_vector(idx.row_support(i)), ref.rows[i]) << where << " row " << i;
    EXPECT_EQ(bits(idx.row_sum(i)), bits(ref.row_sums[i])) << where << " row " << i;
  }
  std::vector<double> col_sums(n);
  idx.col_sums_exact(col_sums.data());
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(bits(idx.col_sum(j)), bits(ref.col_sums[j])) << where << " col " << j;
    EXPECT_EQ(bits(col_sums[j]), bits(ref.col_sums[j])) << where << " col " << j;
  }
}

constexpr int kSizes[] = {1, 2, 5, 24, 63, 64, 65, 150};
constexpr double kDensities[] = {0.0, 0.05, 0.3, 1.0};

TEST(IngestEquivalence, ConstructorMatchesRowMajorScan) {
  Rng rng(41);
  for (const int n : kSizes) {
    for (const double density : kDensities) {
      const Matrix m = mixed_matrix(rng, n, density);
      const std::string where = "n=" + std::to_string(n) + " density=" + std::to_string(density);
      expect_matches_reference(SupportIndex(m), RowMajorReference(m), where);
    }
  }
}

TEST(IngestEquivalence, AssignMatchesRowMajorScan) {
  // One index re-seated over matrices of every size and shape, so assign()
  // runs over arenas left larger and smaller by the previous matrix, and
  // over rows that set() changed in between.
  Rng rng(43);
  SupportIndex idx;
  for (int round = 0; round < 3; ++round) {
    for (const int n : kSizes) {
      for (const double density : kDensities) {
        const Matrix m = mixed_matrix(rng, n, density);
        idx.assign(m);
        const std::string where = "round=" + std::to_string(round) + " n=" + std::to_string(n) +
                                  " density=" + std::to_string(density);
        expect_matches_reference(idx, RowMajorReference(m), where);
        for (int k = 0; k < n; ++k) idx.set(rng.uniform_int(n), rng.uniform_int(n), 1.5);
      }
    }
  }
}

TEST(IngestEquivalence, ReseatedAssignMatchesWithoutAllocating) {
  // The online scheduler's recycled slots: every index, whether built by
  // the constructor or by zeros(n), re-seated with any n x n demand must
  // neither grow nor lose its capacity, and must hold what a fresh ingest
  // holds.
  Rng rng(47);
  for (const int n : {5, 16, 24, 65}) {
    for (const bool from_zeros : {false, true}) {
      SupportIndex idx = from_zeros ? SupportIndex::zeros(n) : SupportIndex(Matrix(n));
      const std::size_t footprint = idx.capacity_footprint();
      for (int round = 0; round < 6; ++round) {
        for (const double density : kDensities) {
          const Matrix m = mixed_matrix(rng, n, density);
          idx.assign(m);
          const std::string where = "n=" + std::to_string(n) + " zeros=" +
                                    std::to_string(from_zeros) + " round=" +
                                    std::to_string(round) + " density=" + std::to_string(density);
          expect_matches_reference(idx, RowMajorReference(m), where);
          // Fill a whole row and column: a row never outgrows its n slots.
          const int r = rng.uniform_int(n);
          for (int j = 0; j < n; ++j) idx.set(r, j, 2.0);
          for (int i = 0; i < n; ++i) idx.set(i, r, 3.0);
          EXPECT_EQ(idx.capacity_footprint(), footprint) << where;
        }
      }
    }
  }
}

void expect_same_index(const SupportIndex& got, const SupportIndex& want,
                       const std::string& where) {
  const int n = want.n();
  ASSERT_EQ(got.n(), n) << where;
  EXPECT_EQ(got.nnz(), want.nnz()) << where;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bits(got.at(i, j)), bits(want.at(i, j))) << where << " cell " << i << "," << j;
    }
    EXPECT_EQ(to_vector(got.row_support(i)), to_vector(want.row_support(i))) << where << " row " << i;
    EXPECT_EQ(bits(got.row_sum(i)), bits(want.row_sum(i))) << where << " row " << i;
    EXPECT_EQ(bits(got.row_sum_exact(i)), bits(want.row_sum_exact(i))) << where << " row " << i;
  }
  std::vector<double> got_cols(n);
  std::vector<double> want_cols(n);
  got.col_sums_exact(got_cols.data());
  want.col_sums_exact(want_cols.data());
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(bits(got.col_sum(j)), bits(want.col_sum(j))) << where << " col " << j;
    EXPECT_EQ(bits(got_cols[j]), bits(want_cols[j])) << where << " col " << j;
  }
}

/// Indexes as the planners hand them over: some fresh from ingest, some
/// worked by set() first, so rows carry drifted incremental sums.
std::vector<SupportIndex> regularize_inputs(Rng& rng) {
  std::vector<SupportIndex> out;
  for (const int n : {1, 3, 8, 24, 65}) {
    for (const double density : {0.1, 0.5, 1.0}) {
      out.emplace_back(mixed_matrix(rng, n, density));
      SupportIndex worked(mixed_matrix(rng, n, density));
      for (int k = 0; k < 3 * n; ++k) {
        const int i = rng.uniform_int(n);
        const int j = rng.uniform_int(n);
        worked.add(i, j, rng.uniform(-1.0, 4.0));
      }
      out.push_back(std::move(worked));
    }
  }
  return out;
}

/// Ordinary, odd and tiny quanta; the last three round a negative demand
/// (which becomes one quantum) below kTimeEps, so it leaves the support.
constexpr double kQuanta[] = {1.0, 0.37, 1.0 / 3.0, 100e-6, 7.3e-5, 1e-9, 3e-10, 1e-12, 5e-15};

TEST(RegularizeInPlace, MatchesEntryByEntryBuild) {
  Rng rng(53);
  const std::vector<SupportIndex> inputs = regularize_inputs(rng);
  int left_support = 0;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    for (const double quantum : kQuanta) {
      const std::string where =
          "input=" + std::to_string(t) + " quantum=" + std::to_string(quantum);
      const SupportIndex want = oracle::regularize_by_set(inputs[t], quantum);
      SupportIndex copy = inputs[t];
      const std::size_t footprint = copy.capacity_footprint();
      const SupportIndex got = regularize(std::move(copy), quantum);
      expect_same_index(got, want, where);
      // Rounded where they lie: nothing allocated.
      EXPECT_EQ(got.capacity_footprint(), footprint) << where;
      left_support += inputs[t].nnz() - got.nnz();
    }
  }
  EXPECT_GT(left_support, 0) << "no input exercised the snap-to-zero rule";
}

TEST(RegularizeInPlace, CountersMatchEntryByEntryBuild) {
  Rng rng(59);
  const std::vector<SupportIndex> inputs = regularize_inputs(rng);
  const char* const names[] = {"regularize.calls", "regularize.padding_total",
                               "regularize.entries", "regularize.delta_nnz_bound"};
  const auto counters = [&] {
    std::vector<std::uint64_t> out;
    for (const char* name : names) out.push_back(bits(obs::metrics().counter(name).value()));
    return out;
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    for (const double quantum : kQuanta) {
      obs::reset();
      (void)oracle::regularize_by_set(inputs[t], quantum);
      const std::vector<std::uint64_t> want = counters();
      obs::reset();
      (void)regularize(inputs[t], quantum);
      EXPECT_EQ(counters(), want) << "input=" << t << " quantum=" << quantum;
    }
  }
  obs::set_enabled(was_enabled);
  obs::reset();
}

}  // namespace
}  // namespace reco
