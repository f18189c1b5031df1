#include "core/support_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.hpp"
#include "matching/bottleneck.hpp"
#include "matching/hopcroft_karp.hpp"
#include "testing_util.hpp"
#include "trace/rng.hpp"

namespace reco {
namespace {

std::vector<int> to_vector(std::span<const int> s) { return {s.begin(), s.end()}; }

/// Check every index invariant against the dense matrix it wraps.
void expect_index_consistent(const SupportIndex& idx, double sum_tol = 1e-9) {
  const Matrix& m = idx.matrix();
  const int n = idx.n();
  std::vector<Time> col_sums(n);
  idx.col_sums_exact(col_sums.data());
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(col_sums[j]),
              std::bit_cast<std::uint64_t>(m.col_sum(j)))
        << "col " << j;
    EXPECT_NEAR(idx.col_sum(j), m.col_sum(j), sum_tol) << "col " << j;
  }
  int nnz = 0;
  for (int i = 0; i < n; ++i) {
    std::vector<int> expected;
    for (int j = 0; j < n; ++j) {
      if (m.at(i, j) != 0.0) expected.push_back(j);
    }
    nnz += static_cast<int>(expected.size());
    EXPECT_EQ(to_vector(idx.row_support(i)), expected) << "row " << i;
    EXPECT_NEAR(idx.row_sum(i), m.row_sum(i), sum_tol) << "row " << i;
    EXPECT_DOUBLE_EQ(idx.row_sum_exact(i), m.row_sum(i)) << "row " << i;
  }
  EXPECT_EQ(idx.nnz(), nnz);
  EXPECT_EQ(idx.nnz(), m.nnz());
  EXPECT_DOUBLE_EQ(idx.max_entry(), m.max_entry());
}

TEST(SupportIndex, BuildsFromMatrix) {
  const SupportIndex idx(Matrix::from_rows({{2, 0, 1}, {0, 0, 3}, {4, 5, 0}}));
  EXPECT_EQ(idx.nnz(), 5);
  EXPECT_EQ(to_vector(idx.row_support(0)), (std::vector<int>{0, 2}));
  EXPECT_EQ(to_vector(idx.row_support(1)), (std::vector<int>{2}));
  EXPECT_EQ(to_vector(idx.row_support(2)), (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(idx.row_sum(0), 3.0);
  EXPECT_DOUBLE_EQ(idx.row_sum(2), 9.0);
  EXPECT_DOUBLE_EQ(idx.col_sum(0), 6.0);
  std::vector<Time> col_sums(3);
  idx.col_sums_exact(col_sums.data());
  EXPECT_EQ(col_sums, (std::vector<Time>{6.0, 5.0, 4.0}));
  EXPECT_DOUBLE_EQ(idx.max_entry(), 5.0);
  expect_index_consistent(idx);
}

TEST(SupportIndex, ZerosIsAnEmptyIndex) {
  SupportIndex idx = SupportIndex::zeros(4);
  EXPECT_EQ(idx.n(), 4);
  EXPECT_EQ(idx.nnz(), 0);
  EXPECT_DOUBLE_EQ(idx.total(), 0.0);
  idx.set(1, 2, 3.5);
  EXPECT_EQ(idx.nnz(), 1);
  EXPECT_DOUBLE_EQ(idx.at(1, 2), 3.5);
  expect_index_consistent(idx);
}

TEST(SupportIndex, SetMaintainsSupportTransitions) {
  SupportIndex idx = SupportIndex::zeros(3);
  idx.set(0, 0, 1.0);   // enter
  idx.set(0, 0, 2.0);   // stay (value change only)
  EXPECT_EQ(idx.nnz(), 1);
  EXPECT_DOUBLE_EQ(idx.row_sum(0), 2.0);
  idx.set(0, 0, 0.0);   // leave
  EXPECT_EQ(idx.nnz(), 0);
  EXPECT_TRUE(idx.row_support(0).empty());
  std::vector<Time> col_sums(3, -1.0);
  idx.col_sums_exact(col_sums.data());
  EXPECT_EQ(col_sums, (std::vector<Time>{0.0, 0.0, 0.0}));
  expect_index_consistent(idx);
}

TEST(SupportIndex, SetSnapsSubToleranceToExactZero) {
  SupportIndex idx = SupportIndex::zeros(2);
  idx.set(0, 1, 0.5 * kTimeEps);  // below tolerance: must not enter support
  EXPECT_EQ(idx.nnz(), 0);
  EXPECT_EQ(idx.at(0, 1), 0.0);
  idx.set(0, 1, 1.0);
  idx.set(0, 1, 0.5 * kTimeEps);  // shrink below tolerance: must leave
  EXPECT_EQ(idx.nnz(), 0);
  EXPECT_EQ(idx.at(0, 1), 0.0);
  expect_index_consistent(idx);
}

TEST(SupportIndex, IngestSnapsCrumbs) {
  Matrix m(2);
  m.at(0, 0) = 5.0;
  m.at(1, 1) = 0.25 * kTimeEps;  // ingest crumb
  const SupportIndex idx(std::move(m));
  EXPECT_EQ(idx.nnz(), 1);
  EXPECT_EQ(idx.at(1, 1), 0.0);
}

TEST(SupportIndex, ReleaseMovesMatrixOut) {
  SupportIndex idx(Matrix::from_rows({{1, 0}, {0, 2}}));
  const Matrix m = idx.release();
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_TRUE(idx.empty());
}

TEST(SupportIndex, AddAccumulates) {
  SupportIndex idx = SupportIndex::zeros(2);
  idx.add(1, 0, 2.0);
  idx.add(1, 0, 3.0);
  EXPECT_DOUBLE_EQ(idx.at(1, 0), 5.0);
  idx.add(1, 0, -5.0);
  EXPECT_EQ(idx.nnz(), 0);
  expect_index_consistent(idx);
}

TEST(SupportIndexProperty, LongMutationSequencesStayConsistent) {
  // Incremental sums, supports and exact sums must match from-scratch
  // recomputation after long mutation sequences.
  Rng rng(20190707);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform_int(13));  // 4..16
    SupportIndex idx(testing::random_demand(rng, n, rng.uniform(0.05, 1.0), 0.5, 10.0));
    for (int step = 0; step < 500; ++step) {
      const int i = static_cast<int>(rng.uniform_int(n));
      const int j = static_cast<int>(rng.uniform_int(n));
      switch (rng.uniform_int(4)) {
        case 0: idx.set(i, j, rng.uniform(0.5, 10.0)); break;           // write
        case 1: idx.set(i, j, 0.0); break;                              // clear
        case 2: idx.add(i, j, rng.uniform(0.0, 2.0)); break;            // grow
        default: idx.set(i, j, clamp_zero(idx.at(i, j) - 0.75)); break; // peel-style shrink
      }
    }
    expect_index_consistent(idx, 1e-7);
  }
}

TEST(SupportIndexProperty, PeelStyleDrainStaysConsistent) {
  // Repeatedly subtract each row's minimum from every entry of the row —
  // the mutation pattern of BvN peeling (the min zeroes, the rest shrink)
  // — until the matrix drains, checking index consistency as it goes.
  Rng rng(42);
  SupportIndex idx(testing::random_demand(rng, 8, 0.4, 1.0, 4.0));
  int round = 0;
  while (idx.nnz() > 0) {
    for (int i = 0; i < idx.n(); ++i) {
      if (idx.row_support(i).empty()) continue;
      const std::vector<int> support = to_vector(idx.row_support(i));  // snapshot: sets erase
      double coefficient = idx.at(i, support.front());
      for (const int j : support) coefficient = std::min(coefficient, idx.at(i, j));
      for (const int j : support) idx.set(i, j, clamp_zero(idx.at(i, j) - coefficient));
    }
    if (++round % 3 == 0) expect_index_consistent(idx, 1e-7);
    ASSERT_LT(round, 1000) << "drain did not terminate";
  }
  expect_index_consistent(idx);
}

/// Everything a const reader can ask of an index, for comparing readers.
struct ConstReads {
  std::vector<MatchingResult> matchings;
  std::optional<BottleneckMatching> bottleneck;
  double max_entry = 0.0;
  std::vector<Time> row_sums;
  std::vector<Time> col_sums;
  std::string snapshot;
};

ConstReads read_all(const SupportIndex& idx) {
  ConstReads r;
  for (const double threshold : {kTimeEps, 2.0, 5.0, 9.0}) {
    r.matchings.push_back(threshold_matching(idx, threshold));
  }
  r.bottleneck = bottleneck_perfect_matching(idx.matrix());
  r.max_entry = idx.max_entry();
  for (int i = 0; i < idx.n(); ++i) r.row_sums.push_back(idx.row_sum_exact(i));
  r.col_sums.resize(idx.n());
  idx.col_sums_exact(r.col_sums.data());
  SnapshotWriter out;
  save_support_index(out, idx);
  r.snapshot = out.payload();
  return r;
}

void expect_same_reads(const ConstReads& got, const ConstReads& want) {
  ASSERT_EQ(got.matchings.size(), want.matchings.size());
  for (std::size_t t = 0; t < want.matchings.size(); ++t) {
    EXPECT_EQ(got.matchings[t].match_left, want.matchings[t].match_left) << "threshold " << t;
    EXPECT_EQ(got.matchings[t].size, want.matchings[t].size) << "threshold " << t;
  }
  ASSERT_EQ(got.bottleneck.has_value(), want.bottleneck.has_value());
  if (want.bottleneck) {
    EXPECT_EQ(got.bottleneck->pairs, want.bottleneck->pairs);
    EXPECT_EQ(got.bottleneck->bottleneck, want.bottleneck->bottleneck);
  }
  EXPECT_EQ(got.max_entry, want.max_entry);
  EXPECT_EQ(got.row_sums, want.row_sums);
  EXPECT_EQ(got.col_sums, want.col_sums);
  EXPECT_EQ(got.snapshot, want.snapshot);
}

TEST(SupportIndex, ConcurrentConstReadersAgree) {
  // Const members only read, so threads may share one index.  The in-place
  // adds leave every value changed since ingest; a reader that cached
  // values and refreshed them on read would race here (run under TSan).
  Rng rng(27);
  const int n = 64;
  Matrix m = testing::random_demand(rng, n, 0.2, 1.0, 10.0);
  for (int i = 0; i < n; ++i) m.at(i, i) = rng.uniform(1.0, 10.0);
  SupportIndex idx(std::move(m));
  for (int i = 0; i < n; ++i) {
    const std::vector<int> support = to_vector(idx.row_support(i));
    for (const int j : support) idx.add(i, j, rng.uniform(-0.5, 0.5));
  }
  const SupportIndex copy = idx;
  const ConstReads want = read_all(copy);
  ASSERT_TRUE(want.bottleneck.has_value());

  std::vector<ConstReads> got(4);
  std::vector<std::thread> readers;
  for (ConstReads& g : got) {
    readers.emplace_back([&idx, &g] { g = read_all(idx); });
  }
  for (std::thread& t : readers) t.join();
  for (const ConstReads& g : got) expect_same_reads(g, want);
}

}  // namespace
}  // namespace reco
