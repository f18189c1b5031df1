#include "oracles/dense_reference.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "matching/bottleneck.hpp"
#include "matching/hopcroft_karp.hpp"
#include "oracles/schedule_checks.hpp"

namespace reco::dense_reference {

namespace {

constexpr double kSupportThreshold = 2 * kTimeEps;

/// The original dense incremental matcher: Kuhn augmentation probes every
/// column of a row, present edge or not.
class DenseMatcher {
 public:
  DenseMatcher(const Matrix& matrix, double threshold)
      : matrix_(&matrix),
        threshold_(threshold),
        n_(matrix.n()),
        match_left_(matrix.n(), -1),
        match_right_(matrix.n(), -1),
        visited_(matrix.n(), 0) {}

  double threshold() const { return threshold_; }

  void set_threshold(double threshold) {
    const bool raised = threshold > threshold_;
    threshold_ = threshold;
    if (!raised) return;
    for (int i = 0; i < n_; ++i) {
      const int j = match_left_[i];
      if (j != -1 && !edge_present(i, j)) {
        match_left_[i] = -1;
        match_right_[j] = -1;
        --size_;
      }
    }
  }

  void on_entry_changed(int i, int j) {
    if (match_left_[i] == j && !edge_present(i, j)) {
      match_left_[i] = -1;
      match_right_[j] = -1;
      --size_;
    }
  }

  int rematch() {
    for (int i = 0; i < n_; ++i) {
      if (match_left_[i] != -1) continue;
      ++stamp_;
      if (try_augment(i)) ++size_;
    }
    return size_;
  }

  bool is_perfect() const { return size_ == n_; }
  int matched_col(int i) const { return match_left_[i]; }

 private:
  bool edge_present(int i, int j) const {
    return matrix_->at(i, j) >= threshold_ - kTimeEps;
  }

  bool try_augment(int row) {
    for (int j = 0; j < n_; ++j) {
      if (visited_[j] == stamp_ || !edge_present(row, j)) continue;
      visited_[j] = stamp_;
      const int other = match_right_[j];
      if (other == -1 || try_augment(other)) {
        match_left_[row] = j;
        match_right_[j] = row;
        return true;
      }
    }
    return false;
  }

  const Matrix* matrix_;
  double threshold_;
  int n_;
  std::vector<int> match_left_;
  std::vector<int> match_right_;
  std::vector<int> visited_;
  int stamp_ = 0;
  int size_ = 0;
};

CircuitAssignment extract_and_subtract(Matrix& m, DenseMatcher& matcher, int& nnz_left) {
  const int n = m.n();
  double coefficient = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    coefficient = std::min(coefficient, m.at(i, matcher.matched_col(i)));
  }
  CircuitAssignment a;
  a.duration = coefficient;
  a.circuits.reserve(n);
  for (int i = 0; i < n; ++i) {
    const int j = matcher.matched_col(i);
    a.circuits.push_back({i, j});
    const double before = m.at(i, j);
    m.at(i, j) = clamp_zero(before - coefficient);
    if (approx_zero(m.at(i, j)) && !approx_zero(before)) --nnz_left;
    matcher.on_entry_changed(i, j);
  }
  return a;
}

CircuitSchedule peel(Matrix m, double initial_threshold, bool halve_on_failure) {
  CircuitSchedule schedule;
  int nnz_left = m.nnz();
  DenseMatcher matcher(m, initial_threshold);
  while (nnz_left > 0) {
    matcher.rematch();
    if (matcher.is_perfect()) {
      schedule.assignments.push_back(extract_and_subtract(m, matcher, nnz_left));
      continue;
    }
    if (!halve_on_failure || matcher.threshold() <= kSupportThreshold) {
      const CircuitSchedule tail = dense_reference::cover_decompose(std::move(m));
      for (const auto& a : tail.assignments) schedule.assignments.push_back(a);
      break;
    }
    const double next = matcher.threshold() / 2.0;
    matcher.set_threshold(next > kSupportThreshold ? next : kSupportThreshold);
  }
  return schedule;
}

// --- seed Hopcroft-Karp, kept verbatim as the oracle's matcher ----------

constexpr int kHkInf = std::numeric_limits<int>::max();

bool ref_bfs_layers(const std::vector<std::vector<int>>& adj, const std::vector<int>& match_left,
                    const std::vector<int>& match_right, std::vector<int>& dist) {
  std::deque<int> q;
  for (std::size_t u = 0; u < adj.size(); ++u) {
    if (match_left[u] == -1) {
      dist[u] = 0;
      q.push_back(static_cast<int>(u));
    } else {
      dist[u] = kHkInf;
    }
  }
  bool found = false;
  while (!q.empty()) {
    const int u = q.front();
    q.pop_front();
    for (int v : adj[u]) {
      const int w = match_right[v];
      if (w == -1) {
        found = true;
      } else if (dist[w] == kHkInf) {
        dist[w] = dist[u] + 1;
        q.push_back(w);
      }
    }
  }
  return found;
}

bool ref_dfs_augment(int u, const std::vector<std::vector<int>>& adj,
                     std::vector<int>& match_left, std::vector<int>& match_right,
                     std::vector<int>& dist) {
  for (int v : adj[u]) {
    const int w = match_right[v];
    if (w == -1 ||
        (dist[w] == dist[u] + 1 && ref_dfs_augment(w, adj, match_left, match_right, dist))) {
      match_left[u] = v;
      match_right[v] = u;
      return true;
    }
  }
  dist[u] = kHkInf;  // dead end: prune for this phase
  return false;
}

MatchingResult ref_hopcroft_karp(int n, const std::vector<std::vector<int>>& adj) {
  MatchingResult r;
  r.match_left.assign(n, -1);
  r.match_right.assign(n, -1);
  std::vector<int> dist(n);
  while (ref_bfs_layers(adj, r.match_left, r.match_right, dist)) {
    for (int u = 0; u < n; ++u) {
      if (r.match_left[u] == -1) {
        if (ref_dfs_augment(u, adj, r.match_left, r.match_right, dist)) ++r.size;
      }
    }
  }
  return r;
}

/// Adjacency of the support {(i,j) : m(i,j) >= threshold - eps}, columns
/// ascending.
std::vector<std::vector<int>> threshold_adjacency(const Matrix& m, double threshold) {
  std::vector<std::vector<int>> adj(m.n());
  for (int i = 0; i < m.n(); ++i) {
    for (int j = 0; j < m.n(); ++j) {
      if (m.at(i, j) >= threshold - kTimeEps) adj[i].push_back(j);
    }
  }
  return adj;
}

}  // namespace

std::optional<BottleneckMatching> bottleneck_perfect_matching_reference(const Matrix& m) {
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(m.n()) * m.n());
  for (int i = 0; i < m.n(); ++i) {
    for (int j = 0; j < m.n(); ++j) {
      const double x = m.at(i, j);
      if (!approx_zero(x)) values.push_back(x);
    }
  }
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  // Exactly-distinct ladder; the tolerance lives in threshold_adjacency's
  // `>= t - kTimeEps` edge test only (the epsilon-dedup fix).
  values.erase(std::unique(values.begin(), values.end()), values.end());

  const int n = m.n();
  const auto feasible = [&](double t) {
    return ref_hopcroft_karp(n, threshold_adjacency(m, t)).size == n;
  };

  // A perfect matching must exist at the smallest nonzero threshold.
  if (!feasible(values.front())) return std::nullopt;

  // Binary search for the largest threshold still admitting a perfect
  // matching.  Invariant: feasible at values[lo], infeasible at values[hi].
  std::size_t lo = 0;
  std::size_t hi = values.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (feasible(values[mid])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  const double best = values[lo];
  const MatchingResult r = ref_hopcroft_karp(n, threshold_adjacency(m, best));
  BottleneckMatching out;
  out.bottleneck = best;
  out.pairs.reserve(n);
  for (int i = 0; i < n; ++i) out.pairs.emplace_back(i, r.match_left[i]);
  return out;
}

CircuitSchedule cover_decompose(Matrix m) {
  CircuitSchedule schedule;
  while (m.nnz() > 0) {
    const MatchingResult match = threshold_matching(m, kSupportThreshold);
    CircuitAssignment a;
    for (int i = 0; i < m.n(); ++i) {
      const int j = match.match_left[i];
      if (j == -1) continue;
      a.duration = std::max(a.duration, m.at(i, j));
      a.circuits.push_back({i, j});
      m.at(i, j) = 0.0;
    }
    if (a.circuits.empty()) break;
    schedule.assignments.push_back(std::move(a));
  }
  return schedule;
}

CircuitSchedule bvn_decompose(Matrix m, BvnPolicy policy) {
  if (!oracle::is_doubly_stochastic(m, kTimeEps * std::max(1, m.n()))) {
    throw std::invalid_argument("dense_reference::bvn_decompose: matrix is not doubly stochastic");
  }
  if (m.n() == 0 || m.nnz() == 0) return {};
  switch (policy) {
    case BvnPolicy::kFirstMatching:
      return peel(std::move(m), kSupportThreshold, /*halve_on_failure=*/false);
    case BvnPolicy::kMaxMinAmortized: {
      const double start =
          std::max(std::exp2(std::ceil(std::log2(m.max_entry()))), kSupportThreshold);
      return peel(std::move(m), start, /*halve_on_failure=*/true);
    }
  }
  throw std::logic_error("dense_reference::bvn_decompose: unknown policy");
}

namespace {

/// Stuff `demand` so every line sums to max(rho, target).
Matrix stuff_to(const Matrix& demand, Time target) {
  const int n = demand.n();
  Matrix out = demand;
  const Time goal = std::max(demand.rho(), target);
  std::vector<Time> row_slack(n);
  std::vector<Time> col_slack(n);
  for (int i = 0; i < n; ++i) row_slack[i] = clamp_zero(goal - demand.row_sum(i));
  for (int j = 0; j < n; ++j) col_slack[j] = clamp_zero(goal - demand.col_sum(j));

  for (int i = 0; i < n; ++i) {
    if (approx_zero(row_slack[i])) continue;
    for (int j = 0; j < n && !approx_zero(row_slack[i]); ++j) {
      const Time add = std::min(row_slack[i], col_slack[j]);
      if (approx_zero(add)) continue;
      out.at(i, j) += add;
      row_slack[i] = clamp_zero(row_slack[i] - add);
      col_slack[j] = clamp_zero(col_slack[j] - add);
    }
  }

  std::vector<Time> col_need(n);
  bool any_col_need = false;
  for (int j = 0; j < n; ++j) {
    col_need[j] = goal - out.col_sum(j);
    any_col_need = any_col_need || col_need[j] > 0.0;
  }
  for (int i = 0; i < n; ++i) {
    Time need = goal - out.row_sum(i);
    if (need <= 0.0) continue;
    for (int pass = 0; pass < 2 && need > 0.0 && any_col_need; ++pass) {
      for (int j = 0; j < n && need > 0.0; ++j) {
        if (pass == 0 && approx_zero(out.at(i, j))) continue;
        const Time give = std::min(need, col_need[j]);
        if (give <= 0.0) continue;
        out.at(i, j) += give;
        col_need[j] -= give;
        need -= give;
      }
    }
    if (need > 0.0) out.at(i, i) += need;
  }
  return out;
}

}  // namespace

Matrix stuff(const Matrix& demand) { return stuff_to(demand, 0.0); }

Matrix stuff_granular(const Matrix& demand, Time quantum) {
  if (quantum <= 0.0) {
    throw std::invalid_argument("dense_reference::stuff_granular: quantum must be positive");
  }
  const Time rho = demand.rho();
  const Time goal = std::max(1.0, std::ceil(rho / quantum - kTimeEps)) * quantum;
  return stuff_to(demand, goal);
}

CircuitSchedule solstice(const Matrix& demand) {
  constexpr double kSliceFloor = 8 * kTimeEps;
  if (demand.nnz() == 0) return {};
  Matrix m = stuff(demand);

  CircuitSchedule schedule;
  int nnz_left = m.nnz();
  double r = std::exp2(std::ceil(std::log2(m.max_entry())));
  DenseMatcher matcher(m, r);

  while (nnz_left > 0 && r >= kSliceFloor) {
    matcher.rematch();
    if (!matcher.is_perfect()) {
      r /= 2.0;
      matcher.set_threshold(r);
      continue;
    }
    CircuitAssignment a;
    a.duration = r;
    a.circuits.reserve(m.n());
    for (int i = 0; i < m.n(); ++i) {
      const int j = matcher.matched_col(i);
      a.circuits.push_back({i, j});
      const double before = m.at(i, j);
      m.at(i, j) = clamp_zero(before - r);
      if (approx_zero(m.at(i, j)) && !approx_zero(before)) --nnz_left;
      matcher.on_entry_changed(i, j);
    }
    schedule.assignments.push_back(std::move(a));
  }

  if (nnz_left > 0) {
    const CircuitSchedule tail = dense_reference::cover_decompose(std::move(m));
    for (const auto& a : tail.assignments) schedule.assignments.push_back(a);
  }
  return schedule;
}

}  // namespace reco::dense_reference
