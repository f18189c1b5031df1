// Hopcroft-Karp on a flat adjacency (CSR).  Rows enter the BFS ascending,
// each row's edges are probed in order (ascending for the threshold
// builders), and the layered DFS prunes dead ends, so the matching found is
// the textbook recursion's.  The DFS runs on an explicit frame stack: a
// path-shaped graph's augmenting path can visit every row, deeper than a
// recursion should go at N = 512 and beyond.
#include "matching/hopcroft_karp.hpp"

#include <limits>

namespace reco {

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

/// Row u's right neighbours are col[off[u] .. off[u + 1]).  One flat build
/// per call: a probe allocates two vectors, not one per row.
struct Csr {
  std::vector<int> off{0};
  std::vector<int> col;

  int rows() const { return static_cast<int>(off.size()) - 1; }
  void end_row() { off.push_back(static_cast<int>(col.size())); }
};

/// Entries >= threshold - kTimeEps, columns ascending.
Csr csr_at(const Matrix& m, double threshold) {
  Csr g;
  for (int i = 0; i < m.n(); ++i) {
    for (int j = 0; j < m.n(); ++j) {
      if (m.at(i, j) >= threshold - kTimeEps) g.col.push_back(j);
    }
    g.end_row();
  }
  return g;
}

/// The same edges from the support lists in O(nnz); the index keeps each
/// row's support ascending, so the adjacency equals the dense build's.
Csr csr_at(const SupportIndex& idx, double threshold) {
  Csr g;
  for (int i = 0; i < idx.n(); ++i) {
    const double* row = idx.matrix().row_data(i);
    for (const int j : idx.row_support(i)) {
      if (row[j] >= threshold - kTimeEps) g.col.push_back(j);
    }
    g.end_row();
  }
  return g;
}

/// Layered BFS from every free row.  Returns true iff some layer reaches a
/// free column; `dist` receives each row's layer for the DFS phase.
bool bfs_layers(const Csr& g, const MatchingResult& r, std::vector<int>& dist,
                std::vector<int>& queue) {
  int head = 0;
  int tail = 0;
  for (int u = 0; u < g.rows(); ++u) {
    if (r.match_left[u] == -1) {
      dist[u] = 0;
      queue[tail++] = u;
    } else {
      dist[u] = kInf;
    }
  }
  bool found = false;
  while (head < tail) {
    const int u = queue[head++];
    for (int e = g.off[u]; e < g.off[u + 1]; ++e) {
      const int w = r.match_right[g.col[e]];
      if (w == -1) {
        found = true;
      } else if (dist[w] == kInf) {
        dist[w] = dist[u] + 1;
        queue[tail++] = w;
      }
    }
  }
  return found;
}

/// Layered DFS from free row `u0`: descend to a column's partner one layer
/// down, mark a dead-end row kInf for the rest of the phase, and on reaching
/// a free column match every frame to the column it is parked on.  Frame k
/// is (stack_u[k], edge cursor stack_e[k]).
bool dfs_augment(const Csr& g, int u0, MatchingResult& r, std::vector<int>& dist,
                 std::vector<int>& stack_u, std::vector<int>& stack_e) {
  stack_u[0] = u0;
  stack_e[0] = g.off[u0];
  int sp = 1;
  while (sp > 0) {
    const int u = stack_u[sp - 1];
    const int end = g.off[u + 1];
    int e = stack_e[sp - 1];
    int w = -1;
    for (; e < end; ++e) {
      w = r.match_right[g.col[e]];
      if (w == -1 || dist[w] == dist[u] + 1) break;
    }
    stack_e[sp - 1] = e;
    if (e == end) {
      dist[u] = kInf;  // dead end: prune for this phase
      if (--sp > 0) ++stack_e[sp - 1];
    } else if (w != -1) {
      stack_u[sp] = w;
      stack_e[sp] = g.off[w];
      ++sp;
    } else {
      for (int k = 0; k < sp; ++k) {
        const int v = g.col[stack_e[k]];
        r.match_left[stack_u[k]] = v;
        r.match_right[v] = stack_u[k];
      }
      return true;
    }
  }
  return false;
}

/// The graph is square: as many columns as rows.
MatchingResult maximum_matching(const Csr& g) {
  const auto n = static_cast<std::size_t>(g.rows());
  MatchingResult r;
  r.match_left.assign(n, -1);
  r.match_right.assign(n, -1);
  std::vector<int> dist(n);
  std::vector<int> queue(n);
  // Each frame holds a distinct row (layers strictly increase downward).
  std::vector<int> stack_u(n + 1);
  std::vector<int> stack_e(n + 1);
  while (r.size < g.rows() && bfs_layers(g, r, dist, queue)) {
    for (int u = 0; u < g.rows(); ++u) {
      if (r.match_left[u] == -1 && dfs_augment(g, u, r, dist, stack_u, stack_e)) ++r.size;
    }
  }
  return r;
}

}  // namespace

MatchingResult threshold_matching(const Matrix& m, double threshold) {
  return maximum_matching(csr_at(m, threshold));
}

MatchingResult threshold_matching(const SupportIndex& idx, double threshold) {
  return maximum_matching(csr_at(idx, threshold));
}

bool has_perfect_matching_at(const Matrix& m, double threshold) {
  return threshold_matching(m, threshold).size == m.n();
}

}  // namespace reco
