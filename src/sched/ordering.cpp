#include "sched/ordering.hpp"

#include <algorithm>
#include <numeric>

#include "lp/model.hpp"
#include "runtime/parallel.hpp"

namespace reco {

namespace {

/// BSSI primal-dual core over pre-filled flat loads and weights: consumes
/// scratch.load / scratch.w (clobbering w and port_total) and writes the
/// permutation into `order`.  Shared by the offline Coflow path and the
/// online residual path so the two stay bit-identical by construction.
void bssi_from_loads(int num_coflows, int num_ports, OrderingScratch& scratch,
                     std::vector<int>& order) {
  const std::vector<double>& load = scratch.load;
  std::vector<double>& w = scratch.w;
  const auto load_at = [&](int k, int p) { return load[static_cast<std::size_t>(k) * num_ports + p]; };

  scratch.placed.assign(num_coflows, 0);
  scratch.port_total.assign(num_ports, 0.0);
  for (int k = 0; k < num_coflows; ++k) {
    for (int p = 0; p < num_ports; ++p) scratch.port_total[p] += load_at(k, p);
  }

  order.assign(num_coflows, -1);
  for (int pos = num_coflows - 1; pos >= 0; --pos) {
    // Most bottlenecked port among unplaced coflows: the strict-greater
    // scan keeps the first maximum, so ties go to the lowest port.
    int b = 0;
    for (int p = 1; p < num_ports; ++p) {
      if (scratch.port_total[p] > scratch.port_total[b]) b = p;
    }
    // Coflow that "pays least" for finishing last on b: min w'_k / load_b(k).
    int j_star = -1;
    double best = 0.0;
    for (int k = 0; k < num_coflows; ++k) {
      if (scratch.placed[k] || load_at(k, b) <= 0.0) continue;
      const double ratio = w[k] / load_at(k, b);
      if (j_star == -1 || ratio < best) {
        best = ratio;
        j_star = k;
      }
    }
    if (j_star == -1) {
      // No unplaced coflow touches the busiest port => all remaining loads
      // are zero (empty coflows); place any one of them.
      for (int k = 0; k < num_coflows && j_star == -1; ++k) {
        if (!scratch.placed[k]) j_star = k;
      }
    }
    order[pos] = j_star;
    scratch.placed[j_star] = 1;
    // Dual update: the chosen coflow's weight-per-load sets the price theta;
    // every remaining coflow is charged for its share of port b.
    const double theta = load_at(j_star, b) > 0.0 ? w[j_star] / load_at(j_star, b) : 0.0;
    for (int k = 0; k < num_coflows; ++k) {
      if (!scratch.placed[k]) w[k] = std::max(0.0, w[k] - theta * load_at(k, b));
    }
    for (int p = 0; p < num_ports; ++p) scratch.port_total[p] -= load_at(j_star, p);
  }
}

}  // namespace

std::vector<int> sebf_order(const std::vector<Coflow>& coflows) {
  std::vector<int> order(coflows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return coflows[a].bottleneck() < coflows[b].bottleneck();
  });
  return order;
}

std::vector<int> bssi_order(const std::vector<Coflow>& coflows) {
  const int num_coflows = static_cast<int>(coflows.size());
  if (num_coflows == 0) return {};
  const int n = coflows.front().demand.n();
  const int num_ports = 2 * n;

  OrderingScratch scratch;
  scratch.load.assign(static_cast<std::size_t>(num_coflows) * num_ports, 0.0);
  // Per-port loads over 2n ports (ingress 0..n-1, egress n..2n-1); each
  // parallel worker writes only its own coflow's row.
  runtime::parallel_for(num_coflows, [&](int k) {
    double* row = scratch.load.data() + static_cast<std::size_t>(k) * num_ports;
    const Matrix& d = coflows[k].demand;
    for (int i = 0; i < n; ++i) row[i] = d.row_sum(i);
    for (int j = 0; j < n; ++j) row[n + j] = d.col_sum(j);
  });
  scratch.w.resize(num_coflows);
  for (int k = 0; k < num_coflows; ++k) scratch.w[k] = coflows[k].weight;

  std::vector<int> order;
  bssi_from_loads(num_coflows, num_ports, scratch, order);
  return order;
}

std::vector<int> lp_order(const std::vector<Coflow>& coflows) {
  const lp::IntervalLpResult r = lp::solve_interval_indexed_lp(coflows);
  if (r.status != lp::SolveStatus::kOptimal) return bssi_order(coflows);
  std::vector<int> order(coflows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return r.est_completion[a] < r.est_completion[b];
  });
  return order;
}

std::vector<int> order_coflows(const std::vector<Coflow>& coflows, OrderingPolicy policy) {
  switch (policy) {
    case OrderingPolicy::kSebf: return sebf_order(coflows);
    case OrderingPolicy::kBssi: return bssi_order(coflows);
    case OrderingPolicy::kLp: return lp_order(coflows);
  }
  return sebf_order(coflows);
}

void order_residuals_into(const std::vector<const SupportIndex*>& residuals,
                          const std::vector<double>& weights, OrderingPolicy policy,
                          OrderingScratch& scratch, std::vector<int>& order) {
  const int num_coflows = static_cast<int>(residuals.size());
  if (num_coflows == 0) {
    order.clear();
    return;
  }
  // Per-port exact loads over 2n ports (ingress 0..n-1, egress n..2n-1),
  // bit-identical to the Matrix scans because every skipped entry is
  // exactly 0.0; each parallel worker writes only its own coflow's row.
  const int n = residuals.front()->n();
  const int num_ports = 2 * n;
  scratch.load.resize(static_cast<std::size_t>(num_coflows) * num_ports);
  runtime::parallel_for(num_coflows, [&](int k) {
    double* row = scratch.load.data() + static_cast<std::size_t>(k) * num_ports;
    const SupportIndex& r = *residuals[k];
    for (int i = 0; i < n; ++i) row[i] = r.row_sum_exact(i);
    r.col_sums_exact(row + n);
  });
  if (policy == OrderingPolicy::kSebf) {
    // Each coflow's bottleneck is its largest port load: Matrix::rho().
    scratch.key.resize(num_coflows);
    for (int k = 0; k < num_coflows; ++k) {
      const double* row = scratch.load.data() + static_cast<std::size_t>(k) * num_ports;
      Time rho = 0.0;
      for (int p = 0; p < num_ports; ++p) rho = std::max(rho, row[p]);
      scratch.key[k] = rho;
    }
    order.resize(num_coflows);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return scratch.key[a] < scratch.key[b]; });
    return;
  }

  // kBssi.
  scratch.w.assign(weights.begin(), weights.end());
  bssi_from_loads(num_coflows, num_ports, scratch, order);
}

}  // namespace reco
