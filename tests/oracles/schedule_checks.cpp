#include "oracles/schedule_checks.hpp"

#include <algorithm>
#include <cmath>

#include "ocs/slice_executor.hpp"

namespace reco::oracle {

Matrix service_matrix(const CircuitSchedule& schedule, int n_ports) {
  Matrix service(n_ports);
  for (const auto& a : schedule.assignments) {
    for (const Circuit& c : a.circuits) {
      service.at(c.in, c.out) += a.duration;
    }
  }
  return service;
}

bool satisfies(const CircuitSchedule& schedule, const Matrix& demand) {
  const double eps = kTimeEps * std::max<std::size_t>(1, schedule.assignments.size());
  return covers(service_matrix(schedule, demand.n()), demand, eps);
}

bool covers(const Matrix& a, const Matrix& b, double eps) {
  if (a.n() != b.n()) return false;
  for (int i = 0; i < a.n(); ++i) {
    for (int j = 0; j < a.n(); ++j) {
      if (a.at(i, j) + eps < b.at(i, j)) return false;
    }
  }
  return true;
}

bool is_granular(const Matrix& m, double quantum, double eps) {
  if (quantum <= 0.0) return false;
  for (int i = 0; i < m.n(); ++i) {
    for (int j = 0; j < m.n(); ++j) {
      const double x = m.at(i, j);
      if (x < -eps) return false;
      const double k = std::round(x / quantum);
      if (std::abs(x - k * quantum) > eps) return false;
    }
  }
  return true;
}

bool is_doubly_stochastic(const Matrix& m, double eps) {
  if (m.n() == 0) return true;
  const Time target = m.row_sum(0);
  for (int i = 0; i < m.n(); ++i) {
    if (std::abs(m.row_sum(i) - target) > eps) return false;
  }
  for (int j = 0; j < m.n(); ++j) {
    if (std::abs(m.col_sum(j) - target) > eps) return false;
  }
  return true;
}

MultiExecutionStats analyze_schedule(const SliceSchedule& schedule, int num_coflows) {
  MultiExecutionStats stats;
  stats.cct = completion_times(schedule, num_coflows);
  stats.reconfigurations = count_reconfigurations(schedule);
  stats.makespan = makespan(schedule);
  return stats;
}

}  // namespace reco::oracle
