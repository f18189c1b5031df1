#include "core/circuit.hpp"

#include <sstream>
#include <vector>

namespace reco {

bool CircuitAssignment::is_matching(int n_ports) const {
  std::vector<char> in_used(n_ports, 0);
  std::vector<char> out_used(n_ports, 0);
  for (const Circuit& c : circuits) {
    if (c.in < 0 || c.in >= n_ports || c.out < 0 || c.out >= n_ports) return false;
    if (in_used[c.in] || out_used[c.out]) return false;
    in_used[c.in] = 1;
    out_used[c.out] = 1;
  }
  return true;
}

Time CircuitSchedule::planned_transmission_time() const {
  Time t = 0.0;
  for (const auto& a : assignments) t += a.duration;
  return t;
}

bool CircuitSchedule::is_valid(int n_ports) const {
  for (const auto& a : assignments) {
    if (a.duration < -kTimeEps) return false;
    if (!a.is_matching(n_ports)) return false;
  }
  return true;
}

std::string CircuitSchedule::to_string() const {
  std::ostringstream out;
  int u = 0;
  for (const auto& a : assignments) {
    out << "C(" << u++ << ") dur=" << a.duration << " {";
    for (std::size_t k = 0; k < a.circuits.size(); ++k) {
      out << (k ? ", " : "") << a.circuits[k].in << "->" << a.circuits[k].out;
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace reco
