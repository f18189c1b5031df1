#include "sim/multi_fabric.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace reco::sim {

GreedyPriorityController::GreedyPriorityController(Time delta, Priority priority,
                                                   bool hold_to_largest)
    : delta_(delta), priority_(priority), hold_to_largest_(hold_to_largest) {}

std::optional<MultiAssignment> GreedyPriorityController::next_assignment(
    const FabricView& view) {
  const std::vector<Matrix>& residuals = *view.residuals;
  const int num_coflows = static_cast<int>(residuals.size());
  if (served_.size() != residuals.size()) served_.resize(residuals.size(), 0.0);

  // Schedulable coflows, by the chosen priority over *live* state.
  std::vector<int> order;
  for (int k = 0; k < num_coflows; ++k) {
    if ((*view.arrived)[k] && !(*view.finished)[k] &&
        residuals[k].max_entry() >= kMinServiceQuantum) {
      order.push_back(k);
    }
  }
  if (order.empty()) return std::nullopt;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    switch (priority_) {
      case Priority::kSmallestResidualFirst:
        return residuals[a].rho() < residuals[b].rho();
      case Priority::kLeastServedFirst: return served_[a] < served_[b];
    }
    return a < b;
  });

  const int n = residuals[order.front()].n();
  std::vector<char> in_used(n, 0);
  std::vector<char> out_used(n, 0);
  MultiAssignment a;
  Time smallest = std::numeric_limits<Time>::infinity();
  Time largest = 0.0;

  for (int k : order) {
    // Heaviest-first flows of this coflow onto still-free ports.
    struct Candidate {
      int i;
      int j;
      Time rem;
    };
    std::vector<Candidate> candidates;
    for (int i = 0; i < n; ++i) {
      if (in_used[i]) continue;
      for (int j = 0; j < n; ++j) {
        if (out_used[j]) continue;
        const Time rem = residuals[k].at(i, j);
        if (rem >= kMinServiceQuantum) candidates.push_back({i, j, rem});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) { return x.rem > y.rem; });
    for (const Candidate& cand : candidates) {
      if (in_used[cand.i] || out_used[cand.j]) continue;
      in_used[cand.i] = 1;
      out_used[cand.j] = 1;
      a.circuits.push_back({cand.i, cand.j});
      a.coflow_of.push_back(k);
      smallest = std::min(smallest, cand.rem);
      largest = std::max(largest, cand.rem);
    }
  }
  if (a.circuits.empty()) return std::nullopt;

  // Hold at least delta (Lemma 1's spirit: an establishment should carry
  // at least as much transmission as it costs) and at most until the
  // chosen drain point.
  const Time drain = hold_to_largest_ ? largest : smallest;
  a.duration = std::max(drain, delta_);

  // LAS accounting: charge what this establishment will actually serve.
  for (std::size_t c = 0; c < a.circuits.size(); ++c) {
    const Circuit& circuit = a.circuits[c];
    const Time rem = residuals[a.coflow_of[c]].at(circuit.in, circuit.out);
    served_[a.coflow_of[c]] += std::min(a.duration, rem);
  }
  return a;
}

MultiFabricReport simulate_multi_coflow(MultiCoflowController& controller,
                                        const std::vector<Coflow>& coflows, Time delta) {
  MultiFabricReport report;
  const int num_coflows = static_cast<int>(coflows.size());
  report.cct.assign(num_coflows, 0.0);
  if (coflows.empty()) {
    report.all_served = true;
    return report;
  }

  std::vector<Matrix> residuals;
  residuals.reserve(coflows.size());
  for (const Coflow& c : coflows) residuals.push_back(c.demand);
  std::vector<char> arrived(num_coflows, 0);
  std::vector<char> finished(num_coflows, 0);

  // Arrival instants, ascending.
  std::vector<int> by_arrival(num_coflows);
  std::iota(by_arrival.begin(), by_arrival.end(), 0);
  std::stable_sort(by_arrival.begin(), by_arrival.end(),
                   [&](int x, int y) { return coflows[x].arrival < coflows[y].arrival; });
  std::size_t next_arrival = 0;

  Time clock = 0.0;
  int remaining = num_coflows;
  int useless_streak = 0;  // guard against controllers that spin
  // Coflows with no demand at all complete at arrival.
  for (int k = 0; k < num_coflows; ++k) {
    if (residuals[k].max_entry() < kMinServiceQuantum) {
      finished[k] = 1;
      --remaining;
    }
  }

  // Idle until the next arrival; with none pending the run is over
  // (leftover demand stays unserved).
  const auto idle = [&] {
    if (next_arrival == by_arrival.size()) return false;
    clock = std::max(clock, coflows[by_arrival[next_arrival]].arrival);
    return true;
  };

  while (remaining > 0) {
    // Admit everything that has arrived by now.
    while (next_arrival < by_arrival.size() &&
           coflows[by_arrival[next_arrival]].arrival <= clock + kTimeEps) {
      arrived[by_arrival[next_arrival]] = 1;
      ++next_arrival;
    }

    FabricView view;
    view.now = clock;
    view.residuals = &residuals;
    view.arrived = &arrived;
    view.finished = &finished;
    const auto decision = controller.next_assignment(view);
    ++report.events;

    if (!decision.has_value()) {
      if (!idle()) break;
      continue;
    }

    // Execute: all-stop reconfiguration, then hold with early stop at the
    // largest serviced residual.  Circuits for coflows that are not live
    // are ignored.
    const auto live = [&](std::size_t c) {
      const int k = decision->coflow_of[c];
      return k >= 0 && k < num_coflows && arrived[k] && !finished[k];
    };
    Time max_rem = 0.0;
    for (std::size_t c = 0; c < decision->circuits.size(); ++c) {
      if (!live(c)) continue;
      const Circuit& circuit = decision->circuits[c];
      max_rem = std::max(max_rem, residuals[decision->coflow_of[c]].at(circuit.in, circuit.out));
    }
    if (max_rem < kMinServiceQuantum) {
      // A deterministic controller returning the same dead assignment
      // would spin forever; after a few strikes treat it as "idle".
      if (++useless_streak >= 3) {
        if (!idle()) break;
        useless_streak = 0;
      }
      continue;
    }
    useless_streak = 0;

    clock += delta;
    ++report.reconfigurations;
    const Time hold = std::min(decision->duration, max_rem);
    std::vector<std::pair<int, Time>> max_sent_of;  // (coflow, latest drain this round)
    for (std::size_t c = 0; c < decision->circuits.size(); ++c) {
      if (!live(c)) continue;
      const Circuit& circuit = decision->circuits[c];
      const int k = decision->coflow_of[c];
      Matrix& rem = residuals[k];
      const Time sent = std::min(hold, rem.at(circuit.in, circuit.out));
      rem.at(circuit.in, circuit.out) = clamp_zero(rem.at(circuit.in, circuit.out) - sent);
      bool seen = false;
      for (auto& [id, t] : max_sent_of) {
        if (id == k) {
          t = std::max(t, sent);
          seen = true;
        }
      }
      if (!seen) max_sent_of.emplace_back(k, sent);
    }
    // A coflow completes when its *last* circuit of this round drains.
    for (const auto& [k, sent] : max_sent_of) {
      if (!finished[k] && residuals[k].max_entry() < kMinServiceQuantum) {
        finished[k] = 1;
        --remaining;
        report.cct[k] = clock + sent - coflows[k].arrival;
      }
    }
    clock += hold;
    report.makespan = std::max(report.makespan, clock);
  }

  report.all_served = remaining == 0;
  for (int k = 0; k < num_coflows; ++k) {
    report.total_weighted_cct += coflows[k].weight * report.cct[k];
  }
  return report;
}

}  // namespace reco::sim
