// Multi-coflow event-driven OCS: coflows arrive over time, the fabric is
// all-stop, and a controller is consulted at every decision instant
// (arrival while idle, or establishment drain) with the *live residual
// demands* of all arrived, unfinished coflows.
//
// This is the dynamic-scheduling counterpart of the paper's offline
// pipelines and the home of OMCO-style [34] heuristics: no precomputed
// schedule exists because future arrivals are unknown.  The fabric is
// ideal: every setup takes exactly delta and every port stays up (fault
// injection runs on the single-coflow fabric, sim/fabric.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/circuit.hpp"
#include "core/coflow.hpp"
#include "core/matrix.hpp"
#include "core/types.hpp"

namespace reco::sim {

/// One establishment decision: which circuits, which coflow each circuit
/// serves, and how long to hold.
struct MultiAssignment {
  /// Parallel arrays: circuit c serves `coflow_of[c]`'s demand.
  std::vector<Circuit> circuits;
  std::vector<int> coflow_of;  ///< indices into the simulator's coflow list
  Time duration = 0.0;
};

/// Live view handed to the controller at each decision instant.
struct FabricView {
  Time now = 0.0;
  /// Residual demand per coflow (index == position in the input list);
  /// coflows that have not arrived yet are all-zero here.
  const std::vector<Matrix>* residuals = nullptr;
  /// arrived[k] && !finished[k] is the schedulable set.
  const std::vector<char>* arrived = nullptr;
  const std::vector<char>* finished = nullptr;
};

/// Online multi-coflow decision policy.
class MultiCoflowController {
 public:
  virtual ~MultiCoflowController() = default;
  /// Next establishment, or nullopt to idle until the next arrival (the
  /// simulator re-consults then).  Returning nullopt with no arrivals
  /// pending ends the simulation.
  virtual std::optional<MultiAssignment> next_assignment(const FabricView& view) = 0;
};

/// Greedy priority-filling controller (OMCO-flavoured): walk coflows in a
/// priority order (recomputed per decision from live residuals), claim
/// each coflow's heaviest serviceable flows onto free ports, and hold
/// until the *smallest* matched residual drains — no stranded port time,
/// at the cost of more establishments.  `hold_to_largest` flips that
/// trade (drain everything matched; strands ports, fewer setups).
class GreedyPriorityController final : public MultiCoflowController {
 public:
  enum class Priority {
    kSmallestResidualFirst,  ///< clairvoyant SEBF on live residuals
    kLeastServedFirst,       ///< non-clairvoyant LAS (Aalo-flavoured)
  };

  GreedyPriorityController(Time delta, Priority priority, bool hold_to_largest = false);
  std::optional<MultiAssignment> next_assignment(const FabricView& view) override;

 private:
  Time delta_;
  Priority priority_;
  bool hold_to_largest_;
  std::vector<double> served_;  ///< volume served per coflow (LAS state)
};

/// Result of a multi-coflow event-driven run.
struct MultiFabricReport {
  std::vector<Time> cct;  ///< per coflow (measured from arrival)
  int reconfigurations = 0;
  Time makespan = 0.0;
  Time total_weighted_cct = 0.0;
  bool all_served = false;
  std::uint64_t events = 0;
};

/// Run the all-stop fabric under `controller` until all demand drains (or
/// the controller stops while work remains — reported via all_served).
MultiFabricReport simulate_multi_coflow(MultiCoflowController& controller,
                                        const std::vector<Coflow>& coflows, Time delta);

}  // namespace reco::sim
