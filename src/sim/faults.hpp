// Fault injection for the event-driven OCS: port failures, partial
// circuit setups, and bounded reconfiguration retries, all behind one
// deterministic seeded FaultInjector.
//
// One FaultConfig composes
//  * scripted *port faults* (a fault trace: port p goes down at time t,
//    optionally repaired after a delay) and random ones (per-port MTBF /
//    MTTR exponential processes),
//  * *setup faults* — individual crosspoints of a requested matching fail
//    to latch (the circuit comes up partial) and whole reconfiguration
//    attempts time out, retried under bounded exponential backoff; when
//    the attempt budget is exhausted the setup is *failed*, never looped,
//  * *timing faults* — every setup takes delta * (1 + U[0, jitter]), and
//    an attempt fails outright with a fixed probability and is repeated at
//    once, under the same attempt budget.
//
// Determinism: every random stream derives from FaultConfig::seed alone
// and is consumed in simulation-event order, so a (config, workload) pair
// replays the identical fault timeline at any RECO_THREADS setting.  The
// default FaultConfig draws nothing and reproduces the ideal fixed-delta
// switch bit for bit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/circuit.hpp"
#include "core/types.hpp"
#include "trace/rng.hpp"

namespace reco::sim {

/// Which side of the fabric a port fault hits.
enum class PortSide : std::uint8_t { kIngress, kEgress, kBoth };

/// One scripted port fault: at `at`, `port` (on `side`) goes dark; it is
/// repaired `repair_after` seconds later, or never if repair_after < 0.
struct PortFault {
  Time at = 0.0;
  PortId port = 0;
  PortSide side = PortSide::kBoth;
  Time repair_after = -1.0;  ///< < 0: permanent
};

/// Full fault-injection configuration.  Everything defaults to "off"; the
/// default config is the ideal switch.
struct FaultConfig {
  /// Scripted port faults (see parse_fault_trace for the text format).
  std::vector<PortFault> port_faults;

  /// Random port failures: mean time between failures per port (seconds
  /// of simulated time; 0 disables) and mean time to repair (0 = every
  /// random failure is permanent).  Both processes are exponential.
  double port_mtbf = 0.0;
  double port_mttr = 0.0;

  /// P(one reconfiguration attempt times out entirely).  Timed-out
  /// attempts retry after an exponential backoff: attempt k waits
  /// delta * min(2^(k-1), 32) before retrying.
  double setup_timeout_probability = 0.0;

  /// P(one crosspoint of an otherwise successful setup fails to latch):
  /// the circuit comes up partial; unlatched circuits carry no traffic.
  double crosspoint_failure_probability = 0.0;

  /// Timing faults: each attempt takes delta * (1 + U[0, jitter_fraction]),
  /// and with retry_probability it fails and is repeated at once.
  double jitter_fraction = 0.0;
  double retry_probability = 0.0;
  /// Hard cap on attempts per setup (timeouts and retries together);
  /// exhausting it marks the setup failed instead of looping.
  int max_attempts = 64;

  std::uint64_t seed = 1;
};

/// Throws std::invalid_argument on out-of-range parameters: probabilities
/// outside their domain (retry_probability must stay below 1), negative or
/// non-finite jitter and times, max_attempts < 1.
void validate_fault_config(const FaultConfig& config);

/// One port state change, reported to the fabric in time order.
struct PortTransition {
  Time at = 0.0;
  PortId port = 0;
  PortSide side = PortSide::kBoth;
  bool up = false;  ///< true: repair; false: failure
};

/// Outcome of one circuit establishment under the fault model.
struct SetupOutcome {
  Time setup_time = 0.0;  ///< total wall time: attempts + backoff waits
  int attempts = 1;
  bool established = false;  ///< false: attempt budget exhausted
  std::vector<Circuit> established_circuits;  ///< latched subset
  std::vector<Circuit> failed_circuits;       ///< requested minus latched
};

/// Deterministic fault source consumed by the simulators.  One injector
/// drives one run; its streams advance with the simulation clock.
class FaultInjector {
 public:
  /// Validates `config` (throws std::invalid_argument on bad parameters).
  /// The default config is the ideal switch: no faults, no random draws.
  explicit FaultInjector(FaultConfig config);

  /// Bind the injector to an n-port fabric: materializes the random port
  /// failure streams and checks scripted faults against the port range.
  /// Called by the simulators at start; idempotent (first call wins).
  void bind_ports(int num_ports);

  /// Pop every port transition with `at <= now`, in time order.  The
  /// fabric applies these to its own port masks and notifies the
  /// controller.
  std::vector<PortTransition> advance_to(Time now);

  /// Earliest pending transition of any kind / of repairs only.
  std::optional<Time> next_transition() const;
  std::optional<Time> next_repair() const;

  /// Sample one establishment of `requested` taking nominal time `delta`.
  /// Consumes: per attempt, one jitter draw (iff jitter_fraction > 0), one
  /// timeout draw (iff setup_timeout_probability > 0), one retry draw (iff
  /// retry_probability > 0); on success one draw per requested
  /// circuit (iff crosspoint_failure_probability > 0) — so the default
  /// config consumes nothing and returns exactly delta.
  SetupOutcome sample_setup(Time delta, const std::vector<Circuit>& requested);

 private:
  void push_fault(const PortFault& fault);

  FaultConfig config_;
  Rng setup_rng_;
  Rng port_rng_;
  bool bound_ = false;
  // Pending transitions, kept sorted by (at, seq) — fault counts are tens
  // to thousands per run, a sorted vector beats a heap's constant here.
  struct Pending {
    PortTransition t;
    std::uint64_t seq = 0;
    bool random = false;  ///< from the MTBF process (reseeds on repair)
  };
  std::vector<Pending> pending_;
  std::uint64_t next_seq_ = 0;
};

/// Parse a scripted fault trace, one fault per line:
///
///   # comment / blank lines ignored
///   <time_s> <port> <in|out|both> <repair_delay_s | never>
///
/// Throws std::runtime_error naming the offending line on malformed input
/// (bad numbers, NaN/negative times, negative ports) via the shared
/// trace/line_reader.hpp diagnostics, matching read_trace's "<who> line N:
/// <what>" shape.  `num_ports >= 0` additionally rejects ports outside the
/// fabric with a line-numbered error (instead of the generic range check
/// at bind time); < 0 leaves the range check to bind_ports.
std::vector<PortFault> parse_fault_trace(std::istream& in, int num_ports = -1);

/// File wrapper for parse_fault_trace.
std::vector<PortFault> load_fault_trace(const std::string& path, int num_ports = -1);

}  // namespace reco::sim
