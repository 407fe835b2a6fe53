// Cloud-level failure detection and prediction (paper §5.B / §4.B).
//
// Unlike the node-local Predictor daemon (which models crash
// probability vs operating point), this component works the way the
// surveyed data-center techniques do: it consumes the stream of log
// events produced by the nodes' HealthLogs, maintains per-node
// exponentially decayed error-pattern scores and converts them into a
// failure-risk estimate that drives proactive evacuation — the
// integrated OpenStack fault-tolerance component the paper claims as
// novel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "daemons/info_vector.h"

namespace uniserver::osk {

class LogFailurePredictor {
 public:
  /// Decay time-constant of the pattern score.
  static constexpr Seconds kHalfLife{1800.0};
  /// Pattern weights: how alarming each event class is.
  static constexpr double kWeightCorrectable = 1.0;
  static constexpr double kWeightUncorrectable = 25.0;
  static constexpr double kWeightCrash = 200.0;

  struct Config {
    /// Score above which a node is considered failing soon. Positive:
    /// a slot without history scores 0 and is never evacuated.
    double evacuation_score{30.0};
    /// Score-to-risk conversion scale (risk = 1 - exp(-score/scale)).
    double risk_scale{100.0};
  };

  LogFailurePredictor() : LogFailurePredictor(Config{}) {}
  explicit LogFailurePredictor(Config config) : config_(config) {}

  /// Nodes are identified by fleet slot, 0 .. slots-1; the cloud sizes
  /// the predictor to its fleet when it wires monitoring. Every slot
  /// starts with no history.
  void resize(std::size_t slots) { nodes_.resize(slots); }

  /// Ingests one log event from a node's HealthLog stream.
  void observe(std::size_t slot, const daemons::ErrorEvent& event);

  /// Decayed pattern score of a node at time `now` (0 for a slot
  /// outside the fleet).
  double score(std::size_t slot, Seconds now) const;

  /// Failure-risk estimate in [0,1) at time `now`.
  double risk(std::size_t slot, Seconds now) const;

  /// Whether the policy should proactively migrate VMs off the node.
  bool should_evacuate(std::size_t slot, Seconds now) const;

  /// Forgets a node's history (after repair/reboot).
  void reset(std::size_t slot);

  /// The slots with history since their last reset, ascending. Only
  /// these can score above 0; every other slot's risk is exactly 0.
  const std::vector<std::size_t>& risky_slots() const { return risky_; }

 private:
  struct NodeState {
    double score{0.0};
    Seconds last_update{Seconds{0.0}};
    /// The slot is in risky_.
    bool risky{false};
  };

  double decayed(const NodeState& state, Seconds now) const;

  Config config_;
  std::vector<NodeState> nodes_;
  std::vector<std::size_t> risky_;
};

}  // namespace uniserver::osk
