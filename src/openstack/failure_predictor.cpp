#include "openstack/failure_predictor.h"

#include <algorithm>
#include <cmath>

namespace uniserver::osk {

double LogFailurePredictor::decayed(const NodeState& state,
                                    Seconds now) const {
  const double dt = now.value - state.last_update.value;
  if (dt <= 0.0) return state.score;
  return state.score * std::exp2(-dt / kHalfLife.value);
}

void LogFailurePredictor::observe(std::size_t slot,
                                  const daemons::ErrorEvent& event) {
  NodeState& state = nodes_.at(slot);
  if (!state.risky) {
    state.risky = true;
    risky_.insert(std::lower_bound(risky_.begin(), risky_.end(), slot), slot);
  }
  state.score = decayed(state, event.timestamp);
  state.last_update = event.timestamp;
  switch (event.severity) {
    case daemons::Severity::kCorrectable:
      state.score += kWeightCorrectable;
      break;
    case daemons::Severity::kUncorrectable:
      state.score += kWeightUncorrectable;
      break;
    case daemons::Severity::kCrash:
      state.score += kWeightCrash;
      break;
  }
}

double LogFailurePredictor::score(std::size_t slot, Seconds now) const {
  if (slot >= nodes_.size()) return 0.0;
  return decayed(nodes_[slot], now);
}

double LogFailurePredictor::risk(std::size_t slot, Seconds now) const {
  const double s = score(slot, now);
  return 1.0 - std::exp(-s / config_.risk_scale);
}

bool LogFailurePredictor::should_evacuate(std::size_t slot,
                                          Seconds now) const {
  return score(slot, now) >= config_.evacuation_score;
}

void LogFailurePredictor::reset(std::size_t slot) {
  NodeState& state = nodes_.at(slot);
  if (state.risky) {
    risky_.erase(std::lower_bound(risky_.begin(), risky_.end(), slot));
  }
  state = NodeState{};
}

}  // namespace uniserver::osk
