// The information vector (paper §2/§3.C): the unit of monitoring data
// the HealthLog daemon propagates to the system software — operating
// point, sensor readings, performance counters and error counts.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "hwmodel/eop.h"
#include "hwmodel/platform.h"

namespace uniserver::daemons {

/// Hardware component an error event originates from.
enum class Component { kCore, kCache, kDram };

const char* to_string(Component component);

/// Error severity as the hardware reports it.
enum class Severity { kCorrectable, kUncorrectable, kCrash };

const char* to_string(Severity severity);

/// One error event recorded by the HealthLog.
struct ErrorEvent {
  Seconds timestamp{Seconds{0.0}};
  Component component{Component::kCore};
  Severity severity{Severity::kCorrectable};
  /// Which unit (core id / cache bank / memory channel).
  int unit{0};
};

/// One monitoring record: "system configuration values, sensor readings
/// and performance counters" plus error tallies.
struct InfoVector {
  Seconds timestamp{Seconds{0.0}};
  hw::Eop eop{};
  hw::SensorReadings sensors{};
  double ipc{0.0};
  double utilization{0.0};
  std::uint64_t correctable_errors{0};
  std::uint64_t uncorrectable_errors{0};
};

}  // namespace uniserver::daemons
