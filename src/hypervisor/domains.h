// Memory-domain management (paper §6.B instrument, §4.A policy).
//
// The DRAM is split into per-channel domains whose refresh interval can
// be set independently. The manager pins enough channels at the nominal
// refresh rate to hold everything that must not see decay errors
// (hypervisor structures, critical kernel code/stack, critical VMs) and
// relaxes the rest. The hypervisor attributes relaxed-domain errors to
// tenants by their share of the relaxed capacity.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "hwmodel/platform.h"

namespace uniserver::hv {

class MemoryDomainManager {
 public:
  explicit MemoryDomainManager(hw::ServerNode& node);

  /// Pins the minimum number of channels needed to hold `reliable_mb`
  /// at nominal refresh; the rest follow the node EOP. Returns the
  /// number of reliable channels.
  int configure_reliable_capacity(double reliable_mb);

  /// Releases all pinned channels (everything relaxes with the EOP).
  void release_all();

  int reliable_channels() const;

 private:
  hw::ServerNode& node_;
};

}  // namespace uniserver::hv
