#include "hypervisor/domains.h"

namespace uniserver::hv {

MemoryDomainManager::MemoryDomainManager(hw::ServerNode& node) : node_(node) {}

int MemoryDomainManager::configure_reliable_capacity(double reliable_mb) {
  release_all();
  double covered = 0.0;
  int pinned = 0;
  for (int c = 0; c < node_.memory().channels() && covered < reliable_mb;
       ++c) {
    node_.pin_channel_reliable(c, true);
    covered += node_.channel_capacity_mb(c);
    ++pinned;
  }
  return pinned;
}

void MemoryDomainManager::release_all() {
  for (int c = 0; c < node_.memory().channels(); ++c) {
    node_.pin_channel_reliable(c, false);
  }
}

int MemoryDomainManager::reliable_channels() const {
  int count = 0;
  for (int c = 0; c < node_.memory().channels(); ++c) {
    if (node_.channel_reliable(c)) ++count;
  }
  return count;
}

}  // namespace uniserver::hv
