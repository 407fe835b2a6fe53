#include "serve/serve.h"

#include <algorithm>
#include <cmath>

namespace uniserver::serve {

namespace {
// Latency histogram geometry (ms) of each layer's own histogram.
constexpr double kLatencyHiMs = 20000.0;
constexpr std::size_t kLatencyBuckets = 2000;

// The serve.* counters and the queue-depth gauge are published by the
// cloud (Cloud::publish_books); the stall histogram has no book.
telemetry::Histogram& stall_ms() {
  static telemetry::Histogram& histogram = telemetry::histogram(
      "serve.stall_ms", 0.0, 60000.0, 600, "ms",
      "Duration of fault-path dispatch stalls applied to VM queues");
  return histogram;
}
}  // namespace

VcpuQueue::VcpuQueue(int vcpus, std::size_t cap)
    : servers_(static_cast<std::size_t>(std::max(1, vcpus))),
      cap_(std::max<std::size_t>(1, cap)) {}

void VcpuQueue::push(Server& server, double completion) {
  // Grow the ring to the next power of two, unrolling it oldest-first.
  if (server.size == server.ring.size()) {
    std::vector<double> grown(std::max<std::size_t>(4, 2 * server.size));
    for (std::size_t i = 0; i < server.size; ++i) {
      grown[i] = server.ring[(server.head + i) & (server.ring.size() - 1)];
    }
    server.ring = std::move(grown);
    server.head = 0;
  }
  server.ring[(server.head + server.size) & (server.ring.size() - 1)] =
      completion;
  ++server.size;
}

VcpuQueue::Offer VcpuQueue::offer(Seconds arrival, Seconds service) {
  Offer offer;
  if (outstanding_ >= cap_) return offer;
  // Earliest-free server, ties to the lowest index: FIFO dispatch.
  Server* best = &servers_.front();
  for (Server& server : servers_) {
    if (server.free_at < best->free_at) best = &server;
  }
  const double start = std::max(arrival.value, best->free_at);
  const double completion = start + std::max(0.0, service.value);
  best->free_at = completion;
  push(*best, completion);
  ++outstanding_;
  offer.admitted = true;
  offer.completion = Seconds{completion};
  offer.latency = Seconds{completion - arrival.value};
  return offer;
}

void VcpuQueue::stall(Seconds at, Seconds duration) {
  const double d = std::max(0.0, duration.value);
  for (Server& server : servers_) {
    server.free_at = std::max(server.free_at, at.value) + d;
  }
}

std::uint64_t VcpuQueue::drain(Seconds now) {
  std::uint64_t completed = 0;
  for (Server& server : servers_) {
    const std::size_t mask = server.ring.size() - 1;
    while (server.size > 0 && server.ring[server.head] <= now.value) {
      server.head = (server.head + 1) & mask;
      --server.size;
      ++completed;
    }
  }
  outstanding_ -= completed;
  return completed;
}

Seconds VcpuQueue::backlog(Seconds now) const {
  double total = 0.0;
  for (const Server& server : servers_) {
    total += std::max(0.0, server.free_at - now.value);
  }
  return Seconds{total};
}

std::uint64_t ReplicaBalancer::route(
    const std::vector<std::pair<std::uint64_t, Seconds>>& backlogs) {
  std::uint64_t best_id = 0;
  double best_backlog = 0.0;
  bool first = true;
  for (const auto& [id, backlog] : backlogs) {
    if (first || backlog.value < best_backlog ||
        (backlog.value == best_backlog && id < best_id)) {
      best_id = id;
      best_backlog = backlog.value;
      first = false;
    }
  }
  return best_id;
}

ServeLayer::ServeLayer(const ServeConfig& config)
    : config_(config),
      rng_(config.seed),
      latency_ms_(0.0, kLatencyHiMs, kLatencyBuckets) {}

std::uint64_t ServeLayer::service_of(std::uint64_t vm_id) const {
  if (config_.replica_groups <= 1) return vm_id;
  return vm_id % static_cast<std::uint64_t>(config_.replica_groups);
}

void ServeLayer::on_vm_placed(const trace::VmRequest& request,
                              const hw::ServerNode* node) {
  on_vm_removed(request.id);
  Replica replica{request, node, VcpuQueue(request.vcpus, kQueueCap)};
  Replica* placed =
      &replicas_.emplace(request.id, std::move(replica)).first->second;
  auto& members = services_[service_of(request.id)];
  const auto pos = std::lower_bound(
      members.begin(), members.end(), request.id,
      [](const Replica* r, std::uint64_t id) { return r->request.id < id; });
  members.insert(pos, placed);
}

void ServeLayer::on_vm_moved(std::uint64_t vm_id,
                             const hw::ServerNode* node) {
  const auto it = replicas_.find(vm_id);
  if (it != replicas_.end()) it->second.node = node;
}

void ServeLayer::on_vm_removed(std::uint64_t vm_id) {
  const auto it = replicas_.find(vm_id);
  if (it == replicas_.end()) return;
  stats_.dropped_lost += it->second.queue.outstanding();
  const auto sit = services_.find(service_of(vm_id));
  if (sit != services_.end()) {
    std::erase(sit->second, &it->second);
    if (sit->second.empty()) services_.erase(sit);
  }
  replicas_.erase(it);
}

void ServeLayer::add_stall(std::uint64_t vm_id, Seconds at,
                           Seconds duration) {
  const auto it = replicas_.find(vm_id);
  if (it == replicas_.end()) return;
  it->second.queue.stall(at, duration);
  ++stats_.stalls;
  stall_ms().record(duration.value * 1000.0);
}

void ServeLayer::inject_burst(Seconds at, std::uint64_t count) {
  pending_bursts_.emplace_back(at.value, count);
}

double ServeLayer::speed_factor(const trace::VmRequest& request,
                                const hw::ServerNode* node) {
  if (node == nullptr) return 1.0;
  const hw::NodeSpec& spec = node->spec();
  const hw::Eop& eop = node->eop();
  // Compute-bound work scales with core frequency; the memory-bound
  // share does not, and pays refresh duty instead: a shorter-than-
  // nominal refresh interval steals proportionally more DRAM bandwidth
  // from the guest, a relaxed one hands the overhead back.
  const double f = spec.chip.freq_nominal.value > 0.0
                       ? eop.freq / spec.chip.freq_nominal
                       : 1.0;
  const double mem =
      std::clamp(request.workload.mem_intensity, 0.0, 1.0);
  const double refresh_ratio =
      eop.refresh.value > 0.0
          ? spec.dimm.nominal_refresh.value / eop.refresh.value
          : 1.0;
  const double mem_term =
      1.0 + kRefreshOverheadNominal * (refresh_ratio - 1.0);
  const double denom =
      (1.0 - mem) / std::max(0.05, f) + mem * std::max(0.1, mem_term);
  return 1.0 / std::max(1e-9, denom);
}

ServeLayer::Replica* ServeLayer::least_backlog(const Members& members,
                                               Seconds at) {
  Replica* best = nullptr;
  double best_backlog = 0.0;
  for (Replica* replica : members) {
    const double backlog = replica->queue.backlog(at).value;
    if (best == nullptr || backlog < best_backlog) {
      best = replica;
      best_backlog = backlog;
      // Backlogs are >= 0: no later member is strictly lower.
      if (backlog == 0.0) break;
    }
  }
  return best;
}

std::uint64_t ServeLayer::route(std::uint64_t service, Seconds at) const {
  const auto sit = services_.find(service);
  if (sit == services_.end()) return 0;
  const Replica* best = least_backlog(sit->second, at);
  return best == nullptr ? 0 : best->request.id;
}

Seconds ServeLayer::backlog(std::uint64_t vm_id, Seconds at) const {
  const auto it = replicas_.find(vm_id);
  return it == replicas_.end() ? Seconds{0.0} : it->second.queue.backlog(at);
}

void ServeLayer::dispatch(const Members& members, Seconds arrival) {
  ++stats_.generated;
  Replica* const chosen = least_backlog(members, arrival);
  if (chosen == nullptr) {
    ++stats_.dropped_unroutable;
    return;
  }
  Replica& replica = *chosen;
  const double demand = rng_.exponential(1.0 / kMeanService.value);
  const Seconds service_time{demand / replica.speed};
  const VcpuQueue::Offer offer = replica.queue.offer(arrival, service_time);
  if (!offer.admitted) {
    ++stats_.dropped_overload;
    return;
  }
  ++stats_.admitted;
  const double latency_s = offer.latency.value;
  stats_.latency_sum_s += latency_s;
  stats_.max_latency_s = std::max(stats_.max_latency_s, latency_s);
  latency_ms_.record(latency_s * 1000.0);
  Seconds slo{0.0};
  switch (replica.request.sla) {
    case trace::SlaClass::kBestEffort:
      return;  // no latency SLO
    case trace::SlaClass::kStandard:
      slo = kSloStandard;
      break;
    case trace::SlaClass::kCritical:
      slo = kSloCritical;
      break;
  }
  if (latency_s > slo.value) {
    ++stats_.slo_violations;
    if (replica.request.sla == trace::SlaClass::kCritical) {
      ++stats_.slo_violations_critical;
    }
  }
}

void ServeLayer::advance(Seconds window_end, Seconds window) {
  const double t0 = window_end.value - window.value;
  for (auto& [id, replica] : replicas_) {
    replica.speed = speed_factor(replica.request, replica.node);
  }

  // Bursts due in this window fire first, oldest first (stable on
  // equal timestamps so injection order is preserved).
  std::stable_sort(pending_bursts_.begin(), pending_bursts_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<double, std::uint64_t>> later;
  std::vector<const Members*> service_members;
  service_members.reserve(services_.size());
  for (const auto& [id, members] : services_) {
    service_members.push_back(&members);
  }
  for (const auto& [at, count] : pending_bursts_) {
    if (at > window_end.value) {
      later.emplace_back(at, count);
      continue;
    }
    const Seconds when{std::max(at, t0)};
    if (service_members.empty()) {
      // Nothing placed yet: the burst lands on an empty fleet.
      stats_.generated += count;
      stats_.dropped_unroutable += count;
      continue;
    }
    for (std::uint64_t k = 0; k < count; ++k) {
      dispatch(*service_members[burst_rr_++ % service_members.size()],
               when);
    }
  }
  pending_bursts_ = std::move(later);

  // Open-loop Poisson per service, thinned against the diurnal shape.
  // Services iterate in ascending id so the Rng consumption order is a
  // pure function of state (the determinism contract). The band bounds
  // the factor over the whole window, so only a draw that lands inside
  // it needs the factor itself: the decision is `u * peak <= factor(t)`
  // either way, and about 0.4% of draws pay for the cosine.
  const double peak = kDiurnal.peak_factor;
  const trace::FactorBand band =
      trace::diurnal_band(kDiurnal, Seconds{t0}, window);
  for (const auto& [service, members] : services_) {
    double vcpus = 0.0;
    for (const Replica* replica : members) {
      vcpus += static_cast<double>(replica->request.vcpus);
    }
    const double rate = config_.requests_per_vcpu_hz * vcpus;
    if (rate <= 0.0) continue;
    double t = t0;
    while (true) {
      t += rng_.exponential(rate * peak);
      if (t >= window_end.value) break;
      if (band.under_factor(rng_.uniform() * peak, kDiurnal, Seconds{t})) {
        dispatch(members, Seconds{t});
      }
    }
  }

  std::uint64_t completed = 0;
  for (auto& [id, replica] : replicas_) {
    completed += replica.queue.drain(window_end);
  }
  stats_.completed += completed;
}

std::size_t ServeLayer::outstanding() const {
  std::size_t total = 0;
  for (const auto& [id, replica] : replicas_) {
    total += replica.queue.outstanding();
  }
  return total;
}

double ServeLayer::latency_percentile_ms(double q) const {
  return latency_ms_.percentile(q);
}

}  // namespace uniserver::serve
