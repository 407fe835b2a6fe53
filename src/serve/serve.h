// Request-level serving layer: the user-visible cost of an EOP.
//
// Everything below this layer trades guardband reclamation against
// *crash rate*; nothing models what "millions of users" actually feel.
// This module closes that gap (ROADMAP item 2): an open-loop request
// generator emits per-service Poisson streams over the placed VMs
// (rate shaped by the diurnal trace), a per-VM virtual-time vCPU queue
// services them with service times derived from the node's current
// V-F-R operating point, and a replica balancer spreads each service's
// load across its VM replicas with deterministic tie-breaking. EOP
// retreats, checkpoint restores, survivable-SDC hits and migration
// stop-and-copy pauses all surface as dispatch stalls that visibly
// fatten the latency tail — so EOP aggressiveness finally trades
// against p99/p999 and SLO violations rather than only crash rate
// (Krzywda et al. ground the V-F-to-latency coupling; see PAPERS.md).
//
// Determinism contract: all randomness flows through one Rng seeded by
// the caller, consumed in a fixed order (pending bursts sorted by time,
// then services in ascending id); queue state is virtual-time
// bookkeeping with no wall-clock reads, so runs reproduce bit-identical
// for any --jobs count (the fuzz campaign digests assert this).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/platform.h"
#include "telemetry/metrics.h"
#include "trace/arrivals.h"
#include "trace/diurnal.h"

namespace uniserver::serve {

struct ServeConfig {
  /// The layer is opt-in: a disabled layer costs nothing and keeps
  /// every pre-existing campaign digest unchanged.
  bool enabled{false};
  std::uint64_t seed{0x5E12F00DULL};
  /// Open-loop request rate per vCPU at diurnal factor 1.0.
  double requests_per_vcpu_hz{0.4};
  /// VMs hash into this many replicated services (`vm_id % groups`);
  /// <= 1 gives every VM its own single-replica service.
  int replica_groups{8};
};

/// Cumulative serving books. Conservation (checked by the fuzz oracle):
///   generated == admitted + dropped_overload + dropped_unroutable
///   admitted  == completed + dropped_lost + outstanding()
struct ServeStats {
  std::uint64_t generated{0};  ///< emitted by generator + bursts
  std::uint64_t admitted{0};   ///< entered a VM queue
  std::uint64_t completed{0};  ///< virtual completion time has passed
  std::uint64_t dropped_overload{0};    ///< shed at the queue cap
  std::uint64_t dropped_unroutable{0};  ///< no live replica to route to
  /// In flight when the VM left (node crash, SDC kill, or departure).
  std::uint64_t dropped_lost{0};
  std::uint64_t slo_violations{0};  ///< standard + critical
  std::uint64_t slo_violations_critical{0};
  std::uint64_t stalls{0};  ///< dispatch stalls applied to queues
  double latency_sum_s{0.0};
  double max_latency_s{0.0};
};

/// Virtual-time FIFO queue over a VM's vCPUs (c parallel servers).
/// A request arriving at `t` starts on the earliest-free server (ties
/// to the lowest server index) and its sojourn is known immediately —
/// no event scheduling, just per-server busy horizons. With one vCPU
/// and exponential interarrivals/demands this is exactly M/M/1 (the
/// closed-form tests pin mean sojourn = 1/(mu - lambda)).
class VcpuQueue {
 public:
  VcpuQueue(int vcpus, std::size_t cap);

  struct Offer {
    bool admitted{false};
    Seconds completion{Seconds{0.0}};
    Seconds latency{Seconds{0.0}};
  };
  /// Admits a request arriving at `arrival` needing `service` busy
  /// time, unless `cap` requests are already outstanding.
  Offer offer(Seconds arrival, Seconds service);

  /// Dispatch pause at `at`: every server's busy horizon is pushed to
  /// at least `at` and then extended by `duration` (stop-and-copy,
  /// checkpoint restore, SDC glitch). Latencies already handed out are
  /// unchanged — a stall gates the *next* dispatches.
  void stall(Seconds at, Seconds duration);

  /// Retires requests whose completion is at or before `now`; returns
  /// how many completed.
  std::uint64_t drain(Seconds now);

  std::size_t outstanding() const { return outstanding_; }
  /// Pending busy time beyond `now`, summed over servers — the load
  /// signal the replica balancer compares.
  Seconds backlog(Seconds now) const;

 private:
  /// One vCPU. Its completion times never decrease: `offer` starts no
  /// earlier than the busy horizon, and `stall` only moves the horizon
  /// later. So each server's outstanding completions form a FIFO, and
  /// `drain` retires exactly the requests a global min-heap would.
  struct Server {
    double free_at{0.0};       // busy horizon (seconds)
    std::vector<double> ring;  // completion times, oldest at `head`
    std::size_t head{0};
    std::size_t size{0};
  };
  static void push(Server& server, double completion);

  std::vector<Server> servers_;
  std::size_t outstanding_{0};
  std::size_t cap_;
};

/// Deterministic least-backlog routing across a service's replicas:
/// smallest backlog wins, ties break to the lowest VM id. This is the
/// reference rule: `ServeLayer::route` applies it in place, without
/// building the pair list, and the differential test in test_serve
/// holds the two to the same pick.
class ReplicaBalancer {
 public:
  /// `backlogs` pairs each live member VM id with its current backlog;
  /// returns the chosen VM id (0 if empty — callers never pass empty).
  static std::uint64_t route(
      const std::vector<std::pair<std::uint64_t, Seconds>>& backlogs);
};

/// The serving layer the cloud control loop drives. One instance per
/// Cloud. It counts each request once, in its own books (ServeStats)
/// and latency histogram, and writes no serve.* counter: the owning
/// Cloud publishes the books, so concurrent campaigns never share tail
/// state through the global registry.
class ServeLayer {
 public:
  /// Mean service demand at the nominal operating point (exponential).
  static constexpr Seconds kMeanService{0.05};
  /// Per-VM outstanding-request cap; arrivals beyond it are shed.
  static constexpr std::size_t kQueueCap = 512;
  /// Latency SLO per SLA class (best-effort carries no SLO).
  static constexpr Seconds kSloStandard{0.5};
  static constexpr Seconds kSloCritical{0.25};
  /// Dispatch pause while a VM is restored from its checkpoint.
  static constexpr Seconds kRestoreStall{8.0};
  /// Dispatch glitch when a VM absorbs a survivable SDC.
  static constexpr Seconds kHitStall{1.0};
  /// Memory-stall share of service time at nominal refresh for a fully
  /// memory-bound workload; scales with the VM's mem_intensity and
  /// with the refresh interval (shorter refresh steals bandwidth).
  static constexpr double kRefreshOverheadNominal = 0.08;
  /// Day shape of the request rate (only the factor fields are read).
  static constexpr trace::DiurnalConfig kDiurnal{};

  explicit ServeLayer(const ServeConfig& config);

  // -- placement lifecycle (wired from openstack/cloud.cpp) -----------
  /// Adds a replica with an empty queue. Placing an id that is already
  /// live replaces it: the old queue's outstanding requests are
  /// orphaned and counted in dropped_lost, as on removal.
  void on_vm_placed(const trace::VmRequest& request,
                    const hw::ServerNode* node);
  void on_vm_moved(std::uint64_t vm_id, const hw::ServerNode* node);
  /// Natural departure or loss: outstanding requests are orphaned and
  /// counted in dropped_lost either way.
  void on_vm_removed(std::uint64_t vm_id);

  /// Fault-path dispatch stall on one VM's queue.
  void add_stall(std::uint64_t vm_id, Seconds at, Seconds duration);

  /// Fuzzer hook: `count` extra requests at `at`, spread round-robin
  /// across services (applied by the next advance() covering `at`).
  void inject_burst(Seconds at, std::uint64_t count);

  /// Generates, routes and retires the window (window_end - window,
  /// window_end]. Called once per cloud control tick.
  void advance(Seconds window_end, Seconds window);

  /// The replica a request to `service` arriving at `at` routes to:
  /// the least backlog, ties to the lowest VM id. Returns 0 when the
  /// service has no live replica.
  std::uint64_t route(std::uint64_t service, Seconds at) const;
  /// Backlog of one VM's queue at `at` (zero for an unknown VM).
  Seconds backlog(std::uint64_t vm_id, Seconds at) const;

  const ServeStats& stats() const { return stats_; }
  std::size_t outstanding() const;
  std::size_t services() const { return services_.size(); }
  /// Latency percentile over this layer's own histogram, milliseconds.
  double latency_percentile_ms(double q) const;
  const telemetry::LocalHistogram& latency_histogram() const {
    return latency_ms_;
  }

  /// Service-time multiplier of `request` on `node` at the node's
  /// current V-F-R point (1.0 with no node). The per-call reference:
  /// advance() evaluates it once per replica per window.
  static double speed_factor(const trace::VmRequest& request,
                             const hw::ServerNode* node);

 private:
  struct Replica {
    trace::VmRequest request;
    const hw::ServerNode* node{nullptr};
    VcpuQueue queue;
    /// speed_factor(request, node) of the current window, set for every
    /// replica at the top of advance(): node EOPs and placements change
    /// only between windows.
    double speed{1.0};
  };

  using Members = std::vector<Replica*>;

  std::uint64_t service_of(std::uint64_t vm_id) const;
  /// In-place least-backlog scan over members in ascending VM id: the
  /// first strict minimum is ReplicaBalancer::route's pick. The scan
  /// stops at the first idle (zero-backlog) member.
  static Replica* least_backlog(const Members& members, Seconds at);
  void dispatch(const Members& members, Seconds arrival);

  ServeConfig config_;
  Rng rng_;
  std::map<std::uint64_t, Replica> replicas_;  // by VM id
  // Live replicas per service in ascending VM id. std::map nodes never
  // move, so the pointers stay valid until the replica is erased.
  std::map<std::uint64_t, Members> services_;
  std::vector<std::pair<double, std::uint64_t>> pending_bursts_;
  std::uint64_t burst_rr_{0};  // round-robin cursor across services
  ServeStats stats_;
  // Written by this layer alone, once per admitted request.
  telemetry::LocalHistogram latency_ms_;
};

}  // namespace uniserver::serve
