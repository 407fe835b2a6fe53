// One repetition of one fleet-benchmark workload.
//
// Builds a fleet through the public stack, drives Cloud::run once per
// 60 s control tick with the arrivals of that tick (the fuzz harness's
// driving pattern), injects the workload's storms, then checks the
// simulation's books and prints one JSON object on stdout. run.py
// repeats this process, aggregates medians and prints the benchmark's
// result line.
//
//   fleet_bench --workload fleet-day|serve-peak|eop-storm --seed N
//               [--small] [--trace] [--spans-out FILE]
//
// --small shrinks the fleet for the benchmark's own tests. --trace
// records spans around every call the benchmark makes into a layer,
// registry deltas across those spans and heap allocations inside the
// control ticks, and adds a "layers" object to the output. Simulated
// outputs are identical with and without --trace.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/rng.h"
#include "common/stats.h"
#include "core/ecosystem.h"
#include "fuzz/oracles.h"
#include "hwmodel/chip_spec.h"
#include "openstack/cloud.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "trace/fleet.h"

// -- heap accounting (traced runs only) --------------------------------
// The replacement operator new counts only while g_count_heap is set,
// which the traced run does around each control tick.
namespace {
std::atomic<bool> g_count_heap{false};
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_heap.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace uniserver;

namespace {

constexpr double kTickS = 60.0;
constexpr int kTicksPerDay = 1440;
/// The fleet is the benchmark's fixed lab: --seed drives the arrival
/// trace, the request stream and the storm plan, not the hardware.
constexpr std::uint64_t kFleetSeed = 20260806;
/// CloudConfig's default rack grouping, which the storm plan follows.
constexpr int kNodesPerRack = osk::CloudConfig{}.nodes_per_rack;

// -- workloads ----------------------------------------------------------

struct Shape {
  std::string name;
  int nodes{0};
  int vms_per_node{40};
  bool serve{false};
  /// Commission through core::Ecosystem (StressLog + margins) instead
  /// of a nominal Cloud::make_uniform fleet.
  bool commission{false};
  /// Storm slots spread evenly over the day; even slots are rack power
  /// losses, odd slots EOP-retreat waves of `nodes_per_wave` nodes.
  int storms{0};
  int nodes_per_wave{0};
};

std::optional<Shape> shape_of(const std::string& name, bool small) {
  Shape s;
  s.name = name;
  if (name == "fleet-day") {
    s.nodes = small ? 60 : 400;
  } else if (name == "serve-peak") {
    s.nodes = small ? 12 : 32;
    s.serve = true;
  } else if (name == "eop-storm") {
    s.nodes = small ? 16 : 48;
    s.commission = true;
    s.storms = 12;
    s.nodes_per_wave = small ? 2 : 4;
  } else {
    return std::nullopt;
  }
  return s;
}

struct Storm {
  int tick{0};
  bool rack{false};  ///< rack power loss; otherwise an EOP-retreat wave
  int node{0};
};

/// One storm per slot of the day, within ten minutes of the slot's
/// middle. Rack power losses take the racks in turn and EOP-retreat
/// waves start at evenly spaced nodes, both from a seeded offset. The
/// storm load is thus alike across seeds: placement fills the most
/// reliable nodes first, so a seeded free choice of rack would decide
/// on its own whether a storm moves dozens of VMs or none.
std::vector<Storm> storm_plan(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed ^ 0x5707A11ULL);
  std::vector<Storm> plan;
  if (shape.storms == 0) return plan;
  const int slot = kTicksPerDay / shape.storms;
  const int per_kind = (shape.storms + 1) / 2;
  const int racks = (shape.nodes + kNodesPerRack - 1) / kNodesPerRack;
  const auto offset = static_cast<int>(
      rng.uniform_u64(static_cast<std::uint64_t>(shape.nodes)));
  for (int i = 0; i < shape.storms; ++i) {
    const int tick = i * slot + slot / 2 +
                     static_cast<int>(rng.uniform_int(-10, 10));
    const int k = i / 2;
    const bool rack = i % 2 == 0;
    const int node =
        rack ? ((offset + k) % racks) * kNodesPerRack
             : (offset + k * shape.nodes / per_kind) % shape.nodes;
    plan.push_back(Storm{tick, rack, node});
  }
  return plan;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- host-speed probe ---------------------------------------------------

/// Time one probe slice takes on the reference host (a quiet 4-vCPU
/// 2.1 GHz Xeon VM). Only scales the reported host times.
constexpr double kProbeRefS = 0.0017;

/// The host's speed drifts by tens of percent within seconds to minutes
/// (other tenants on shared cores and caches; see STABILITY.md). A
/// fixed kernel of ordered-map churn and transcendental math, timed in
/// short slices interleaved with the workload, follows that drift, so
/// host times divided by slowdown() are steady across runs. The kernel
/// is the benchmark's own code: a change to src/ cannot alter it.
class HostProbe {
 public:
  /// Runs and times one slice; returns its duration in seconds.
  double slice() {
    const Clock::time_point start = Clock::now();
    double acc = 0.0;
    for (int k = 0; k < 2000; ++k) {
      tree_[next() % 20000] = std::exp(-0.01 * (k % 100));
      const auto it = tree_.lower_bound(next() % 20000);
      if (it != tree_.end()) {
        acc += std::sqrt(it->second);
        if (k % 2 == 1) tree_.erase(it);
      }
    }
    for (int k = 0; k < 20000; ++k) {
      acc += std::exp(std::sin(1e-3 * k)) * std::log1p(k);
    }
    sink_ = acc;
    const double took = seconds_since(start);
    total_s_ += took;
    ++slices_;
    return took;
  }
  /// Mean slice time over the reference slice time (1.0 = reference
  /// speed, 1.2 = host 20% slower).
  double slowdown() const {
    return slices_ == 0 ? 1.0 : total_s_ / (slices_ * kProbeRefS);
  }

 private:
  std::uint64_t next() {  // xorshift64
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  std::map<std::uint64_t, double> tree_;
  std::uint64_t state_{88172645463325252ULL};
  double total_s_{0.0};
  int slices_{0};
  volatile double sink_{0.0};
};

/// A probe slice every this many control ticks (48 per simulated day).
constexpr int kProbeEveryTicks = 30;

// -- spans and registry deltas (traced runs) ----------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Registry counters read at span boundaries.
constexpr const char* kCounters[] = {
    "hv.ticks",
    "daemon.healthlog.vectors",
    "daemon.healthlog.errors_correctable",
    "daemon.healthlog.errors_uncorrectable",
    "daemon.healthlog.recharacterize_triggers",
    "daemon.stresslog.cycles",
    "hv.vm_kills",
    "hv.vm_restores",
    "hv.node_crashes",
    "cloud.sched.picks",
    "cloud.sched.pick_scan_nodes",
    "cloud.sched.index_updates",
    "cloud.evacuations",
    "cloud.mig.submitted",
    "cloud.mig.completed",
    "cloud.mig.cancelled",
    "exec.pool.tasks",
};
constexpr std::size_t kNumCounters = std::size(kCounters);
/// Histogram sums read at span boundaries.
constexpr const char* kHistogramSums[] = {
    "cloud.placement_wall_us",
    "cloud.mig.queue_wait_s",
};
constexpr std::size_t kNumSums = std::size(kHistogramSums);

struct Reading {
  double v[kNumCounters + kNumSums + 1]{};  // last: trace events
};

Reading read_registry() {
  const auto& reg = telemetry::MetricsRegistry::global();
  Reading r;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const telemetry::Counter* c = reg.find_counter(kCounters[i]);
    r.v[i] = c ? static_cast<double>(c->value()) : 0.0;
  }
  for (std::size_t i = 0; i < kNumSums; ++i) {
    const telemetry::Histogram* h = reg.find_histogram(kHistogramSums[i]);
    r.v[kNumCounters + i] = h ? h->sum() : 0.0;
  }
  r.v[kNumCounters + kNumSums] =
      static_cast<double>(telemetry::TraceBuffer::global().recorded());
  return r;
}

/// One recorded span: a call the benchmark made into a layer.
struct Span {
  const char* name;
  int parent;  ///< index of the enclosing span, -1 for a root
  double start_s;
  double end_s;
};

/// Span recorder plus the registry deltas summed over the spans that
/// can move them (setup, control ticks, storm injections).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  int open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, seconds_since(origin_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s =
        seconds_since(origin_);
  }
  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }
  /// Total duration of spans named `name`.
  double total(const char* name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) sum += s.end_s - s.start_s;
    }
    return sum;
  }

  void begin_delta() {
    if (on_) before_ = read_registry();
  }
  void end_delta() {
    if (!on_) return;
    const Reading after = read_registry();
    for (std::size_t i = 0; i < std::size(delta_.v); ++i) {
      delta_.v[i] += after.v[i] - before_.v[i];
    }
  }
  double delta(const char* name) const {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      if (std::strcmp(kCounters[i], name) == 0) return delta_.v[i];
    }
    for (std::size_t i = 0; i < kNumSums; ++i) {
      if (std::strcmp(kHistogramSums[i], name) == 0) {
        return delta_.v[kNumCounters + i];
      }
    }
    if (std::strcmp(name, "telemetry.trace_events") == 0) {
      return delta_.v[kNumCounters + kNumSums];
    }
    std::fprintf(stderr, "no registry reading named %s\n", name);
    std::abort();
  }

  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,name,start_s,end_s\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%s,%.9f,%.9f\n", i, s.parent, s.name,
                   s.start_s, s.end_s);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  Reading before_{};
  Reading delta_{};
};

// -- the simulated outputs and their digest -----------------------------

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv_u64(h, bits);
}

/// Placement digest folded with every CloudStats and ServeStats field.
std::uint64_t sim_digest(const osk::Cloud& cloud) {
  const osk::CloudStats& s = cloud.stats();
  std::uint64_t h = fnv_u64(kFnvOffset, cloud.placement_digest());
  for (std::uint64_t v :
       {s.submitted, s.accepted, s.rejected, s.rejected_for_power,
        s.completed, s.lost_to_errors, s.lost_to_node_crash, s.evacuations,
        s.migrations, s.migrations_started, s.migrations_cancelled,
        s.postcopy_migrations, s.migration_failures, s.node_crash_events,
        s.sla_violations}) {
    h = fnv_u64(h, v);
  }
  for (double v : {s.total_energy_kwh, s.migration_energy_kwh,
                   s.migration_transferred_mb, s.migration_downtime_s,
                   s.mean_node_availability}) {
    h = fnv_double(h, v);
  }
  if (const serve::ServeLayer* layer = cloud.serving()) {
    const serve::ServeStats& sv = layer->stats();
    for (std::uint64_t v :
         {sv.generated, sv.admitted, sv.completed, sv.dropped_overload,
          sv.dropped_unroutable, sv.dropped_lost, sv.slo_violations,
          sv.slo_violations_critical, sv.stalls}) {
      h = fnv_u64(h, v);
    }
    h = fnv_double(h, sv.latency_sum_s);
    h = fnv_double(h, sv.max_latency_s);
  }
  return h;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// -- JSON output --------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void boolean(const std::string& key, bool v) {
    raw(key, v ? "true" : "false");
  }
  void raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + v;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  bool seed_given{false};
  bool small{false};
  bool trace{false};
  std::string spans_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
      o.seed_given = true;
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--spans-out" && has_value) {
      o.spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seed_given;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: fleet_bench --workload NAME --seed N [--small] "
                 "[--trace] [--spans-out FILE]\n");
    return 2;
  }
  const std::optional<Shape> found = shape_of(options.workload, options.small);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  const Shape& shape = *found;
  const std::uint64_t seed = options.seed;
  Tracer tracer(options.trace);

  // ---- setup: fleet, commissioning, trace generator ----
  HostProbe probe;
  probe.slice();
  probe.slice();
  const Clock::time_point setup_start = Clock::now();
  const int setup_span = tracer.open("setup", -1);
  tracer.begin_delta();

  osk::CloudConfig cloud_config;
  cloud_config.policy = osk::SchedulerPolicy::kReliabilityAware;
  cloud_config.proactive_migration = true;
  cloud_config.serve.enabled = shape.serve;
  cloud_config.serve.seed = seed ^ 0x5E12F00DULL;
  hw::NodeSpec node_spec;
  node_spec.chip = hw::arm_soc_spec();

  std::unique_ptr<core::Ecosystem> ecosystem;
  std::unique_ptr<osk::Cloud> owned_cloud;
  int span = tracer.open("core.fleet_build", setup_span);
  if (shape.commission) {
    core::EcosystemConfig eco;
    eco.node_spec = node_spec;
    eco.cloud = cloud_config;
    eco.shmoo = stress::ShmooConfig{.runs = 1};
    eco.nodes = shape.nodes;
    ecosystem = std::make_unique<core::Ecosystem>(eco, kFleetSeed);
  } else {
    owned_cloud = osk::Cloud::make_uniform(cloud_config, node_spec,
                                           hv::HvConfig{}, shape.nodes,
                                           kFleetSeed);
  }
  tracer.close(span);
  const int build_span = span;
  int commission_span = -1;
  if (ecosystem) {
    commission_span = tracer.open("core.commission", setup_span);
    ecosystem->commission();
    tracer.close(commission_span);
  }
  osk::Cloud& cloud = ecosystem ? ecosystem->cloud() : *owned_cloud;

  span = tracer.open("trace.gen", setup_span);
  trace::FleetTraceConfig trace_config;
  trace_config.nodes = shape.nodes;
  trace_config.vcpus_per_node = node_spec.chip.cores;
  trace_config.vms = static_cast<std::uint64_t>(shape.nodes) *
                     static_cast<std::uint64_t>(shape.vms_per_node);
  trace_config.days = 1.0;
  trace::FleetTraceGenerator generator(trace_config, seed + 1);
  tracer.close(span);
  const std::vector<Storm> storms = storm_plan(shape, seed);

  tracer.end_delta();
  tracer.close(setup_span);
  const double setup_wall_s = seconds_since(setup_start);
  probe.slice();
  probe.slice();
  const double rss_after_setup_mb = peak_rss_mb();

  // ---- run: one Cloud::run per control tick ----
  const Clock::time_point run_start = Clock::now();
  const int run_span = tracer.open("run", -1);
  std::vector<double> tick_s;
  if (tracer.on()) tick_s.reserve(kTicksPerDay);
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
  double fanout_sum = 0.0;
  std::size_t next_storm = 0;
  std::vector<trace::VmRequest> batch;
  span = tracer.open("trace.gen", run_span);
  std::optional<trace::VmRequest> pending = generator.next();
  tracer.close(span);

  double probe_in_run_s = 0.0;
  for (int tick = 1; tick <= kTicksPerDay; ++tick) {
    const double now = kTickS * tick;
    if (tick % kProbeEveryTicks == 0) {
      span = tracer.open("bench.probe", run_span);
      probe_in_run_s += probe.slice();
      tracer.close(span);
    }
    span = tracer.open("trace.gen", run_span);
    batch.clear();
    while (pending && pending->arrival.value <= now) {
      batch.push_back(*pending);
      pending = generator.next();
    }
    tracer.close(span);

    if (next_storm < storms.size() && storms[next_storm].tick == tick) {
      span = tracer.open("openstack.inject", run_span);
      tracer.begin_delta();
      for (; next_storm < storms.size() && storms[next_storm].tick == tick;
           ++next_storm) {
        const Storm& storm = storms[next_storm];
        if (storm.rack) {
          cloud.inject_rack_power_loss(storm.node);
        } else {
          for (int k = 0; k < shape.nodes_per_wave; ++k) {
            cloud.inject_eop_retreat((storm.node + k) % shape.nodes);
          }
        }
      }
      tracer.end_delta();
      tracer.close(span);
    }

    span = tracer.open("openstack.tick", run_span);
    tracer.begin_delta();
    const std::uint64_t allocs0 = g_heap_allocs.load();
    const std::uint64_t bytes0 = g_heap_bytes.load();
    g_count_heap.store(tracer.on(), std::memory_order_relaxed);
    cloud.run(batch, Seconds{now});
    g_count_heap.store(false, std::memory_order_relaxed);
    heap_allocs += g_heap_allocs.load() - allocs0;
    heap_bytes += g_heap_bytes.load() - bytes0;
    tracer.end_delta();
    tracer.close(span);
    if (tracer.on()) {
      tick_s.push_back(tracer.duration(span));
      if (const serve::ServeLayer* layer = cloud.serving();
          layer != nullptr && layer->services() > 0) {
        fanout_sum += static_cast<double>(cloud.active_placements().size()) /
                      static_cast<double>(layer->services());
      }
    }
  }
  tracer.close(run_span);
  const double run_wall_s = seconds_since(run_start) - probe_in_run_s;
  const double slowdown = probe.slowdown();

  // ---- books ----
  const osk::CloudStats& stats = cloud.stats();
  const serve::ServeLayer* layer = cloud.serving();
  const bool cloud_books =
      fuzz::cloud_books_balance(stats, cloud.active_placements().size());
  const bool serve_books =
      layer == nullptr ||
      fuzz::serve_books_balance(layer->stats(), layer->outstanding());
  double node_kwh = 0.0;
  for (const osk::ComputeNode* node : cloud.node_views()) {
    node_kwh += node->metrics().energy_kwh;
  }
  const double energy_drift = std::fabs(
      stats.total_energy_kwh - (node_kwh + stats.migration_energy_kwh));
  const bool energy_closes =
      energy_drift <= 1e-9 * std::max(1.0, std::fabs(stats.total_energy_kwh));
  const bool ok = cloud_books && serve_books && energy_closes &&
                  stats.submitted > 0;

  const serve::ServeStats sv = layer ? layer->stats() : serve::ServeStats{};
  const double vm_failed = static_cast<double>(
      stats.rejected + stats.lost_to_errors + stats.lost_to_node_crash);
  const double req_failed = static_cast<double>(
      sv.dropped_overload + sv.dropped_unroutable + sv.dropped_lost +
      sv.slo_violations);

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(sim_digest(cloud)));

  JsonObject out;
  out.str("workload", shape.name);
  out.num("seed", static_cast<double>(seed));
  out.num("nodes", shape.nodes);
  out.boolean("ok", ok);
  out.boolean("cloud_books", cloud_books);
  out.boolean("serve_books", serve_books);
  out.boolean("energy_closes", energy_closes);
  out.str("sim_digest", digest);
  out.num("vm_requests", static_cast<double>(stats.submitted));
  out.num("user_requests", static_cast<double>(sv.generated));
  out.num("setup_s", setup_wall_s / slowdown);
  out.num("run_s", run_wall_s / slowdown);
  out.num("setup_wall_s", setup_wall_s);
  out.num("run_wall_s", run_wall_s);
  out.num("host_slowdown", slowdown);
  out.num("peak_rss_mb", peak_rss_mb());
  out.num("sim_energy_kwh", stats.total_energy_kwh);
  out.num("vm_fail_share",
          share(vm_failed, static_cast<double>(stats.submitted)));
  out.num("req_p50_sim_ms", layer ? layer->latency_percentile_ms(50.0) : 0.0);
  out.num("req_p99_sim_ms", layer ? layer->latency_percentile_ms(99.0) : 0.0);
  out.num("req_fail_share",
          share(req_failed, static_cast<double>(sv.generated)));

  if (tracer.on()) {
    const double node_ticks = tracer.delta("hv.ticks");
    const double tick_total = tracer.total("openstack.tick");
    const double picks = tracer.delta("cloud.sched.picks");
    const double mig_submitted = tracer.delta("cloud.mig.submitted");
    JsonObject layers;
    const auto metric = [&layers](const char* name, double v,
                                  const char* unit) {
      JsonObject m;
      m.num("value", v);
      m.str("unit", unit);
      layers.raw(name, m.text());
    };
    metric("core.fleet_build_s", tracer.duration(build_span), "s");
    metric("core.rss_after_setup_mb", rss_after_setup_mb, "MB");
    metric("core.commission_s",
           commission_span >= 0 ? tracer.duration(commission_span) : 0.0,
           "s");
    metric("daemons.stresslog_cycles",
           tracer.delta("daemon.stresslog.cycles"), "count");
    metric("trace.gen_s", tracer.total("trace.gen"), "s");
    metric("trace.vm_requests", static_cast<double>(generator.emitted()),
           "count");
    metric("hypervisor.node_ticks", node_ticks, "count");
    metric("openstack.ns_per_node_tick", 1e9 * share(tick_total, node_ticks),
           "ns");
    metric("daemons.healthlog_vectors",
           tracer.delta("daemon.healthlog.vectors"), "count");
    metric("common.heap_allocs_per_node_tick",
           share(static_cast<double>(heap_allocs), node_ticks), "count");
    metric("common.heap_bytes_per_node_tick",
           share(static_cast<double>(heap_bytes), node_ticks), "B");
    metric("daemons.errors_correctable",
           tracer.delta("daemon.healthlog.errors_correctable"), "count");
    metric("daemons.errors_uncorrectable",
           tracer.delta("daemon.healthlog.errors_uncorrectable"), "count");
    metric("daemons.recharacterize_triggers",
           tracer.delta("daemon.healthlog.recharacterize_triggers"), "count");
    metric("hypervisor.vm_kills", tracer.delta("hv.vm_kills"), "count");
    metric("hypervisor.vm_restores", tracer.delta("hv.vm_restores"),
           "count");
    metric("hypervisor.node_crashes", tracer.delta("hv.node_crashes"),
           "count");
    metric("openstack.tick_s", tick_total, "s");
    metric("openstack.tick_p50_ms", 1e3 * percentile(tick_s, 50.0), "ms");
    metric("openstack.tick_p99_ms", 1e3 * percentile(tick_s, 99.0), "ms");
    metric("openstack.placement_s",
           1e-6 * tracer.delta("cloud.placement_wall_us"), "s");
    metric("openstack.picks", picks, "count");
    metric("openstack.scan_nodes_per_pick",
           share(tracer.delta("cloud.sched.pick_scan_nodes"), picks), "count");
    metric("openstack.index_updates", tracer.delta("cloud.sched.index_updates"),
           "count");
    metric("openstack.accept_ratio",
           share(static_cast<double>(stats.accepted),
                 static_cast<double>(stats.submitted)),
           "ratio");
    metric("openstack.vm_fail_share",
           share(vm_failed, static_cast<double>(stats.submitted)), "ratio");
    metric("openstack.evacuations", tracer.delta("cloud.evacuations"),
           "count");
    metric("openstack.monitor_tracked_vms",
           static_cast<double>(cloud.monitor().tracked_vms()), "count");
    metric("openstack.inject_s", tracer.total("openstack.inject"), "s");
    metric("openstack.mig_submitted", mig_submitted, "count");
    metric("openstack.mig_completed", tracer.delta("cloud.mig.completed"),
           "count");
    metric("openstack.mig_commit_ratio",
           share(tracer.delta("cloud.mig.completed"), mig_submitted),
           "ratio");
    metric("openstack.mig_cancelled", tracer.delta("cloud.mig.cancelled"),
           "count");
    metric("openstack.mig_queue_wait_sim_s",
           tracer.delta("cloud.mig.queue_wait_s"), "s");
    metric("serve.requests", static_cast<double>(sv.generated), "count");
    metric("serve.completed", static_cast<double>(sv.completed), "count");
    metric("serve.dropped",
           static_cast<double>(sv.dropped_overload + sv.dropped_unroutable +
                               sv.dropped_lost),
           "count");
    metric("serve.slo_misses", static_cast<double>(sv.slo_violations),
           "count");
    metric("serve.stalls", static_cast<double>(sv.stalls), "count");
    metric("serve.route_fanout",
           fanout_sum / static_cast<double>(kTicksPerDay), "count");
    metric("serve.ns_per_request",
           1e9 * share(tick_total, static_cast<double>(sv.generated)), "ns");
    metric("serve.req_p50_sim_ms",
           layer ? layer->latency_percentile_ms(50.0) : 0.0, "ms");
    metric("serve.req_p99_sim_ms",
           layer ? layer->latency_percentile_ms(99.0) : 0.0, "ms");
    metric("serve.req_fail_share",
           share(req_failed, static_cast<double>(sv.generated)), "ratio");
    metric("bench.run_wall_s", run_wall_s, "s");
    metric("bench.host_slowdown", slowdown, "ratio");
    metric("telemetry.trace_events", tracer.delta("telemetry.trace_events"),
           "count");
    metric("common.pool_tasks", tracer.delta("exec.pool.tasks"), "count");
    out.raw("layers", layers.text());
    if (!options.spans_out.empty() && !tracer.write_csv(options.spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", options.spans_out.c_str());
      return 1;
    }
  }

  std::printf("%s\n", out.text().c_str());
  return ok ? 0 : 1;
}
