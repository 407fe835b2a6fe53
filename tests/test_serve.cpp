// Request serving layer (ctest label `serve`).
//
// Covers the three serve primitives against closed forms and
// determinism contracts — the virtual-time vCPU queue against M/M/1
// and a min-heap of completions, the replica balancer's tie-breaking,
// the layer's in-place router against that balancer, the layer's
// conservation books — plus the fuzz integration: replay v3
// round-trips, v2 files still parse, request-burst campaigns stay
// digest-invariant across --jobs, and the serve-slo oracle's balance
// helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fuzz/harness.h"
#include "fuzz/oracles.h"
#include "fuzz/scenario.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/platform.h"
#include "serve/serve.h"
#include "stress/profiles.h"
#include "trace/arrivals.h"
#include "trace/diurnal.h"

namespace uniserver {
namespace {

// -- VcpuQueue ---------------------------------------------------------

TEST(VcpuQueue, SingleServerIsFifo) {
  serve::VcpuQueue queue(1, 16);
  const auto first = queue.offer(Seconds{0.0}, Seconds{1.0});
  const auto second = queue.offer(Seconds{0.0}, Seconds{1.0});
  ASSERT_TRUE(first.admitted);
  ASSERT_TRUE(second.admitted);
  EXPECT_DOUBLE_EQ(first.latency.value, 1.0);
  EXPECT_DOUBLE_EQ(second.latency.value, 2.0);  // queued behind the first
  EXPECT_EQ(queue.outstanding(), 2u);
  EXPECT_EQ(queue.drain(Seconds{1.5}), 1u);
  EXPECT_EQ(queue.outstanding(), 1u);
  EXPECT_EQ(queue.drain(Seconds{2.0}), 1u);
}

TEST(VcpuQueue, MultipleVcpusServeInParallel) {
  serve::VcpuQueue queue(2, 16);
  const auto a = queue.offer(Seconds{0.0}, Seconds{1.0});
  const auto b = queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(a.latency.value, 1.0);
  EXPECT_DOUBLE_EQ(b.latency.value, 1.0);  // second server, no wait
  const auto c = queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(c.latency.value, 2.0);  // both busy now
}

TEST(VcpuQueue, CapShedsExcessArrivals) {
  serve::VcpuQueue queue(1, 2);
  EXPECT_TRUE(queue.offer(Seconds{0.0}, Seconds{1.0}).admitted);
  EXPECT_TRUE(queue.offer(Seconds{0.0}, Seconds{1.0}).admitted);
  EXPECT_FALSE(queue.offer(Seconds{0.0}, Seconds{1.0}).admitted);
  // Draining a completion frees a slot again.
  EXPECT_EQ(queue.drain(Seconds{1.0}), 1u);
  EXPECT_TRUE(queue.offer(Seconds{1.0}, Seconds{1.0}).admitted);
}

TEST(VcpuQueue, StallGatesOnlySubsequentDispatches) {
  serve::VcpuQueue queue(1, 16);
  const auto before = queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(before.latency.value, 1.0);
  // An 8 s restore at t=2: the busy horizon jumps to max(1, 2) + 8.
  queue.stall(Seconds{2.0}, Seconds{8.0});
  const auto after = queue.offer(Seconds{2.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(after.latency.value, 9.0);
  // The pre-stall request's completion time was already handed out.
  EXPECT_EQ(queue.drain(Seconds{1.0}), 1u);
}

TEST(VcpuQueue, BacklogSumsResidualBusyTime) {
  serve::VcpuQueue queue(2, 16);
  queue.offer(Seconds{0.0}, Seconds{3.0});
  queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(queue.backlog(Seconds{0.0}).value, 4.0);
  EXPECT_DOUBLE_EQ(queue.backlog(Seconds{2.0}).value, 1.0);
  EXPECT_DOUBLE_EQ(queue.backlog(Seconds{5.0}).value, 0.0);
}

TEST(VcpuQueue, MatchesMM1ClosedFormMeanSojourn) {
  // One vCPU, Poisson arrivals at lambda, exponential demands at mu:
  // textbook M/M/1, mean sojourn 1/(mu - lambda).
  const double lambda = 8.0;
  const double mu = 20.0;
  serve::VcpuQueue queue(1, 1u << 20);
  Rng rng(42);
  double t = 0.0;
  double latency_sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(lambda);
    const auto offer = queue.offer(Seconds{t}, Seconds{rng.exponential(mu)});
    ASSERT_TRUE(offer.admitted);
    latency_sum += offer.latency.value;
  }
  const double mean = latency_sum / n;
  const double expected = 1.0 / (mu - lambda);
  EXPECT_NEAR(mean, expected, expected * 0.05)
      << "mean sojourn " << mean << " vs closed form " << expected;
}

TEST(VcpuQueue, MultiVcpuDrainAndCapMatchMinHeapAcrossStalls) {
  // The queue keeps one completion FIFO per vCPU; the reference keeps
  // every handed-out completion in one min-heap. Admission at the cap,
  // outstanding counts and drain counts must agree through stalls.
  for (int vcpus : {1, 2, 3, 4}) {
    const std::size_t cap = 6;
    serve::VcpuQueue queue(vcpus, cap);
    std::priority_queue<double, std::vector<double>, std::greater<>> heap;
    Rng rng(static_cast<std::uint64_t>(17 + vcpus));
    double t = 0.0;
    std::size_t shed = 0;
    std::size_t drained = 0;
    for (int step = 0; step < 4000; ++step) {
      t += rng.exponential(4.0);
      if (rng.bernoulli(0.05)) {
        queue.stall(Seconds{t}, Seconds{rng.uniform(0.0, 3.0)});
      }
      const auto offer =
          queue.offer(Seconds{t}, Seconds{rng.exponential(1.5)});
      ASSERT_EQ(offer.admitted, heap.size() < cap) << "step " << step;
      if (offer.admitted) {
        heap.push(offer.completion.value);
      } else {
        ++shed;
      }
      if (rng.bernoulli(0.3)) {
        const double now = t + rng.uniform(-1.0, 1.0);
        std::uint64_t expected = 0;
        while (!heap.empty() && heap.top() <= now) {
          heap.pop();
          ++expected;
        }
        ASSERT_EQ(queue.drain(Seconds{now}), expected) << "step " << step;
        drained += expected;
      }
      ASSERT_EQ(queue.outstanding(), heap.size()) << "step " << step;
    }
    EXPECT_GT(shed, 0u) << vcpus << " vCPUs never reached the cap";
    EXPECT_GT(drained, 0u);
  }
}

// -- ReplicaBalancer ---------------------------------------------------

TEST(ReplicaBalancer, LeastBacklogWinsTiesToLowestId) {
  EXPECT_EQ(serve::ReplicaBalancer::route(
                {{7, Seconds{2.0}}, {3, Seconds{0.5}}, {9, Seconds{1.0}}}),
            3u);
  // Exact tie: the lowest VM id wins regardless of listing order.
  EXPECT_EQ(serve::ReplicaBalancer::route(
                {{9, Seconds{1.0}}, {4, Seconds{1.0}}, {6, Seconds{1.0}}}),
            4u);
}

// -- ServeLayer --------------------------------------------------------

trace::VmRequest make_vm(std::uint64_t id, int vcpus,
                         trace::SlaClass sla = trace::SlaClass::kStandard) {
  trace::VmRequest vm;
  vm.id = id;
  vm.vcpus = vcpus;
  vm.sla = sla;
  vm.workload = stress::web_service_profile();
  return vm;
}

serve::ServeConfig layer_config() {
  serve::ServeConfig config;
  config.enabled = true;
  config.seed = 99;
  config.requests_per_vcpu_hz = 2.0;
  config.replica_groups = 1;  // every VM its own service
  return config;
}

void expect_books_balance(const serve::ServeLayer& layer) {
  const serve::ServeStats& s = layer.stats();
  EXPECT_EQ(s.generated,
            s.admitted + s.dropped_overload + s.dropped_unroutable);
  EXPECT_EQ(s.admitted, s.completed + s.dropped_lost + layer.outstanding());
  EXPECT_TRUE(fuzz::serve_books_balance(s, layer.outstanding()));
}

TEST(ServeLayer, GeneratesAndConservesRequests) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer layer(layer_config());
  layer.on_vm_placed(make_vm(1, 2), &node);
  layer.on_vm_placed(make_vm(2, 2), &node);
  for (int tick = 1; tick <= 10; ++tick) {
    layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
    expect_books_balance(layer);
  }
  EXPECT_GT(layer.stats().generated, 0u);
  EXPECT_GT(layer.stats().completed, 0u);
  EXPECT_EQ(layer.services(), 2u);
  // Every admitted request left a latency sample in the layer's own
  // histogram.
  EXPECT_EQ(layer.latency_histogram().count(), layer.stats().admitted);
}

TEST(ServeLayer, SameSeedIsBitIdentical) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer a(layer_config());
  serve::ServeLayer b(layer_config());
  for (serve::ServeLayer* layer : {&a, &b}) {
    layer->on_vm_placed(make_vm(1, 2), &node);
    layer->on_vm_placed(make_vm(4, 1), &node);
    layer->inject_burst(Seconds{90.0}, 25);
    for (int tick = 1; tick <= 8; ++tick) {
      layer->advance(Seconds{tick * 60.0}, Seconds{60.0});
    }
  }
  EXPECT_EQ(a.stats().generated, b.stats().generated);
  EXPECT_EQ(a.stats().admitted, b.stats().admitted);
  EXPECT_EQ(a.stats().completed, b.stats().completed);
  EXPECT_DOUBLE_EQ(a.stats().latency_sum_s, b.stats().latency_sum_s);
  EXPECT_DOUBLE_EQ(a.stats().max_latency_s, b.stats().max_latency_s);
}

TEST(ServeLayer, DiurnalShapeModulatesTheRate) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  // Same seed, same duration: one window at the diurnal peak (14:00),
  // one in the trough (02:00). The thinned Poisson stream must emit
  // clearly more requests at the peak.
  const double peak_hour_s = 14.0 * 3600.0;
  const double trough_hour_s = 2.0 * 3600.0;
  serve::ServeLayer peak(layer_config());
  serve::ServeLayer trough(layer_config());
  peak.on_vm_placed(make_vm(1, 4), &node);
  trough.on_vm_placed(make_vm(1, 4), &node);
  peak.advance(Seconds{peak_hour_s + 3600.0}, Seconds{3600.0});
  trough.advance(Seconds{trough_hour_s + 3600.0}, Seconds{3600.0});
  EXPECT_GT(peak.stats().generated, 2 * trough.stats().generated);
}

TEST(ServeLayer, StallFattensTheTail) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer calm(layer_config());
  serve::ServeLayer stalled(layer_config());
  for (serve::ServeLayer* layer : {&calm, &stalled}) {
    layer->on_vm_placed(make_vm(1, 2), &node);
  }
  // Identical arrivals (same seed, single VM, so the Rng consumption
  // order cannot diverge); only the stall distinguishes the runs.
  for (int tick = 1; tick <= 10; ++tick) {
    if (tick == 3) {
      stalled.add_stall(1, Seconds{3 * 60.0}, Seconds{8.0});
    }
    calm.advance(Seconds{tick * 60.0}, Seconds{60.0});
    stalled.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }
  EXPECT_EQ(stalled.stats().stalls, 1u);
  EXPECT_EQ(calm.stats().stalls, 0u);
  EXPECT_EQ(calm.stats().generated, stalled.stats().generated);
  EXPECT_GT(stalled.stats().max_latency_s, calm.stats().max_latency_s + 7.0);
  EXPECT_GT(stalled.latency_percentile_ms(99.9),
            calm.latency_percentile_ms(99.9));
  expect_books_balance(stalled);
}

TEST(ServeLayer, DownclockedNodeServesSlower) {
  // Same workload on a node running at half frequency: compute-bound
  // service times double, so mean latency rises.
  hw::ServerNode nominal(hw::NodeSpec{}, 5);
  hw::ServerNode slow(hw::NodeSpec{}, 5);
  hw::Eop eop;
  eop.vdd = slow.spec().chip.vdd_nominal;
  eop.freq = MegaHertz{slow.spec().chip.freq_nominal.value / 2.0};
  eop.refresh = slow.spec().dimm.nominal_refresh;
  slow.set_eop(eop);

  serve::ServeLayer fast_layer(layer_config());
  serve::ServeLayer slow_layer(layer_config());
  fast_layer.on_vm_placed(make_vm(1, 2), &nominal);
  slow_layer.on_vm_placed(make_vm(1, 2), &slow);
  for (int tick = 1; tick <= 10; ++tick) {
    fast_layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
    slow_layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }
  ASSERT_EQ(fast_layer.stats().admitted, slow_layer.stats().admitted);
  EXPECT_GT(slow_layer.stats().latency_sum_s,
            fast_layer.stats().latency_sum_s);
}

TEST(ServeLayer, RemovingVmOrphansOutstandingRequests) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer layer(layer_config());
  layer.on_vm_placed(make_vm(1, 1), &node);
  // A burst half a second before the window end: about five seconds of
  // work on one vCPU, so most of it is still queued when the VM goes.
  layer.inject_burst(Seconds{59.5}, 100);
  layer.advance(Seconds{60.0}, Seconds{60.0});
  const std::size_t outstanding = layer.outstanding();
  ASSERT_GT(outstanding, 50u);
  layer.on_vm_removed(1);
  EXPECT_EQ(layer.outstanding(), 0u);
  EXPECT_EQ(layer.stats().dropped_lost, outstanding);
  EXPECT_EQ(layer.services(), 0u);
  expect_books_balance(layer);
}

TEST(ServeLayer, ReplacingALiveVmOrphansItsQueue) {
  // Placing an id that is already live starts a fresh queue; the old
  // queue's outstanding requests are counted lost, so the books still
  // balance.
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer layer(layer_config());
  layer.on_vm_placed(make_vm(1, 1), &node);
  layer.inject_burst(Seconds{59.5}, 100);
  layer.advance(Seconds{60.0}, Seconds{60.0});
  const std::size_t outstanding = layer.outstanding();
  ASSERT_GT(outstanding, 50u);
  layer.on_vm_placed(make_vm(1, 2), &node);
  EXPECT_EQ(layer.outstanding(), 0u);
  EXPECT_EQ(layer.stats().dropped_lost, outstanding);
  EXPECT_EQ(layer.services(), 1u);
  layer.advance(Seconds{120.0}, Seconds{60.0});
  expect_books_balance(layer);
}

TEST(ServeLayer, BurstOnEmptyFleetIsUnroutable) {
  serve::ServeLayer layer(layer_config());
  layer.inject_burst(Seconds{30.0}, 40);
  layer.advance(Seconds{60.0}, Seconds{60.0});
  EXPECT_EQ(layer.stats().generated, 40u);
  EXPECT_EQ(layer.stats().dropped_unroutable, 40u);
  expect_books_balance(layer);
}

TEST(ServeLayer, QueueCapShedsOverload) {
  // Generator off: one burst 100 requests past the cap arrives at once,
  // before anything can complete, so exactly the excess is shed.
  constexpr std::size_t kCap = serve::ServeLayer::kQueueCap;
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeConfig config = layer_config();
  config.requests_per_vcpu_hz = 0.0;
  serve::ServeLayer layer(config);
  layer.on_vm_placed(make_vm(1, 1), &node);
  layer.inject_burst(Seconds{30.0}, kCap + 100);
  layer.advance(Seconds{60.0}, Seconds{60.0});
  EXPECT_EQ(layer.stats().admitted, kCap);
  EXPECT_EQ(layer.stats().dropped_overload, 100u);
  EXPECT_LE(layer.outstanding(), kCap);
  expect_books_balance(layer);
}

TEST(ServeLayer, CriticalSloViolationsAreCountedPerClass) {
  // A 1-vCPU critical VM queues past its 0.25 s SLO now and then; a
  // wide standard VM in its own service barely queues and stays under
  // its 0.5 s SLO.
  static_assert(serve::ServeLayer::kSloCritical.value == 0.25);
  static_assert(serve::ServeLayer::kSloStandard.value == 0.5);
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer layer(layer_config());
  layer.on_vm_placed(make_vm(1, 1, trace::SlaClass::kCritical), &node);
  layer.on_vm_placed(make_vm(2, 16, trace::SlaClass::kStandard), &node);
  for (int tick = 1; tick <= 5; ++tick) {
    layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }
  ASSERT_GT(layer.stats().slo_violations, 0u);
  EXPECT_EQ(layer.stats().slo_violations,
            layer.stats().slo_violations_critical);
}

// -- Per-window replica speed ------------------------------------------
//
// advance() evaluates ServeLayer::speed_factor once per replica at the
// top of each window and every dispatch divides by that value. With the
// generator off, a one-request burst into an idle single-vCPU replica
// leaves a backlog of (at + demand / speed) - at, and the demand is the
// layer Rng's next exponential draw, so a mirror Rng predicts each
// window's service time exactly.

TEST(ServeLayer, EveryDispatchUsesTheSpeedOfItsWindow) {
  serve::ServeConfig config = layer_config();
  config.requests_per_vcpu_hz = 0.0;
  hw::ServerNode a(hw::NodeSpec{}, 5);
  hw::ServerNode b(hw::NodeSpec{}, 6);
  serve::ServeLayer layer(config);
  Rng mirror(config.seed);
  Rng script(17);
  trace::VmRequest vm = make_vm(1, 1);
  hw::ServerNode* host = &a;
  layer.on_vm_placed(vm, host);
  std::set<double> speeds;
  for (int tick = 1; tick <= 240; ++tick) {
    // Between windows, one change that moves the replica's speed.
    switch (tick % 3) {
      case 0: {  // the host's node takes a new EOP
        hw::Eop eop = host->eop();
        eop.freq = MegaHertz{host->spec().chip.freq_nominal.value *
                             script.uniform(0.4, 1.0)};
        eop.refresh = Seconds{host->spec().dimm.nominal_refresh.value *
                              script.uniform(0.5, 4.0)};
        host->set_eop(eop);
        break;
      }
      case 1:  // the VM migrates to the other node
        host = host == &a ? &b : &a;
        layer.on_vm_moved(vm.id, host);
        break;
      default:  // the VM id is placed again, with another workload mix
        vm.workload.mem_intensity = script.uniform();
        layer.on_vm_placed(vm, host);
        break;
    }
    const double speed = serve::ServeLayer::speed_factor(vm, host);
    speeds.insert(speed);
    const double t0 = (tick - 1) * 60.0;
    const Seconds at{t0 + 10.0};
    layer.inject_burst(at, 1);
    layer.advance(Seconds{t0 + 60.0}, Seconds{60.0});
    const double demand =
        mirror.exponential(1.0 / serve::ServeLayer::kMeanService.value);
    ASSERT_EQ(layer.backlog(vm.id, at).value,
              (at.value + demand / speed) - at.value)
        << "window " << tick;
  }
  EXPECT_EQ(layer.stats().admitted, 240u);
  EXPECT_GT(speeds.size(), 200u);
}

// -- Diurnal thinning band ---------------------------------------------
//
// ServeLayer::advance thins each window's candidates against
// trace::diurnal_band instead of evaluating diurnal_factor per
// candidate. The band must hold the factor at every time in its window,
// and its decision must equal the reference `draw <= factor(t)`.

struct BandCheck {
  trace::DiurnalConfig config{};
  Rng rng{2024};
  std::uint64_t samples{0};
  std::uint64_t inside{0};  ///< draws that needed the factor itself

  // Checks the band of [t0, t0 + window] at its two ends, the last time
  // before its end and `interior` uniform times.
  void window(double t0, double window, int interior) {
    const trace::FactorBand band =
        trace::diurnal_band(config, Seconds{t0}, Seconds{window});
    const double end = t0 + window;
    std::vector<double> times = {t0, end, std::nextafter(end, t0)};
    for (int k = 0; k < interior; ++k) {
      times.push_back(t0 + rng.uniform() * window);
    }
    for (const double t : times) {
      const double factor = trace::diurnal_factor(config, Seconds{t});
      ASSERT_LE(band.lo, factor) << "t0 " << t0 << " window " << window
                                 << " t " << t;
      ASSERT_GE(band.hi, factor) << "t0 " << t0 << " window " << window
                                 << " t " << t;
      // A uniform draw as advance() makes it, and draws on and next to
      // the factor itself.
      for (const double draw :
           {rng.uniform() * config.peak_factor, factor,
            std::nextafter(factor, 0.0), std::nextafter(factor, 2.0)}) {
        ASSERT_EQ(band.under_factor(draw, config, Seconds{t}),
                  draw <= factor)
            << "t " << t << " draw " << draw;
        if (draw > band.lo && draw <= band.hi) ++inside;
      }
      ++samples;
    }
  }
};

TEST(DiurnalBand, HoldsTheFactorOverThirtyDaysOfServingWindows) {
  // 60 s windows as the cloud drives them: every midnight wrap, 14:00
  // peak and 02:00 trough of 30 days.
  BandCheck check;
  constexpr double kDay = 86400.0;
  for (double t0 = 0.0; t0 < 30.0 * kDay; t0 += 60.0) {
    check.window(t0, 60.0, 2);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(check.samples, 200000u);
  EXPECT_GT(check.inside, 0u);
}

TEST(DiurnalBand, HoldsTheFactorAtOneYearAndOverOddWindows) {
  // A year into a run, t / 3600 rounds to about 2e-12 h, and windows of
  // odd lengths, from a few ulps of t to a day, start at odd offsets.
  BandCheck check;
  constexpr double kYear = 365.0 * 86400.0;
  const double lengths[] = {1.5e-8, 1e-6, 0.37, 7.0, 61.3, 599.9, 3600.0,
                            86400.0};
  int n = 0;
  for (double t0 = kYear; t0 < kYear + 86400.0; t0 += 37.3, ++n) {
    check.window(t0, lengths[n % std::size(lengths)], 3);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Around the steepest times (08:00 and 20:00 with the 14:00 peak),
  // where the slope bound is tightest.
  for (const double hour : {8.0, 20.0}) {
    for (double dt = -120.0; dt <= 120.0; dt += 0.25) {
      for (const double length : lengths) {
        check.window(kYear + hour * 3600.0 + dt, length, 1);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(check.samples, 50000u);
}

// -- serve-slo oracle helper -------------------------------------------

// -- Router differential -----------------------------------------------
//
// The layer routes with an in-place scan; ReplicaBalancer::route is the
// reference. A seeded script places, moves, removes and stalls VMs of
// 1-4 vCPUs and fires bursts, tracking service membership on its own.

class RouterDifferential {
 public:
  RouterDifferential(const serve::ServeConfig& config, std::uint64_t seed)
      : config_(config),
        layer_(config),
        rng_(seed),
        slow_(hw::NodeSpec{}, 6) {
    hw::Eop eop;
    eop.vdd = slow_.spec().chip.vdd_nominal;
    eop.freq = MegaHertz{slow_.spec().chip.freq_nominal.value / 3.0};
    eop.refresh = slow_.spec().dimm.nominal_refresh;
    slow_.set_eop(eop);
  }

  /// The routing paths of the picks check_routes compared.
  struct Tally {
    int idle_ahead_of_last{0};  ///< an idle pick before the last member
    int all_busy{0};            ///< every member busy: a full scan
  };

  serve::ServeLayer& layer() { return layer_; }
  const std::map<std::uint64_t, std::set<std::uint64_t>>& services() const {
    return services_;
  }
  const Tally& tally() const { return tally_; }

  /// ReplicaBalancer's pick over the live members' backlogs at `at`,
  /// listed in shuffled order (the reference is order-independent).
  std::uint64_t reference_pick(std::uint64_t service, Seconds at) {
    std::vector<std::pair<std::uint64_t, Seconds>> backlogs;
    for (std::uint64_t id : services_.at(service)) {
      backlogs.emplace_back(id, layer_.backlog(id, at));
    }
    std::shuffle(backlogs.begin(), backlogs.end(), rng_);
    return serve::ReplicaBalancer::route(backlogs);
  }

  /// One random membership or stall change at simulated time `now`.
  void mutate(double now) {
    const double u = rng_.uniform();
    if (u < 0.4 || live_.empty()) {
      const std::uint64_t id = 1 + rng_.uniform_u64(40);
      const int vcpus = static_cast<int>(rng_.uniform_int(1, 4));
      layer_.on_vm_placed(make_vm(id, vcpus), pick_node());
      live_.insert(id);
      services_[service_of(id)].insert(id);
    } else if (u < 0.55) {
      layer_.on_vm_moved(pick_live(), pick_node());
    } else if (u < 0.7) {
      const std::uint64_t id = pick_live();
      layer_.on_vm_removed(id);
      live_.erase(id);
      auto& members = services_.at(service_of(id));
      members.erase(id);
      if (members.empty()) services_.erase(service_of(id));
    } else if (u < 0.85) {
      layer_.add_stall(pick_live(), Seconds{now},
                       Seconds{rng_.uniform(0.0, 20.0)});
    } else {
      // Stall a whole service by the same amount: idle members then tie
      // exactly on a non-zero backlog.
      const std::uint64_t service = service_of(pick_live());
      const double duration = rng_.uniform(1.0, 10.0);
      for (std::uint64_t id : services_.at(service)) {
        layer_.add_stall(id, Seconds{now}, Seconds{duration});
      }
    }
  }

  /// Checks the router against the reference for every live service
  /// at `probes` times in [from, from + span).
  void check_routes(double from, double span, int probes) {
    for (int k = 0; k < probes; ++k) {
      const Seconds at{from + rng_.uniform(0.0, span)};
      for (const auto& [service, members] : services_) {
        const std::uint64_t want = reference_pick(service, at);
        ASSERT_EQ(layer_.route(service, at), want)
            << "service " << service << " at " << at.value;
        // The pick holds the least backlog: if it is busy, all are.
        if (layer_.backlog(want, at).value > 0.0) {
          ++tally_.all_busy;
        } else if (want != *members.rbegin()) {
          ++tally_.idle_ahead_of_last;
        }
      }
    }
    EXPECT_EQ(layer_.route(1000003, Seconds{from}), 0u);  // no such service
  }

 private:
  std::uint64_t service_of(std::uint64_t id) const {
    return config_.replica_groups <= 1
               ? id
               : id % static_cast<std::uint64_t>(config_.replica_groups);
  }
  const hw::ServerNode* pick_node() {
    return rng_.bernoulli(0.5) ? &fast_ : &slow_;
  }
  std::uint64_t pick_live() {
    auto it = live_.begin();
    std::advance(it, rng_.uniform_u64(live_.size()));
    return *it;
  }

  serve::ServeConfig config_;
  serve::ServeLayer layer_;
  Rng rng_;
  const hw::ServerNode fast_{hw::NodeSpec{}, 5};
  hw::ServerNode slow_;
  std::set<std::uint64_t> live_;
  std::map<std::uint64_t, std::set<std::uint64_t>> services_;
  Tally tally_;
};

serve::ServeConfig router_config() {
  serve::ServeConfig config = layer_config();
  config.replica_groups = 3;
  return config;
}

TEST(RouterDifferential, RouteMatchesReferenceUnderGeneratedLoad) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    RouterDifferential sim(router_config(), seed);
    for (int tick = 1; tick <= 60; ++tick) {
      const double t0 = (tick - 1) * 60.0;
      sim.mutate(t0);
      if (tick % 7 == 0) sim.layer().inject_burst(Seconds{t0 + 5.0}, 200);
      sim.check_routes(t0, 60.0, 4);
      sim.layer().advance(Seconds{t0 + 60.0}, Seconds{60.0});
      sim.check_routes(t0 + 30.0, 60.0, 4);
      expect_books_balance(sim.layer());
    }
    EXPECT_GT(sim.layer().stats().admitted, 0u);
    // Both exits of the scan were taken: the stop at an idle member
    // ahead of the last one, and the full scan of a busy service.
    EXPECT_GT(sim.tally().idle_ahead_of_last, 100);
    EXPECT_GT(sim.tally().all_busy, 100);
  }
}

TEST(RouterDifferential, EveryBurstRequestLandsOnTheReferencePick) {
  // Generator off: the only requests are bursts, so each one can be
  // predicted and then found in exactly one replica's backlog.
  serve::ServeConfig config = router_config();
  config.requests_per_vcpu_hz = 0.0;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    RouterDifferential sim(config, seed);
    serve::ServeLayer& layer = sim.layer();
    Rng rng(seed);
    std::uint64_t burst_cursor = 0;  // mirrors the layer's round-robin
    int checked = 0;
    for (int tick = 1; tick <= 300; ++tick) {
      const double t0 = (tick - 1) * 60.0;
      const Seconds end{t0 + 60.0};
      sim.mutate(t0);
      if (sim.services().empty()) {
        layer.advance(end, Seconds{60.0});
        continue;
      }
      if (tick % 5 == 0) {
        // Pile up load so backlogs differ; not checked one by one.
        const std::uint64_t count = 20 + rng.uniform_u64(40);
        layer.inject_burst(Seconds{t0 + rng.uniform(0.0, 60.0)}, count);
        layer.advance(end, Seconds{60.0});
        burst_cursor += count;
        continue;
      }
      const Seconds at{t0 + rng.uniform(0.0, 60.0)};
      std::vector<std::uint64_t> ids;
      for (const auto& [service, members] : sim.services()) {
        ids.push_back(service);
      }
      const std::uint64_t service = ids[burst_cursor++ % ids.size()];
      const std::uint64_t expected = sim.reference_pick(service, at);
      std::map<std::uint64_t, double> before;
      for (std::uint64_t id : sim.services().at(service)) {
        before[id] = layer.backlog(id, at).value;
      }
      const std::uint64_t shed = layer.stats().dropped_overload;
      layer.inject_burst(at, 1);
      layer.advance(end, Seconds{60.0});
      if (layer.stats().dropped_overload > shed) continue;  // at the cap
      for (const auto& [id, backlog] : before) {
        const double now = layer.backlog(id, at).value;
        if (id == expected) {
          EXPECT_GT(now, backlog) << "request did not reach VM " << id;
        } else {
          EXPECT_EQ(now, backlog) << "request leaked to VM " << id;
        }
      }
      ++checked;
    }
    EXPECT_GT(checked, 150);
    expect_books_balance(layer);
  }
}

TEST(ServeOracle, BooksBalanceHelper) {
  serve::ServeStats stats;
  stats.generated = 100;
  stats.admitted = 90;
  stats.dropped_overload = 6;
  stats.dropped_unroutable = 4;
  stats.completed = 80;
  stats.dropped_lost = 5;
  EXPECT_TRUE(fuzz::serve_books_balance(stats, 5));
  EXPECT_FALSE(fuzz::serve_books_balance(stats, 6));
  stats.generated = 101;  // a request vanished from the first equation
  EXPECT_FALSE(fuzz::serve_books_balance(stats, 5));
}

// -- fuzz integration --------------------------------------------------

fuzz::ScenarioConfig request_scenario() {
  fuzz::ScenarioConfig config;
  config.nodes = 4;
  config.events = 48;
  config.horizon = Seconds{1800.0};
  config.arrival_share = 0.5;
  config.request_share = 0.3;
  return config;
}

TEST(ServeFuzz, GeneratorEmitsRequestBursts) {
  Rng rng(11);
  const auto events = fuzz::generate_scenario(request_scenario(), rng);
  int bursts = 0;
  for (const auto& event : events) {
    if (event.kind == fuzz::EventKind::kRequestBurst) {
      ++bursts;
      EXPECT_GE(event.count, 50u);
      EXPECT_LT(event.count, 1000u);
    }
  }
  EXPECT_GT(bursts, 0) << "request_share=0.3 produced no bursts";
}

TEST(ServeFuzz, ReplayV3RoundTripsRequestShare) {
  Rng rng(11);
  const fuzz::ScenarioConfig config = request_scenario();
  const auto events = fuzz::generate_scenario(config, rng);
  const std::string text = fuzz::serialize_scenario(config, events);
  EXPECT_NE(text.find("# uniserver-fuzz replay v3"), std::string::npos);

  fuzz::ScenarioConfig parsed;
  std::vector<fuzz::FuzzEvent> replayed;
  std::string error;
  ASSERT_TRUE(fuzz::parse_scenario(text, parsed, replayed, error)) << error;
  EXPECT_DOUBLE_EQ(parsed.request_share, config.request_share);
  ASSERT_EQ(replayed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(replayed[i] == events[i]) << "event " << i << " drifted";
  }
}

TEST(ServeFuzz, V2ReplayFilesStillParse) {
  // A pre-serve (v2) config record ends after storm_share; the missing
  // request_share must default to 0 (serving layer off).
  const std::string v2 =
      "# uniserver-fuzz replay v2\n"
      "config 7 3 3600 60 arm 0 0.55 0.25\n"
      "event 120 7 1 0 0\n";
  fuzz::ScenarioConfig parsed;
  std::vector<fuzz::FuzzEvent> events;
  std::string error;
  ASSERT_TRUE(fuzz::parse_scenario(v2, parsed, events, error)) << error;
  EXPECT_DOUBLE_EQ(parsed.storm_share, 0.25);
  EXPECT_DOUBLE_EQ(parsed.request_share, 0.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, fuzz::EventKind::kRackPowerLoss);
}

TEST(ServeFuzz, V1ReplayFilesStillParse) {
  const std::string v1 =
      "# uniserver-fuzz replay v1\n"
      "config 7 3 3600 60 arm 0\n";
  fuzz::ScenarioConfig parsed;
  std::vector<fuzz::FuzzEvent> events;
  std::string error;
  ASSERT_TRUE(fuzz::parse_scenario(v1, parsed, events, error)) << error;
  EXPECT_DOUBLE_EQ(parsed.request_share, 0.0);
}

TEST(ServeFuzz, RequestCampaignInvariantAcrossJobsAndGreen) {
  fuzz::CampaignConfig config;
  config.seed = 13;
  config.cases = 4;
  config.scenario = request_scenario();

  par::set_default_jobs(1);
  const auto serial = fuzz::run_campaign(config);
  par::set_default_jobs(4);
  const auto parallel = fuzz::run_campaign(config);
  par::set_default_jobs(0);

  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.violated_cases, 0);
  for (const auto& result : parallel.cases) {
    EXPECT_FALSE(result.outcome.violated())
        << "case " << result.index << ": "
        << result.outcome.violations[0].oracle << ": "
        << result.outcome.violations[0].detail;
  }
}

TEST(ServeFuzz, RequestShareChangesTheDigest) {
  // The serving layer folds its books into the outcome digest, so a
  // request-bearing scenario cannot silently collide with its
  // serve-less twin.
  fuzz::ScenarioConfig with = request_scenario();
  fuzz::ScenarioConfig without = request_scenario();
  without.request_share = 0.0;
  Rng rng_a(3);
  Rng rng_b(3);
  const auto events_with = fuzz::generate_scenario(with, rng_a);
  const auto events_without = fuzz::generate_scenario(without, rng_b);
  const auto outcome_with = fuzz::run_scenario(with, events_with);
  const auto outcome_without = fuzz::run_scenario(without, events_without);
  EXPECT_NE(outcome_with.digest, outcome_without.digest);
}

}  // namespace
}  // namespace uniserver
