#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"

namespace uniserver {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::MetricType;
using telemetry::ScopedTimer;
using telemetry::TraceBuffer;
using telemetry::TraceEvent;

// -- registry ---------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.counter("sim.events", "events", "help");
  a.add(3);
  Counter& b = registry.counter("sim.events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x.count");
  registry.gauge("x.level");
  registry.histogram("x.latency", 0.0, 100.0, 10);
  EXPECT_THROW(registry.gauge("x.count"), std::logic_error);
  EXPECT_THROW(registry.histogram("x.count", 0.0, 1.0, 4),
               std::logic_error);
  EXPECT_THROW(registry.counter("x.level"), std::logic_error);
  EXPECT_THROW(registry.counter("x.latency"), std::logic_error);
}

TEST(MetricsRegistry, FindDoesNotRegister) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_FALSE(registry.contains("absent"));
  EXPECT_EQ(registry.size(), 0u);

  registry.counter("present").add(7);
  ASSERT_NE(registry.find_counter("present"), nullptr);
  EXPECT_EQ(registry.find_counter("present")->value(), 7u);
  // Wrong-type lookup returns null, never throws.
  EXPECT_EQ(registry.find_gauge("present"), nullptr);
  EXPECT_EQ(registry.find_histogram("present"), nullptr);
}

TEST(MetricsRegistry, SnapshotSortedAndTyped) {
  MetricsRegistry registry;
  registry.gauge("b.gauge", "w").set(2.5);
  registry.counter("a.counter", "events").add(4);
  registry.histogram("c.hist", 0.0, 10.0, 10, "us").record(5.0);

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].meta.name, "a.counter");
  EXPECT_EQ(snapshot[0].meta.type, MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snapshot[0].value, 4.0);
  EXPECT_EQ(snapshot[1].meta.name, "b.gauge");
  EXPECT_DOUBLE_EQ(snapshot[1].value, 2.5);
  EXPECT_EQ(snapshot[2].meta.name, "c.hist");
  EXPECT_EQ(snapshot[2].count, 1u);
  EXPECT_DOUBLE_EQ(snapshot[2].sum, 5.0);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
  Counter& via_helper = telemetry::counter("test.telemetry.global_probe");
  EXPECT_EQ(&via_helper,
            &MetricsRegistry::global().counter("test.telemetry.global_probe"));
}

// -- histogram percentiles -------------------------------------------

TEST(Histogram, PercentilesOfUniformDistribution) {
  // 1..1000 uniformly into [0, 1000) with 100 buckets of width 10:
  // interpolated percentiles must land within one bucket width of the
  // exact order statistics (the advertised accuracy bound).
  Histogram hist(0.0, 1000.0, 100);
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_DOUBLE_EQ(hist.bucket_width(), 10.0);
  EXPECT_NEAR(hist.percentile(50.0), 500.0, hist.bucket_width());
  EXPECT_NEAR(hist.percentile(95.0), 950.0, hist.bucket_width());
  EXPECT_NEAR(hist.percentile(99.0), 990.0, hist.bucket_width());
  EXPECT_NEAR(hist.mean(), 500.5, 1e-9);
}

TEST(Histogram, PercentilesOfPointMass) {
  Histogram hist(0.0, 100.0, 50);
  for (int i = 0; i < 37; ++i) hist.record(42.0);
  // Everything sits in bucket [42, 44); any percentile stays inside it.
  for (double q : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_GE(hist.percentile(q), 42.0) << "q=" << q;
    EXPECT_LE(hist.percentile(q), 44.0) << "q=" << q;
  }
}

TEST(Histogram, OutOfRangeClampsToEdgeBuckets) {
  Histogram hist(0.0, 10.0, 10);
  hist.record(-5.0);
  hist.record(1e9);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(9), 1u);
}

TEST(Histogram, ClampTrackingCountsAndExtremes) {
  // Regression: clamping used to be silent — out-of-range samples were
  // folded into the edge buckets with no way to tell, and every tail
  // percentile saturated at `hi`. The clamp is still applied (bucket
  // masses are unchanged), but it is now tracked.
  Histogram hist(0.0, 10.0, 10);
  hist.record(5.0);
  hist.record(-3.0);
  hist.record(250.0);
  hist.record(400.0);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 2u);
  EXPECT_DOUBLE_EQ(hist.observed_min(), -3.0);
  EXPECT_DOUBLE_EQ(hist.observed_max(), 400.0);
  // The clamped mass still sits in the edge buckets (see
  // OutOfRangeClampsToEdgeBuckets).
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(9), 2u);

  hist.reset();
  EXPECT_EQ(hist.underflow(), 0u);
  EXPECT_EQ(hist.overflow(), 0u);
  EXPECT_DOUBLE_EQ(hist.observed_min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.observed_max(), 0.0);
}

TEST(Histogram, TailPercentileInOverflowMassReturnsTrueMax) {
  // Regression: with 2% of the mass beyond `hi`, p99 used to report the
  // top bucket (~hi) instead of anything resembling the real tail.
  Histogram hist(0.0, 100.0, 10);
  for (int i = 0; i < 98; ++i) hist.record(50.0);
  hist.record(5000.0);
  hist.record(9000.0);
  // Rank 99 and 100 fall in the overflow: the true observed max comes
  // back rather than a value clamped to the range.
  EXPECT_DOUBLE_EQ(hist.percentile(99.0), 9000.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 9000.0);
  // Interior percentiles are untouched by the clamped mass.
  EXPECT_NEAR(hist.percentile(50.0), 50.0, hist.bucket_width());
  EXPECT_NEAR(hist.percentile(90.0), 50.0, hist.bucket_width());
}

TEST(Histogram, HeadPercentileInUnderflowMassReturnsTrueMin) {
  Histogram hist(0.0, 100.0, 10);
  hist.record(-75.0);
  for (int i = 0; i < 99; ++i) hist.record(50.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), -75.0);
  EXPECT_DOUBLE_EQ(hist.percentile(1.0), -75.0);
  EXPECT_NEAR(hist.percentile(50.0), 50.0, hist.bucket_width());
}

TEST(Histogram, InRangeSamplesKeepObservedExtremes) {
  Histogram hist(0.0, 100.0, 10);
  hist.record(12.5);
  hist.record(87.5);
  EXPECT_EQ(hist.underflow(), 0u);
  EXPECT_EQ(hist.overflow(), 0u);
  EXPECT_DOUBLE_EQ(hist.observed_min(), 12.5);
  EXPECT_DOUBLE_EQ(hist.observed_max(), 87.5);
  // Without clamped mass, percentiles stay bucket-interpolated.
  EXPECT_NEAR(hist.percentile(100.0), 87.5, hist.bucket_width());
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram hist(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(Histogram, InvalidRangeThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::logic_error);
  EXPECT_THROW(Histogram(5.0, 1.0, 10), std::logic_error);
}

TEST(Histogram, NonFiniteSamplesAreRejectedAndCounted) {
  // Regression: (x - lo) / width on NaN or +/-inf is UB when cast to
  // int64. Such samples must not touch buckets/count/sum; they land in
  // the dedicated invalid tally instead.
  Histogram hist(0.0, 10.0, 10);
  hist.record(5.0);
  hist.record(std::numeric_limits<double>::quiet_NaN());
  hist.record(std::numeric_limits<double>::infinity());
  hist.record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 5.0);
  EXPECT_EQ(hist.invalid(), 3u);
  EXPECT_NEAR(hist.percentile(50.0), 5.0, hist.bucket_width());

  hist.reset();
  EXPECT_EQ(hist.invalid(), 0u);
}

TEST(Histogram, InvalidCountSurfacesInSnapshotAndJson) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("q.lat", 0.0, 10.0, 10, "us");
  hist.record(2.0);
  hist.record(std::numeric_limits<double>::quiet_NaN());

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].count, 1u);
  EXPECT_EQ(snapshot[0].invalid, 1u);

  const std::string json = telemetry::to_json(registry, nullptr);
  EXPECT_NE(json.find("\"invalid\": 1"), std::string::npos) << json;
}

// A single-writer LocalHistogram (a serving layer's request latency)
// and the registry's atomic Histogram share one bucket and percentile
// rule: fed one stream, they agree on every tally and percentile, bit
// for bit, after every sample.
TEST(Histogram, LocalHistogramMatchesTheAtomicOne) {
  struct Geometry {
    double lo;
    double hi;
    std::size_t buckets;
  };
  // The serving layer's latency geometry (ms), and an offset range
  // whose bucket width is not a power of two.
  for (const Geometry g : {Geometry{0.0, 20000.0, 2000},
                           Geometry{-3.5, 7.1, 37}}) {
    Histogram shared(g.lo, g.hi, g.buckets);
    telemetry::LocalHistogram local(g.lo, g.hi, g.buckets);
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> stream = {
        std::numeric_limits<double>::quiet_NaN(), inf, -inf, -0.0, g.lo,
        g.hi, g.hi, std::nextafter(g.hi, g.lo), std::nextafter(g.lo, -inf),
        -1.0, g.lo - 1e9, g.hi + 1e9, 1e300, -1e300};
    for (std::size_t i = 0; i <= g.buckets; ++i) {
      stream.push_back(g.lo + shared.bucket_width() * static_cast<double>(i));
    }
    Rng rng(31);
    const double span = g.hi - g.lo;
    for (int k = 0; k < 20000; ++k) {
      const double u = rng.uniform();
      if (u < 0.8) {
        stream.push_back(rng.uniform(g.lo - 0.05 * span, g.hi + 0.05 * span));
      } else if (u < 0.9) {
        stream.push_back(g.lo + rng.exponential(20.0 / span));
      } else {
        // An exact bucket edge.
        stream.push_back(g.lo + shared.bucket_width() *
                                    static_cast<double>(
                                        rng.uniform_u64(g.buckets + 1)));
      }
    }
    const auto agree = [&](std::size_t fed) {
      SCOPED_TRACE(::testing::Message() << fed << " samples, lo " << g.lo);
      ASSERT_EQ(local.count(), shared.count());
      ASSERT_EQ(local.invalid(), shared.invalid());
      ASSERT_EQ(local.underflow(), shared.underflow());
      ASSERT_EQ(local.overflow(), shared.overflow());
      ASSERT_EQ(local.observed_min(), shared.observed_min());
      ASSERT_EQ(local.observed_max(), shared.observed_max());
      ASSERT_EQ(local.sum(), shared.sum());
      for (const double q : {0.0, 0.1, 50.0, 99.0, 99.9, 100.0}) {
        ASSERT_EQ(local.percentile(q), shared.percentile(q)) << "q " << q;
      }
    };
    agree(0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      shared.record(stream[i]);
      local.record(stream[i]);
      if (i < 64 || i % 97 == 0) agree(i + 1);
    }
    agree(stream.size());
    for (std::size_t i = 0; i < g.buckets; ++i) {
      EXPECT_EQ(local.bucket_count(i), shared.bucket_count(i));
    }
    // The stream reaches every clamp and rejection path.
    EXPECT_EQ(shared.invalid(), 3u);
    EXPECT_GT(shared.underflow(), 100u);
    EXPECT_GT(shared.overflow(), 100u);
    EXPECT_EQ(shared.observed_max(), 1e300);
    EXPECT_EQ(shared.observed_min(), -1e300);
  }
}

// -- trace ring -------------------------------------------------------

TEST(TraceBuffer, WraparoundKeepsNewestAndCountsDropped) {
  TraceBuffer ring(8);
  for (int i = 0; i < 20; ++i) {
    ring.record(Seconds{static_cast<double>(i)}, "test",
                "e" + std::to_string(i));
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().name, "e12");  // oldest survivor
  EXPECT_EQ(events.back().name, "e19");   // newest
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_LE(events[i].sim_time.value, events[i + 1].sim_time.value);
  }
}

TEST(TraceBuffer, PartiallyFilledSnapshotInOrder) {
  TraceBuffer ring(16);
  ring.record(Seconds{1.0}, "cloud", "node_crash", {{"node", "3"}});
  ring.record(Seconds{2.0}, "cloud", "evacuation");
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "node_crash");
  ASSERT_EQ(events[0].tags.size(), 1u);
  EXPECT_EQ(events[0].tags[0].first, "node");
  EXPECT_EQ(events[0].tags[0].second, "3");
}

TEST(TraceBuffer, ClearEmptiesButKeepsCapacity) {
  TraceBuffer ring(4);
  for (int i = 0; i < 6; ++i) ring.record(Seconds{0.0}, "t", "e");
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 4u);
  ring.record(Seconds{9.0}, "t", "after_clear");
  ASSERT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].name, "after_clear");
}

// -- scoped timer -----------------------------------------------------

TEST(ScopedTimer, RecordsOneSampleIntoSink) {
  Histogram sink(0.0, 1e6, 100);
  {
    ScopedTimer timer(sink);
    EXPECT_GE(timer.elapsed_us(), 0.0);
  }
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_GE(sink.sum(), 0.0);
}

TEST(ScopedTimer, StopIsIdempotent) {
  Histogram sink(0.0, 1e6, 100);
  {
    ScopedTimer timer(sink);
    timer.stop();
    timer.stop();  // no-op
  }                // destructor must not record again
  EXPECT_EQ(sink.count(), 1u);
}

// -- exporters --------------------------------------------------------

// Minimal structural check: braces/brackets balance outside of string
// literals. Catches broken escaping and truncated output without a
// full JSON parser.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Exporters, JsonContainsMetricsAndTrace) {
  MetricsRegistry registry;
  registry.counter("sim.events_fired", "events").add(12);
  registry.gauge("cloud.energy_kwh", "kwh").set(1.25);
  Histogram& hist =
      registry.histogram("cloud.placement_wall_us", 0.0, 100.0, 10, "us");
  for (int i = 1; i <= 10; ++i) hist.record(static_cast<double>(i) * 10.0);

  TraceBuffer ring(8);
  ring.record(Seconds{60.0}, "cloud", "node_crash",
              {{"node", "2"}, {"vms_lost", "3"}});

  const std::string json = telemetry::to_json(registry, &ring);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"sim.events_fired\""), std::string::npos);
  EXPECT_NE(json.find("\"cloud.energy_kwh\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"node_crash\""), std::string::npos);
  EXPECT_NE(json.find("\"vms_lost\": \"3\""), std::string::npos);
}

TEST(Exporters, JsonEscapesSpecialCharacters) {
  TraceBuffer ring(4);
  ring.record(Seconds{0.0}, "test", "weird",
              {{"detail", "quote \" backslash \\ newline \n done"}});
  MetricsRegistry registry;
  const std::string json = telemetry::to_json(registry, &ring);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n done"),
            std::string::npos);
}

TEST(Exporters, ClampFieldsSurfaceInJson) {
  MetricsRegistry registry;
  registry.counter("c.count", "events").add(1);
  Histogram& hist = registry.histogram("c.lat", 0.0, 100.0, 10, "us");
  hist.record(-2.0);
  hist.record(50.0);
  hist.record(700.0);

  const std::string json = telemetry::to_json(registry, nullptr);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"underflow\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\": -2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 700"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\""), std::string::npos) << json;
}

TEST(Exporters, WriteJsonSnapshotCreatesParseableFile) {
  MetricsRegistry registry;
  registry.counter("file.test").add(1);
  const std::string path = ::testing::TempDir() + "telemetry_snapshot.json";
  ASSERT_TRUE(telemetry::write_json_snapshot(path, registry));

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  EXPECT_TRUE(json_balanced(contents)) << contents;
  EXPECT_NE(contents.find("\"file.test\""), std::string::npos);
}

TEST(Exporters, SaveSeriesCsvWritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "telemetry_series.csv";
  ASSERT_TRUE(telemetry::save_series_csv(path, {"x", "y"},
                                         {{1.0, 2.0}, {3.0, 4.5}}, 3));

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[1024];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  EXPECT_NE(contents.find("x,y"), std::string::npos);
  EXPECT_NE(contents.find("3,4.5"), std::string::npos);
}

}  // namespace
}  // namespace uniserver
