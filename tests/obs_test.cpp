// Observability subsystem tests: histogram edge cases, ring-buffer
// wraparound + drop accounting, Chrome trace JSON parse-back, the runtime
// sampling gate, and the serial-vs-parallel determinism of the merged
// sweep metrics.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "backends/backends.hpp"
#include "core/braided_link.hpp"
#include "core/lifetime_sim.hpp"
#include "core/mobility_sim.hpp"
#include "energy/device_catalog.hpp"
#include "energy/ledger.hpp"
#include "hal/radio.hpp"
#include "net/network_sim.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "sim/bench_telemetry.hpp"
#include "util/units.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"
#include "sim/parallel_for.hpp"
#include "sim/result_table.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace braidio;

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON parser, enough to parse back what
// chrome_trace_json / to_json_with_meta emit. Throws on malformed input.
// ---------------------------------------------------------------------
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("no key: " + key);
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing junk");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("eof");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected ") + c);
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::Bool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    expect('"');
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'n': v.string += '\n'; break;
          case 't': v.string += '\t'; break;
          case 'r': v.string += '\r'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw std::runtime_error("bad \\u");
            }
            const int code =
                std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            v.string += static_cast<char>(code);
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
      } else {
        v.string += c;
      }
    }
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------
TEST(HistogramData, EmptyHistogramReportsZeros) {
  obs::HistogramData h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(HistogramData, SingleSampleQuantilesAreExact) {
  obs::HistogramData h({1.0, 10.0, 100.0});
  h.record(5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
  // With one observation every quantile must report that value, not a
  // bucket-interpolated bound.
  EXPECT_DOUBLE_EQ(h.p50(), 5.0);
  EXPECT_DOUBLE_EQ(h.p95(), 5.0);
  EXPECT_DOUBLE_EQ(h.p99(), 5.0);
}

TEST(HistogramData, OverflowBucketSaturatesToObservedMax) {
  obs::HistogramData h({1.0, 2.0});
  // All samples land beyond the last bound -> the implicit overflow
  // bucket; quantiles must clamp to the observed max, not infinity.
  h.record(50.0);
  h.record(75.0);
  h.record(100.0);
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.p99(), 100.0);
  EXPECT_DOUBLE_EQ(h.p50(), 100.0);
}

TEST(HistogramData, NanObservationsAreIgnored) {
  obs::HistogramData h({1.0, 10.0});
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 0u);
  h.record(2.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramData, QuantileIsMonotonicAndBounded) {
  obs::HistogramData h(obs::bucket_bounds(obs::Histogram::DwellSeconds));
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);  // 1 ms .. 1 s
  double last = 0.0;
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, last) << q;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    last = v;
  }
  EXPECT_NEAR(h.p50(), 0.5, 0.2);
}

TEST(HistogramData, MergeAddsAndRejectsMismatchedBounds) {
  obs::HistogramData a({1.0, 10.0});
  obs::HistogramData b({1.0, 10.0});
  a.record(0.5);
  b.record(5.0);
  b.record(50.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 50.0);

  obs::HistogramData other({2.0, 20.0});
  other.record(1.0);
  EXPECT_DEATH(a.merge(other), "REQUIRE");
}

TEST(HistogramData, BucketIsTheLowerBoundIndexForEveryDouble) {
  // A value lands in the bucket std::lower_bound picks over the bounds:
  // the first bound >= the value, the overflow bucket past the last.
  // Probed at every bound +-0..64 ulps, at zeros, negatives, subnormals,
  // the extremes, +-inf and 100k random finite bit patterns, for the
  // built-in lists (directly and through a registry) and custom lists,
  // including ones with several bounds in a binade and bounds <= 0.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> custom{
      {1.0, 10.0, 100.0},
      {1.0, 2.0},
      {1.0, 10.0},
      {2.0, 20.0},
      {-1e300, -3.0, -2.5, -0.0, 4.9e-324, 2.2e-308, 1.0, 1.25, 1.5, 1.75,
       2.0, 1e300}};
  std::vector<std::vector<double>> lists = custom;
  for (std::size_t h = 0; h < obs::kHistogramCount; ++h) {
    lists.push_back(obs::bucket_bounds(static_cast<obs::Histogram>(h)));
  }

  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> probes{0.0,     -0.0,    -1.0,    -1e-9, -1e300,
                             tiny,    -tiny,   DBL_MIN, -DBL_MIN,
                             DBL_MAX, -DBL_MAX, inf,    -inf};
  for (const auto& bounds : lists) {
    for (const double bound : bounds) {
      double up = bound;
      double down = bound;
      for (int ulp = 0; ulp <= 64; ++ulp) {
        probes.push_back(up);
        probes.push_back(down);
        up = std::nextafter(up, inf);
        down = std::nextafter(down, -inf);
      }
    }
  }
  util::Rng rng(20261021);
  const std::size_t fixed = probes.size();
  while (probes.size() < fixed + 100000) {
    const double v = std::bit_cast<double>(
        rng.uniform_int(0, std::numeric_limits<std::uint64_t>::max()));
    if (std::isfinite(v)) probes.push_back(v);
  }

  const auto expected_bucket = [](const std::vector<double>& bounds,
                                  double v) {
    return static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  };
  for (const auto& bounds : lists) {
    obs::HistogramData h(bounds);
    std::vector<std::uint64_t> expected(bounds.size() + 1, 0);
    for (const double v : probes) {
      const std::size_t b = expected_bucket(bounds, v);
      h.record(v);
      ASSERT_EQ(h.bucket(b), ++expected[b])
          << "value " << v << " bounds " << bounds.size();
    }
  }
  for (std::size_t i = 0; i < obs::kHistogramCount; ++i) {
    const auto id = static_cast<obs::Histogram>(i);
    const std::vector<double>& bounds = obs::bucket_bounds(id);
    obs::MetricsRegistry registry;
    std::vector<std::uint64_t> expected(bounds.size() + 1, 0);
    for (const double v : probes) {
      const std::size_t b = expected_bucket(bounds, v);
      registry.observe(id, v);
      ASSERT_EQ(registry.histogram(id).bucket(b), ++expected[b])
          << "value " << v << " histogram " << obs::to_string(id);
    }
  }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------
TEST(MetricsRegistry, BuiltinMetricsRoundTrip) {
  obs::MetricsRegistry r;
  EXPECT_TRUE(r.empty());
  r.add(obs::Counter::PacketsTx, 3);
  r.observe(obs::Histogram::EnergyPostJoules, 1e-6);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.value(obs::Counter::PacketsTx), 3u);
  EXPECT_EQ(r.histogram(obs::Histogram::EnergyPostJoules).count(), 1u);
}

TEST(MetricsRegistry, MergeSumsCounters) {
  obs::MetricsRegistry a, b;
  a.add(obs::Counter::ArqRetries, 2);
  b.add(obs::Counter::ArqRetries, 5);
  a.merge(b);
  EXPECT_EQ(a.value(obs::Counter::ArqRetries), 7u);
}

TEST(MetricsRegistry, ToJsonParsesBackAndIsDeterministic) {
  obs::MetricsRegistry r;
  r.add(obs::Counter::ModeSwitches, 4);
  r.observe(obs::Histogram::DwellSeconds, 0.125);
  r.observe(obs::Histogram::DwellSeconds, 2.5);
  const std::string json = r.to_json();
  EXPECT_EQ(json, r.to_json());  // stable rendering
  const auto doc = parse_json(json);
  EXPECT_EQ(doc.object.size(), 2u);  // "counters" and "histograms"
  EXPECT_EQ(doc.at("counters").at("mode_switches").number, 4.0);
  const auto& dwell = doc.at("histograms").at("dwell_seconds");
  EXPECT_EQ(dwell.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(dwell.at("sum").number, 2.625);
}

// ---------------------------------------------------------------------
// Tracer ring buffers
// ---------------------------------------------------------------------
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& tracer = obs::Tracer::instance();
    tracer.set_enabled(false);
    tracer.set_lane_capacity(kCapacity);
    tracer.clear();
    tracer.set_enabled(true);
  }

  void TearDown() override {
    auto& tracer = obs::Tracer::instance();
    tracer.set_enabled(false);
    tracer.set_lane_capacity(std::size_t{1} << 14);
    tracer.clear();
  }

  static constexpr std::size_t kCapacity = 8;
};

TEST_F(TracerTest, RingWrapsAndCountsDrops) {
  auto& tracer = obs::Tracer::instance();
  for (int i = 0; i < 20; ++i) {
    tracer.record(obs::EventType::PacketTx, "frame", obs::no_sim_time(),
                  static_cast<double>(i));
  }
  const auto snapshot = tracer.snapshot();
  EXPECT_EQ(snapshot.total_recorded(), 20u);
  EXPECT_EQ(snapshot.total_dropped(), 12u);
  EXPECT_EQ(snapshot.total_events(), kCapacity);
  // The survivors are the newest events, oldest-first, with contiguous
  // sequence numbers.
  const auto& lane = snapshot.lanes.front();
  ASSERT_EQ(lane.events.size(), kCapacity);
  for (std::size_t i = 0; i < lane.events.size(); ++i) {
    EXPECT_EQ(lane.events[i].seq, 12 + i);
    EXPECT_DOUBLE_EQ(lane.events[i].value,
                     12.0 + static_cast<double>(i));
  }
}

TEST_F(TracerTest, LabelsAreTruncatedAndSanitized) {
  auto& tracer = obs::Tracer::instance();
  tracer.record(obs::EventType::ModeSwitch,
                "a,very\"long\nlabel that keeps going and going", 1.0,
                0.0);
  const auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.total_events(), 1u);
  const std::string label = snapshot.lanes.front().events[0].label;
  EXPECT_LE(label.size(), obs::kEventLabelCapacity);
  EXPECT_EQ(label.find(','), std::string::npos);
  EXPECT_EQ(label.find('"'), std::string::npos);
  EXPECT_EQ(label.find('\n'), std::string::npos);
  EXPECT_EQ(label.substr(0, 7), "a;very;");
}

#if BRAIDIO_OBS_COMPILED
TEST_F(TracerTest, DisabledMacroRecordsNothingAndSkipsArguments) {
  obs::Tracer::instance().set_enabled(false);
  int evaluated = 0;
  const auto label = [&]() {
    ++evaluated;
    return "label";
  };
  BRAIDIO_TRACE_EVENT(obs::EventType::PacketTx, label(), 0.0, 0.0);
  EXPECT_EQ(obs::Tracer::instance().snapshot().total_events(), 0u);
  // The macro must not evaluate its arguments while disabled.
  EXPECT_EQ(evaluated, 0);
}
#endif  // BRAIDIO_OBS_COMPILED

TEST_F(TracerTest, ChromeJsonParsesBackWithTypedEvents) {
  auto& tracer = obs::Tracer::instance();
  tracer.record(obs::EventType::DwellStart, "passive@1M", 1.0, 0.0);
  tracer.record(obs::EventType::EnergyPost, "carrier", 1.25, 3.5e-6);
  tracer.record(obs::EventType::DwellEnd, "passive@1M", 2.0, 1.0);
  const std::string json = tracer.to_chrome_json();

  const auto doc = parse_json(json);
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 3u);

  EXPECT_EQ(events[0].at("ph").string, "B");
  EXPECT_EQ(events[0].at("name").string, "passive@1M");
  EXPECT_EQ(events[0].at("args").at("type").string, "DwellStart");

  EXPECT_EQ(events[1].at("ph").string, "i");
  EXPECT_EQ(events[1].at("name").string, "EnergyPost");
  EXPECT_NEAR(events[1].at("args").at("value").number, 3.5e-6, 1e-9);
  EXPECT_DOUBLE_EQ(events[1].at("args").at("sim_s").number, 1.25);

  EXPECT_EQ(events[2].at("ph").string, "E");
  // Timestamps are microseconds and non-decreasing within a lane.
  EXPECT_LE(events[0].at("ts").number, events[2].at("ts").number);

  EXPECT_EQ(doc.at("otherData").at("recorded").number, 3.0);
  EXPECT_EQ(doc.at("otherData").at("dropped").number, 0.0);
}

TEST_F(TracerTest, CsvHasHeaderAndOneLinePerEvent) {
  auto& tracer = obs::Tracer::instance();
  tracer.record(obs::EventType::PacketRx, "active@1M",
                obs::no_sim_time(), 37.0);
  const std::string csv = tracer.to_csv();
  EXPECT_EQ(csv.rfind("wall_s,lane,seq,type,label,sim_s,value\n", 0),
            0u);
  // NaN sim time renders as an empty field.
  EXPECT_NE(csv.find(",PacketRx,active@1M,,37"), std::string::npos);
}

// A lane allocates its whole ring on its thread's first event, so the
// capacity is checked where it is set: past the cap the setter dies
// instead of the next trace event throwing from inside model code.
TEST(TracerDeathTest, RejectsLaneCapacityPastTheCap) {
#if BRAIDIO_CONTRACTS_ENABLED
  auto& tracer = obs::Tracer::instance();
  constexpr std::size_t kMax = obs::Tracer::kMaxLaneCapacity;
  EXPECT_EQ(kMax, std::size_t{1} << 24);
  EXPECT_DEATH(tracer.set_lane_capacity(kMax + 1),
               "lane_capacity=16777217");
  EXPECT_DEATH(
      tracer.set_lane_capacity(std::numeric_limits<std::size_t>::max()),
      "lane_capacity=18446744073709551615");
  EXPECT_DEATH(tracer.set_lane_capacity(0), "lane_capacity=0");
  // The cap itself is accepted. No lane is created in between, so
  // nothing is allocated at that size.
  const std::size_t before = tracer.lane_capacity();
  tracer.set_lane_capacity(kMax);
  EXPECT_EQ(tracer.lane_capacity(), kMax);
  tracer.set_lane_capacity(before);
#else
  GTEST_SKIP() << "contracts disabled";
#endif
}

// ---------------------------------------------------------------------
// Sweep integration: merged metrics must be byte-identical for any
// thread count, like the data itself.
// ---------------------------------------------------------------------
#if BRAIDIO_OBS_COMPILED

sim::Scenario counting_scenario(std::size_t points) {
  return sim::Scenario(
      "obs_counting", {sim::Axis::indexed("point", points)}, {"value"},
      [](sim::SweepPoint& p) {
        // Deterministic per-point posting pattern.
        obs::count(obs::Counter::PacketsTx, p.flat_index() + 1);
        obs::observe(obs::Histogram::EnergyPostJoules,
                     1e-6 * static_cast<double>(p.flat_index() + 1));
        sim::RunRecord record;
        record.cells = {std::to_string(p.flat_index())};
        record.numbers = {static_cast<double>(p.flat_index())};
        return record;
      });
}

TEST(SweepMetrics, MergedRegistryIsIdenticalSerialVsParallel) {
  const std::size_t points = 64;
  const auto scenario = counting_scenario(points);

  sim::SweepOptions serial;
  serial.threads = 1;
  const auto reference = sim::SweepRunner(serial).run(scenario);

  const std::string expected = reference.metrics_registry().to_json();
  EXPECT_EQ(
      reference.metrics_registry().value(obs::Counter::SweepPoints),
      points);
  EXPECT_EQ(reference.metrics_registry().value(obs::Counter::PacketsTx),
            points * (points + 1) / 2);

  for (unsigned threads : {2u, 4u, 8u}) {
    sim::SweepOptions options;
    options.threads = threads;
    const auto parallel = sim::SweepRunner(options).run(scenario);
    EXPECT_EQ(parallel.metrics_registry().to_json(), expected)
        << threads;
    EXPECT_EQ(parallel.to_json(), reference.to_json()) << threads;
  }
}

TEST(SweepMetrics, ScopedRegistryCapturesAndGlobalCatchesTheRest) {
  obs::reset_global_metrics();
  obs::MetricsRegistry local;
  {
    obs::ScopedMetrics scoped(&local);
    obs::count(obs::Counter::ArqRetries, 3);
  }
  obs::count(obs::Counter::ArqDrops, 2);  // outside any scope -> global
  EXPECT_EQ(local.value(obs::Counter::ArqRetries), 3u);
  EXPECT_EQ(local.value(obs::Counter::ArqDrops), 0u);
  const auto global = obs::global_metrics_snapshot();
  EXPECT_EQ(global.value(obs::Counter::ArqDrops), 2u);
  EXPECT_EQ(global.value(obs::Counter::ArqRetries), 0u);
  obs::reset_global_metrics();
}

#endif  // BRAIDIO_OBS_COMPILED

// ---------------------------------------------------------------------
// Energy-provenance profile (obs/span.hpp): the attributed value type,
// the span/gate plumbing, the conservation invariant against the
// EnergyLedger, and serial-vs-parallel merge determinism.
// ---------------------------------------------------------------------
TEST(EnergyProfile, PostsAccumulateAndFeedTheSeries) {
  obs::EnergyProfile p;
  p.set_bucket_seconds(0.5);
  p.post("braid/device1/active-tx", 1.0, 0.1);
  p.post("braid/device1/active-tx", 2.0, 0.6);  // second bucket
  p.post("braid/device2/carrier", 4.0, obs::no_sim_time());  // no series
  EXPECT_DOUBLE_EQ(p.total_joules(), 7.0);
  EXPECT_EQ(p.total_posts(), 3u);
  ASSERT_EQ(p.entries().count("braid/device1/active-tx"), 1u);
  EXPECT_DOUBLE_EQ(p.entries().at("braid/device1/active-tx").joules, 3.0);
  EXPECT_EQ(p.entries().at("braid/device1/active-tx").posts, 2u);
  // The series key is the first two path segments; NaN sim time counts
  // toward the totals but never the series.
  const auto series = p.series().at("braid/device1");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[1], 2.0);
  EXPECT_EQ(p.series().count("braid/device2"), 0u);
  EXPECT_EQ(p.series_skipped(), 0u);
}

TEST(EnergyProfile, MergeAddsSlotWiseAndSeriesElementWise) {
  obs::EnergyProfile a, b;
  a.post("x/y/c1", 1.0, 0.0);
  b.post("x/y/c1", 2.0, 0.0);
  b.post("x/y/c2", 4.0, 2.5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_joules(), 7.0);
  EXPECT_DOUBLE_EQ(a.entries().at("x/y/c1").joules, 3.0);
  const auto series = a.series().at("x/y");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 3.0);
  EXPECT_DOUBLE_EQ(series[2], 4.0);
}

TEST(EnergyProfile, JsonAndCollapsedStackParseBackAndConserve) {
  obs::EnergyProfile p;
  p.post("braid/data/device1/active@1M:tx/active-tx", 1.25e-3, 0.0);
  p.post("braid/data/device2/passive@1M:rx/passive-rx", 2.5e-4, 0.25);
  p.post("hub/node3/carrier", 3.125e-2, 1.5);

  const std::string json = p.to_json();
  EXPECT_EQ(json, p.to_json());  // stable rendering
  const auto doc = parse_json(json);
  EXPECT_EQ(doc.at("schema").string, "braidio-energy-profile/v1");
  EXPECT_NEAR(doc.at("total_joules").number, p.total_joules(), 1e-15);
  EXPECT_EQ(doc.at("attributions").array.size(), 3u);
  EXPECT_EQ(doc.at("total_posts").number, 3.0);

  // Collapsed stack: "seg;seg <nanojoules>" per path; the integer nJ
  // values must conserve the profile total to per-line rounding.
  const std::string folded = p.to_collapsed_stack();
  std::int64_t total_nj = 0;
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t eol = folded.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::size_t space = folded.rfind(' ', eol);
    ASSERT_NE(space, std::string::npos);
    EXPECT_EQ(folded.find('/', pos), std::string::npos)
        << "paths must be ';'-separated";
    total_nj += std::stoll(folded.substr(space + 1, eol - space - 1));
    ++lines;
    pos = eol + 1;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NEAR(static_cast<double>(total_nj) * 1e-9, p.total_joules(),
              1e-9 * static_cast<double>(lines));
}

TEST(EnergyProfileDeathTest, RejectsBadPostsAndMismatchedMerge) {
#if BRAIDIO_CONTRACTS_ENABLED
  obs::EnergyProfile p;
  EXPECT_DEATH(p.post("", 1.0, 0.0), "REQUIRE");
  EXPECT_DEATH(p.post("a/b", -1.0, 0.0), "REQUIRE");
  EXPECT_DEATH(p.post("a/b", std::numeric_limits<double>::quiet_NaN(), 0.0),
               "REQUIRE");
  EXPECT_DEATH(p.set_bucket_seconds(0.0), "REQUIRE");
  p.post("a/b", 1.0, 0.0);
  EXPECT_DEATH(p.set_bucket_seconds(2.0), "REQUIRE");
  EXPECT_DEATH(obs::detail::pop_span(), "REQUIRE");
#if BRAIDIO_OBS_COMPILED
  // A hook post with no open span resolves to the root path.
  EXPECT_DEATH(
      {
        obs::set_attribution_enabled(true);
        obs::post_energy("", 1.0, obs::no_sim_time());
      },
      "REQUIRE");
#endif  // BRAIDIO_OBS_COMPILED
  obs::EnergyProfile narrow, wide;
  narrow.set_bucket_seconds(0.5);
  narrow.post("a/b/c", 1.0, 0.0);
  wide.post("a/b/c", 1.0, 0.0);
  EXPECT_DEATH(narrow.merge(wide), "REQUIRE");
#else
  GTEST_SKIP() << "contracts disabled";
#endif
}

/// The '/'-joined path of every tree_report line, rebuilt from its
/// indentation (two spaces per level below the header line).
std::vector<std::string> tree_report_paths(const std::string& report) {
  std::vector<std::string> paths;
  std::vector<std::string> stack;
  std::size_t pos = report.find('\n') + 1;  // skip the header
  while (pos < report.size()) {
    const std::size_t eol = report.find('\n', pos);
    const std::string line = report.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t indent = line.find_first_not_of(' ');
    const std::size_t depth = indent / 2 - 1;
    const std::string name = line.substr(indent, line.find("  ", indent) -
                                                     indent);
    stack.resize(depth);
    stack.push_back(name);
    std::string path;
    for (const auto& segment : stack) {
      path += (path.empty() ? "" : "/") + segment;
    }
    paths.push_back(path);
  }
  return paths;
}

// A sibling label that extends another with a character sorting below
// '/' ("data" vs "data-retry") must not capture the other's children.
TEST(EnergyProfile, TreeReportNestsUnderTheRightParent) {
  obs::EnergyProfile p;
  p.post("braid/data/device1/active-tx", 1.0, obs::no_sim_time());
  p.post("braid/data-retry/device2/passive-rx", 2.0, obs::no_sim_time());
  const std::vector<std::string> expected{
      "braid",
      "braid/data",
      "braid/data/device1",
      "braid/data/device1/active-tx",
      "braid/data-retry",
      "braid/data-retry/device2",
      "braid/data-retry/device2/passive-rx"};
  EXPECT_EQ(tree_report_paths(p.tree_report()), expected)
      << p.tree_report();
}

// Exports sort by path, whatever order the paths were first seen in.
TEST(EnergyProfile, ExportsListPathsInPathOrderNotFirstSeenOrder) {
  const std::vector<std::string> reversed{
      "order_probe/zeta/rx", "order_probe/mid/tx", "order_probe/alpha/tx",
      "order_probe/alpha"};
  obs::EnergyProfile p;
  double joules = 1.0;
  for (const auto& path : reversed) {
    p.post(path, joules, obs::no_sim_time());
    joules *= 2.0;
  }
  EXPECT_DOUBLE_EQ(p.total_joules(), 15.0);
  EXPECT_EQ(p.total_posts(), 4u);

  const auto doc = parse_json(p.to_json());
  const auto& attributions = doc.at("attributions").array;
  ASSERT_EQ(attributions.size(), 4u);
  const std::vector<std::string> sorted{
      "order_probe/alpha", "order_probe/alpha/tx", "order_probe/mid/tx",
      "order_probe/zeta/rx"};
  const std::vector<double> sorted_joules{8.0, 4.0, 2.0, 1.0};
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(attributions[i].at("path").string, sorted[i]);
    EXPECT_EQ(attributions[i].at("joules").number, sorted_joules[i]);
  }
  EXPECT_EQ(doc.at("total_joules").number, 15.0);

  EXPECT_EQ(p.to_collapsed_stack(),
            "order_probe;alpha 8000000000\n"
            "order_probe;alpha;tx 4000000000\n"
            "order_probe;mid;tx 2000000000\n"
            "order_probe;zeta;rx 1000000000\n");
  const std::vector<std::string> tree{
      "order_probe",        "order_probe/alpha",  "order_probe/alpha/tx",
      "order_probe/mid",    "order_probe/mid/tx", "order_probe/zeta",
      "order_probe/zeta/rx"};
  EXPECT_EQ(tree_report_paths(p.tree_report()), tree) << p.tree_report();
}

// A profile with thousands of paths (a hub run with one span per tag)
// posts, merges and exports exactly and in path order.
TEST(EnergyProfile, TenThousandPathsMergeAndExportExactly) {
  constexpr std::size_t kTags = 10000;
  obs::EnergyProfile tags;
  for (std::size_t i = 0; i < kTags; ++i) {
    const std::string path =
        "hub/tag" + std::to_string(i) + "/carrier";
    tags.post(path, 0.5, obs::no_sim_time());
    tags.post(path, 0.25 * static_cast<double>(i % 4), obs::no_sim_time());
  }
  obs::EnergyProfile merged;
  merged.post("hub/tag0/carrier", 1.0, obs::no_sim_time());
  merged.merge(tags);
  merged.merge(tags);

  const auto entries = merged.entries();
  ASSERT_EQ(entries.size(), kTags);
  std::string previous;
  for (const auto& [path, slot] : entries) {
    EXPECT_LT(previous, path);
    previous = path;
  }
  for (std::size_t i = 0; i < kTags; ++i) {
    const auto& slot =
        entries.at("hub/tag" + std::to_string(i) + "/carrier");
    const double expected =
        (i == 0 ? 1.0 : 0.0) + 2.0 * (0.5 + 0.25 * static_cast<double>(i % 4));
    EXPECT_EQ(slot.joules, expected) << i;
    EXPECT_EQ(slot.posts, i == 0 ? 5u : 4u) << i;
  }
  // 10,000 tags x 2 merges x (0.5 + mean 0.375 J) + the extra joule,
  // every term a multiple of 0.25 J, so the sum is exact.
  EXPECT_EQ(merged.total_joules(), 17501.0);
  EXPECT_EQ(merged.total_posts(), 4 * kTags + 1);

  const auto doc = parse_json(merged.to_json());
  const auto& attributions = doc.at("attributions").array;
  ASSERT_EQ(attributions.size(), kTags);
  for (std::size_t i = 1; i < attributions.size(); ++i) {
    EXPECT_LT(attributions[i - 1].at("path").string,
              attributions[i].at("path").string);
  }
}

// A flame-graph count is an integer number of nanojoules; past 2^63 nJ
// (9.2e9 J) it no longer fits a long long, and the path must still print
// its whole count rather than a wrapped one.
TEST(EnergyProfile, CollapsedStackPrintsCountsPastTheLongLongRange) {
  obs::EnergyProfile p;
  p.post("overflow_probe/big/carrier", 1e10, obs::no_sim_time());
  p.post("overflow_probe/edge/carrier", 9.2e9, obs::no_sim_time());
  p.post("overflow_probe/small/carrier", 1.25, obs::no_sim_time());
  EXPECT_EQ(p.to_collapsed_stack(),
            "overflow_probe;big;carrier 10000000000000000000\n"
            "overflow_probe;edge;carrier 9200000000000000000\n"
            "overflow_probe;small;carrier 1250000000\n");
}

#if BRAIDIO_OBS_COMPILED

/// Post `joules` under <root>/<label> for every label, each label copied
/// into one reused buffer first, into `profile`.
void post_labels_from_one_buffer(obs::EnergyProfile& profile,
                                 const char* root,
                                 const std::vector<std::string>& labels,
                                 double joules) {
  obs::ScopedEnergyProfile scoped(&profile);
  obs::EnergySpan span(root);
  char buffer[32];
  for (const std::string& label : labels) {
    ASSERT_LT(label.size(), sizeof buffer);
    std::snprintf(buffer, sizeof buffer, "%s", label.c_str());
    obs::post_energy(buffer, joules, obs::no_sim_time());
  }
}

// The span path memo keys on a label's bytes, never on its address: one
// buffer rewritten with different labels (same length or not) under one
// parent lands each post on its own label's path, as a span and as a
// category.
TEST(EnergySpan, RewrittenLabelBufferLandsOnEachLabelsPath) {
  obs::set_attribution_enabled(true);
  obs::EnergyProfile profile;
  {
    obs::ScopedEnergyProfile scoped(&profile);
    obs::EnergySpan root("memo_buffer");
    char label[16];
    for (const char* name : {"tx", "rx", "tx", "tx-retry", "rx"}) {
      std::snprintf(label, sizeof label, "%s", name);
      obs::EnergySpan span(label);
      obs::post_energy(label, 1.0, obs::no_sim_time());
    }
  }
  obs::set_attribution_enabled(false);
  const auto entries = profile.entries();
  ASSERT_EQ(entries.size(), 3u) << profile.to_json();
  EXPECT_EQ(entries.at("memo_buffer/tx/tx").posts, 2u);
  EXPECT_EQ(entries.at("memo_buffer/rx/rx").posts, 2u);
  EXPECT_EQ(entries.at("memo_buffer/tx-retry/tx-retry").posts, 1u);
}

// Labels that differ only in characters the sanitizer replaces are
// different memo keys but one path.
TEST(EnergySpan, LabelsThatSanitizeAlikeShareOnePath) {
  obs::set_attribution_enabled(true);
  obs::EnergyProfile profile;
  post_labels_from_one_buffer(profile, "memo_sanitize",
                              {"a/b", "a_b", "a;b", "a b", "a/b"}, 1.0);
  obs::set_attribution_enabled(false);
  const auto entries = profile.entries();
  ASSERT_EQ(entries.size(), 1u) << profile.to_json();
  EXPECT_EQ(entries.at("memo_sanitize/a_b").posts, 5u);
  EXPECT_EQ(entries.at("memo_sanitize/a_b").joules, 5.0);
}

// Thousands of distinct labels under one parent grow the memo several
// times; a second, warm pass finds every label's own path again.
TEST(EnergySpan, ThousandsOfLabelsKeepTheirOwnPaths) {
  constexpr std::size_t kLabels = 5000;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < kLabels; ++i) {
    labels.push_back("tag" + std::to_string(i));
  }
  obs::set_attribution_enabled(true);
  obs::EnergyProfile profile;
  post_labels_from_one_buffer(profile, "memo_grow", labels, 1.0);
  post_labels_from_one_buffer(profile, "memo_grow", labels, 2.0);
  obs::set_attribution_enabled(false);
  const auto entries = profile.entries();
  ASSERT_EQ(entries.size(), kLabels);
  for (const std::string& label : labels) {
    const auto& slot = entries.at("memo_grow/" + label);
    EXPECT_EQ(slot.posts, 2u) << label;
    EXPECT_EQ(slot.joules, 3.0) << label;
  }
}

// Two threads, each with its own memo, posting the same fresh labels at
// once (so both intern them concurrently) produce the bytes of the same
// posts made on one thread.
TEST(EnergySpan, TwoThreadsPostingTheSameLabelsMatchTheSerialProfile) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < 200; ++i) {
    labels.push_back("lane" + std::to_string(i % 50) + "-" +
                     std::to_string(i));
  }
  obs::set_attribution_enabled(true);
  obs::EnergyProfile first, second;
  // Neither iteration starts posting before both have arrived, so the
  // two run on the loop's two threads at once.
  std::atomic<int> arrived{0};
  sim::parallel_for(2, 2, [&](std::size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    post_labels_from_one_buffer(i == 0 ? first : second, "memo_threads",
                                labels, i == 0 ? 0.5 : 0.25);
  });
  obs::EnergyProfile serial_first, serial_second;
  post_labels_from_one_buffer(serial_first, "memo_threads", labels, 0.5);
  post_labels_from_one_buffer(serial_second, "memo_threads", labels, 0.25);
  obs::set_attribution_enabled(false);
  first.merge(second);
  serial_first.merge(serial_second);
  EXPECT_EQ(first.entries().size(), labels.size());
  EXPECT_EQ(first.to_json(), serial_first.to_json());
  EXPECT_EQ(first.to_collapsed_stack(), serial_first.to_collapsed_stack());
}

TEST(EnergySpan, DisabledMacroSkipsLabelAndGateStopsPosting) {
  obs::set_attribution_enabled(false);
  obs::reset_global_energy_profile();
  int evaluated = 0;
  const auto label = [&]() {
    ++evaluated;
    return "never";
  };
  {
    BRAIDIO_ENERGY_SPAN(span, label());
    obs::post_energy("active-tx", 1.0, 0.0);
  }
  // The macro must not evaluate its label while attribution is off, and
  // the gated hook must not post.
  EXPECT_EQ(evaluated, 0);
  EXPECT_TRUE(obs::global_energy_profile_snapshot().empty());
}

TEST(EnergySpan, LedgerChargesAreTaggedWithTheSanitizedSpanPath) {
  obs::reset_global_energy_profile();
  obs::set_attribution_enabled(true);
  {
    BRAIDIO_ENERGY_SPAN(exchange, "unit test");  // ' ' -> '_'
    BRAIDIO_ENERGY_SPAN(device, "device1");
    energy::EnergyLedger ledger;
    ledger.charge(energy::EnergyCategory::ActiveTx, util::Joules(2.0),
                  util::Seconds(1.0));
  }
  obs::set_attribution_enabled(false);
  const auto profile = obs::global_energy_profile_snapshot();
  obs::reset_global_energy_profile();
  ASSERT_EQ(profile.entries().count("unit_test/device1/active-tx"), 1u)
      << profile.to_json();
  EXPECT_DOUBLE_EQ(
      profile.entries().at("unit_test/device1/active-tx").joules, 2.0);
  EXPECT_DOUBLE_EQ(profile.total_joules(), 2.0);
}

// The conservation invariant the issue pins: the attributed span tree
// must sum to the ledger total for a mobility walk...
TEST(EnergyAttribution, MobilityWalkConservesLedgerTotal) {
  obs::set_attribution_enabled(true);
  core::MobilitySimulator sim(backends::braidio_backend());
  const auto trace =
      core::MobilityTrace::random_walk(0.3, 3.0, 1.4, util::Seconds(120.0),
                                       7);
  core::MobilitySimConfig cfg;
  obs::EnergyProfile profile;
  core::MobilityOutcome outcome;
  {
    obs::ScopedEnergyProfile scoped(&profile);
    outcome = sim.run(trace, cfg);
  }
  obs::set_attribution_enabled(false);
  ASSERT_FALSE(profile.empty());
  const double ledger_total = outcome.ledger.total_joules();
  ASSERT_GT(ledger_total, 0.0);
  // Same charges, grouped by path vs by category: only float summation
  // order differs.
  EXPECT_NEAR(profile.total_joules(), ledger_total, 1e-9 * ledger_total);
  // And the outcome ledger itself accounts for every drained joule.
  EXPECT_NEAR(ledger_total,
              outcome.device1_joules + outcome.device2_joules,
              1e-9 * ledger_total);
}

// ...and for a braid run under an injected fault schedule (retransmission
// and fallback paths post through the same spans).
TEST(EnergyAttribution, FaultedBraidConservesDeviceLedgers) {
  obs::set_attribution_enabled(true);
  const hal::RadioBackend& backend = backends::braidio_backend();
  core::RegimeMap regimes(backend);
  hal::StandardRadio device1("device1", 1, util::WattHours(0.01),
                             backend.caps());
  hal::StandardRadio device2("device2", 2, util::WattHours(0.01),
                             backend.caps());
  const auto timeline = sim::faults::FaultTimeline::periodic_bursts(
      sim::faults::FaultKind::FadeBurst, /*count=*/3,
      /*first_start_s=*/0.02, /*period_s=*/0.2, /*duration_s=*/0.05,
      /*magnitude=*/14.0);
  const sim::faults::ImpairmentSchedule schedule(timeline);
  core::BraidedLinkConfig cfg;
  cfg.distance_m = 0.5;
  cfg.impairments = &schedule;
  core::BraidedLink link(device1, device2, regimes, cfg);
  obs::EnergyProfile profile;
  core::BraidedLinkStats stats;
  {
    obs::ScopedEnergyProfile scoped(&profile);
    stats = link.run(512);
  }
  obs::set_attribution_enabled(false);
  ASSERT_GT(stats.fault_activations, 0u);
  ASSERT_FALSE(profile.empty());
  const double ledger_total =
      device1.ledger().total_joules() + device2.ledger().total_joules();
  ASSERT_GT(ledger_total, 0.0);
  EXPECT_NEAR(profile.total_joules(), ledger_total, 1e-9 * ledger_total);
  // Every path follows the span grammar rooted at the braid exchange.
  for (const auto& [path, slot] : profile.entries()) {
    EXPECT_EQ(path.rfind("braid/", 0), 0u) << path;
  }
}

sim::Scenario attributed_scenario(std::size_t points) {
  return sim::Scenario(
      "obs_energy", {sim::Axis::indexed("point", points)}, {"value"},
      [](sim::SweepPoint& p) {
        const std::string device =
            "dev" + std::to_string(p.flat_index() % 3);
        BRAIDIO_ENERGY_SPAN(exchange, "sweep");
        BRAIDIO_ENERGY_SPAN(span, device.c_str());
        energy::EnergyLedger ledger;
        ledger.charge(
            energy::EnergyCategory::ActiveTx,
            util::Joules(1e-6 * static_cast<double>(p.flat_index() + 1)),
            util::Seconds(0.5 * static_cast<double>(p.flat_index())));
        ledger.charge(energy::EnergyCategory::Mcu, util::Joules(1e-9),
                      util::Seconds(obs::no_sim_time()));
        sim::RunRecord record;
        record.cells = {std::to_string(p.flat_index())};
        record.numbers = {static_cast<double>(p.flat_index())};
        return record;
      });
}

TEST(SweepEnergyProfile, MergedProfileIsIdenticalSerialVsParallel) {
  obs::set_attribution_enabled(true);
  const std::size_t points = 64;
  const auto scenario = attributed_scenario(points);

  sim::SweepOptions serial;
  serial.threads = 1;
  const auto reference = sim::SweepRunner(serial).run(scenario);
  const std::string expected = reference.energy_profile().to_json();
  // Conservation across the whole sweep: sum of the arithmetic series
  // plus the per-point MCU tick.
  const double posted =
      1e-6 * static_cast<double>(points * (points + 1) / 2) +
      1e-9 * static_cast<double>(points);
  EXPECT_NEAR(reference.energy_profile().total_joules(), posted,
              1e-12 * posted);

  for (unsigned threads : {2u, 4u, 8u}) {
    sim::SweepOptions options;
    options.threads = threads;
    const auto parallel = sim::SweepRunner(options).run(scenario);
    EXPECT_EQ(parallel.energy_profile().to_json(), expected) << threads;
  }
  obs::set_attribution_enabled(false);
}

TEST(BenchTelemetry, RoundTripsThroughJsonWithTopAttributions) {
  obs::set_attribution_enabled(true);
  sim::SweepOptions options;
  options.threads = 2;
  const auto table = sim::SweepRunner(options).run(attributed_scenario(8));
  obs::set_attribution_enabled(false);

  auto telemetry = sim::BenchTelemetry::from_table("unit_bench", table);
  EXPECT_TRUE(std::isnan(telemetry.delivered_bits_per_joule));
  const auto doc = parse_json(telemetry.to_json());
  EXPECT_EQ(doc.at("schema").string, sim::kBenchTelemetrySchema);
  EXPECT_EQ(doc.at("name").string, "unit_bench");
  EXPECT_EQ(doc.at("points").number, 8.0);
  // NaN has no JSON rendering: the field degrades to null.
  EXPECT_EQ(doc.at("delivered_bits_per_joule").kind,
            JsonValue::Kind::Null);
  EXPECT_EQ(doc.at("counters").at("sweep_points").number, 8.0);
  const auto& tops = doc.at("top_attributions").array;
  ASSERT_FALSE(tops.empty());
  EXPECT_LE(tops.size(), sim::kBenchTopAttributions);
  for (std::size_t i = 1; i < tops.size(); ++i) {
    EXPECT_GE(tops[i - 1].at("joules").number,
              tops[i].at("joules").number);
  }

  telemetry.delivered_bits_per_joule = 42.5;
  EXPECT_DOUBLE_EQ(
      parse_json(telemetry.to_json())
          .at("delivered_bits_per_joule").number,
      42.5);
}

// 64-bit FNV-1a: pins an export's exact bytes in one constant.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Digests of a profile's four exports, in the order to_json,
/// to_collapsed_stack, to_chrome_counters, tree_report.
std::vector<std::uint64_t> export_digests(const obs::EnergyProfile& p) {
  return {fnv1a(p.to_json()), fnv1a(p.to_collapsed_stack()),
          fnv1a(p.to_chrome_counters()), fnv1a(p.tree_report())};
}

/// A small Fig. 15-18 sweep: {uni, bi} x 6 distances x 3 x 3 catalog
/// devices, each point evaluated as the figure benches do.
sim::Scenario fluid_digest_scenario(const core::LifetimeSimulator& model) {
  const auto& catalog = energy::device_catalog();
  const std::vector<std::size_t> devices{0, 4, 9};
  std::vector<std::string> names;
  for (const std::size_t d : devices) names.push_back(catalog[d].name);
  const std::vector<double> distances{0.3, 0.5, 1.0, 2.0, 4.0, 5.5};
  std::vector<sim::Axis> axes{{"pattern", {"uni", "bi"}},
                              sim::Axis::numeric("d [m]", distances, 1),
                              {"RX", names},
                              {"TX", names}};
  return sim::Scenario(
      "obs_fluid_digest", std::move(axes),
      {"gain_vs_bt", "gain_vs_best", "bits"},
      [&model, &catalog, devices, distances](sim::SweepPoint& p) {
        const auto& rx = catalog[devices[p.axis_index(2)]];
        const auto& tx = catalog[devices[p.axis_index(3)]];
        core::LifetimeConfig config;
        config.bidirectional = p.axis_index(0) == 1;
        config.distance_m = distances[p.axis_index(1)];
        const double e1 =
            util::to_joules(util::WattHours(tx.battery_wh)).value();
        const double e2 =
            util::to_joules(util::WattHours(rx.battery_wh)).value();
        const double vs_bt = model.gain_vs_bluetooth(tx, rx, config);
        const double vs_best = model.gain_vs_best_mode(tx, rx, config);
        const double bits =
            model.braidio(util::Joules(e1), util::Joules(e2), config).bits;
        sim::RunRecord record;
        record.cells = {util::format_engineering(vs_bt, 3),
                        util::format_engineering(vs_best, 3),
                        util::format_engineering(bits, 4)};
        record.numbers = {vs_bt, vs_best, bits};
        return record;
      });
}

// The attribution exports are a byte-for-byte contract: these digests
// were recorded before path interning, and a change to how posts are
// stored, merged or sorted must leave every one of them unchanged. The
// braid, walk and star digests were re-recorded when util::Rng moved
// from mt19937_64 to xoshiro256**, which redraws their streams; the
// fluid sweep draws nothing and kept its digests.
TEST(EnergyAttribution, ExportsMatchRecordedDigests) {
  obs::set_attribution_enabled(true);

  // 1. A two-thread fluid sweep, plus its merged metrics and the bench
  // record (wall-time fields zeroed).
  const core::LifetimeSimulator model(backends::braidio_backend());
  sim::SweepOptions options;
  options.threads = 2;
  options.seed = 1;
  const auto table =
      sim::SweepRunner(options).run(fluid_digest_scenario(model));
  std::vector<std::uint64_t> sweep = export_digests(table.energy_profile());
  sweep.push_back(fnv1a(table.metrics_registry().to_json()));
  auto telemetry = sim::BenchTelemetry::from_table("obs_digest", table);
  telemetry.wall_seconds = 0.0;
  telemetry.points_per_second = 0.0;
  sweep.push_back(fnv1a(telemetry.to_json()));

  // 2. The faulted braid (sim-time series and the arq-* scopes).
  const hal::RadioBackend& backend = backends::braidio_backend();
  obs::EnergyProfile braid;
  {
    core::RegimeMap regimes(backend);
    hal::StandardRadio device1("device1", 1, util::WattHours(0.01),
                               backend.caps());
    hal::StandardRadio device2("device2", 2, util::WattHours(0.01),
                               backend.caps());
    const auto timeline = sim::faults::FaultTimeline::periodic_bursts(
        sim::faults::FaultKind::FadeBurst, 3, 0.02, 0.2, 0.05, 14.0);
    const sim::faults::ImpairmentSchedule schedule(timeline);
    core::BraidedLinkConfig cfg;
    cfg.distance_m = 0.5;
    cfg.impairments = &schedule;
    core::BraidedLink link(device1, device2, regimes, cfg);
    obs::ScopedEnergyProfile scoped(&braid);
    link.run(512);
  }

  // 3. The mobility walk.
  obs::EnergyProfile walk;
  {
    core::MobilitySimulator sim(backend);
    const auto trace = core::MobilityTrace::random_walk(
        0.3, 3.0, 1.4, util::Seconds(120.0), 7);
    obs::ScopedEnergyProfile scoped(&walk);
    sim.run(trace, core::MobilitySimConfig{});
  }

  // 4. A network hub: four tags on a TDMA star, tag 2 under a targeted
  // shadowing step (per-node radio spans below the "net" root).
  obs::EnergyProfile star;
  {
    std::istringstream script("shadowing 0 1e6 14 @2\n");
    std::string error;
    const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
    ASSERT_TRUE(timeline.has_value()) << error;
    const sim::faults::ImpairmentSchedule schedule(*timeline);
    net::NetConfig config;
    config.backend = &backend;
    config.mac = net::MacKind::Tdma;
    config.topology.nodes = 4;
    config.topology.extent_m = 0.8;
    config.packets_per_node = 16;
    config.kick_spread_s = 0.0;
    config.impairments = &schedule;
    net::NetworkSimulator network(config);
    obs::ScopedEnergyProfile scoped(&star);
    network.run();
  }
  obs::set_attribution_enabled(false);

  const std::vector<std::uint64_t> recorded_sweep{
      13222987259705838423ull, 4014801663040455794ull,
      18381144563968767035ull, 15926050751476493608ull,
      4715811358129215630ull,  2940708176312076360ull};
  const std::vector<std::uint64_t> recorded_braid{
      12292092863212601442ull, 12629141294317112272ull,
      11376476041886623797ull, 16666477784207873448ull};
  const std::vector<std::uint64_t> recorded_walk{
      8061756075225892970ull, 12810680848023615259ull,
      17786093182956152736ull, 17034209037574183855ull};
  const std::vector<std::uint64_t> recorded_star{
      5859813305452474514ull, 11702636989335175396ull,
      17404061523828151921ull, 4870030504922811763ull};
  EXPECT_EQ(sweep, recorded_sweep);
  EXPECT_EQ(export_digests(braid), recorded_braid);
  EXPECT_EQ(export_digests(walk), recorded_walk);
  EXPECT_EQ(export_digests(star), recorded_star);
}

/// FNV-1a of the merged metrics registry of a one-point sweep whose point
/// calls `run`.
template <typename Run>
std::uint64_t sweep_metrics_digest(Run run) {
  const sim::Scenario scenario(
      "metrics_digest", {sim::Axis::indexed("run", 1)}, {"v"},
      [&run](sim::SweepPoint&) {
        run();
        sim::RunRecord record;
        record.cells = {"0"};
        record.numbers = {0.0};
        return record;
      });
  sim::SweepOptions options;
  options.threads = 1;
  options.seed = 1;
  const auto table = sim::SweepRunner(options).run(scenario);
  return fnv1a(table.metrics_registry().to_json());
}

// Every counter and every histogram's count, sum, min, max, quantiles and
// buckets, as the packet engines post them. Recorded before the metric
// hooks went inline and the histograms found their bucket from the
// value's binade: how a post is stored must not move a byte of these.
TEST(MetricsRegistry, RunsMatchRecordedDigests) {
  const hal::RadioBackend& backend = backends::braidio_backend();
  const auto net_run = [&backend](net::TopologyKind kind, std::size_t nodes,
                                  double extent_m, net::MacKind mac) {
    return [=, &backend] {
      net::NetConfig config;
      config.backend = &backend;
      config.mac = mac;
      config.topology.kind = kind;
      config.topology.nodes = nodes;
      config.topology.extent_m = extent_m;
      config.topology.link_range_m = 0.6;
      net::NetworkSimulator(config).run();
    };
  };
  // A 15 x 15 TDMA grid at 0.5 m pitch (hub at the centre) and a
  // 2,000-tag CSMA star.
  const std::uint64_t grid = sweep_metrics_digest(net_run(
      net::TopologyKind::Grid, 224, 14 * 0.5, net::MacKind::Tdma));
  const std::uint64_t star = sweep_metrics_digest(
      net_run(net::TopologyKind::Star, 2000, 2.0, net::MacKind::Csma));
  // A braided link under block fading.
  const std::uint64_t braid = sweep_metrics_digest([&backend] {
    core::RegimeMap regimes(backend);
    hal::StandardRadio device1("device1", 1, util::WattHours(0.01),
                               backend.caps());
    hal::StandardRadio device2("device2", 2, util::WattHours(0.01),
                               backend.caps());
    core::BraidedLinkConfig cfg;
    cfg.distance_m = 1.0;
    cfg.block_fading = true;
    core::BraidedLink link(device1, device2, regimes, cfg);
    link.run(512);
  });
  EXPECT_EQ(grid, 12625793423530417975ull);
  EXPECT_EQ(star, 1820538588688780505ull);
  EXPECT_EQ(braid, 1258264820347693459ull);
}

#endif  // BRAIDIO_OBS_COMPILED

TEST(ResultTableMeta, JsonWithMetaParsesBackAndEmbedsRunInfo) {
  const auto scenario = sim::Scenario(
      "meta_demo", {sim::Axis::indexed("i", 4)}, {"v"},
      [](sim::SweepPoint& p) {
        sim::RunRecord record;
        record.cells = {std::to_string(p.flat_index())};
        record.numbers = {static_cast<double>(p.flat_index())};
        return record;
      });
  sim::SweepOptions options;
  options.threads = 2;
  options.seed = 1234;
  const auto table = sim::SweepRunner(options).run(scenario);

  const auto doc = parse_json(table.to_json_with_meta());
  EXPECT_EQ(doc.at("meta").at("scenario").string, "meta_demo");
  EXPECT_EQ(doc.at("meta").at("seed").number, 1234.0);
  EXPECT_EQ(doc.at("meta").at("points").number, 4.0);
  EXPECT_GE(doc.at("meta").at("threads").number, 1.0);
  EXPECT_GE(doc.at("meta").at("wall_seconds").number, 0.0);
  EXPECT_EQ(doc.at("meta").at("obs_compiled").kind,
            JsonValue::Kind::Bool);
  // Truncated traces must be self-announcing: the envelope carries the
  // tracer's recorded/dropped totals and the per-lane split.
  const auto& trace = doc.at("meta").at("trace");
  EXPECT_GE(trace.at("recorded").number, 0.0);
  EXPECT_GE(trace.at("dropped").number, 0.0);
  EXPECT_EQ(trace.at("lanes").kind, JsonValue::Kind::Array);
  for (const auto& lane : trace.at("lanes").array) {
    EXPECT_GE(lane.at("recorded").number, lane.at("dropped").number);
  }
  EXPECT_GE(doc.at("meta").at("energy_attribution_joules").number, 0.0);
  EXPECT_EQ(doc.at("data").at("rows").array.size(), 4u);
  // The deterministic rendering must stay free of run metadata.
  EXPECT_EQ(table.to_json().find("wall"), std::string::npos);
}

}  // namespace
