// Tests for the stage::obs observability layer: metric primitives, the
// registry's two metric flavours (owned and render-time callbacks), the
// Prometheus text exposition and its structural validator, the JSON dump,
// prediction traces, and — the concurrency contract — a writer-hammered
// registry rendering cleanly from a concurrent reader (run under
// STAGE_SANITIZE=thread by tools/check.sh).
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stage/obs/metrics.h"
#include "stage/obs/trace.h"

namespace stage::obs {
namespace {

// ---------------------------------------------------------------------------
// Primitives.

TEST(CounterTest, IncrementsAndReads) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.25);
}

TEST(HistogramTest, BucketAssignment) {
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Record(0.5);    // <= 1.
  histogram.Record(1.0);    // <= 1 (bounds are inclusive upper edges).
  histogram.Record(5.0);    // <= 10.
  histogram.Record(100.0);  // <= 100.
  histogram.Record(1e6);    // +Inf overflow.
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  ASSERT_EQ(snapshot.buckets.size(), 4u);
  EXPECT_EQ(snapshot.buckets[0], 2u);
  EXPECT_EQ(snapshot.buckets[1], 1u);
  EXPECT_EQ(snapshot.buckets[2], 1u);
  EXPECT_EQ(snapshot.buckets[3], 1u);
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  EXPECT_DOUBLE_EQ(snapshot.max, 1e6);
}

TEST(HistogramTest, QuantileLandsInsideContainingBucket) {
  // A known two-mode distribution: the quantile estimate is interpolated,
  // so the only hard guarantee is the containing bucket's bounds.
  Histogram histogram(Histogram::LatencyBucketsNanos());
  for (int i = 0; i < 100; ++i) histogram.Record(600.0);    // (500, 1000].
  for (int i = 0; i < 100; ++i) histogram.Record(60000.0);  // (5e4, 1e5].
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  const double p25 = snapshot.Quantile(0.25);
  EXPECT_GT(p25, 500.0);
  EXPECT_LE(p25, 1000.0);
  const double p99 = snapshot.Quantile(0.99);
  EXPECT_GT(p99, 50000.0);
  EXPECT_LE(p99, 100000.0);
}

TEST(HistogramTest, OverflowQuantileReportsMax) {
  Histogram histogram({1.0});
  histogram.Record(7777.0);
  EXPECT_DOUBLE_EQ(histogram.TakeSnapshot().Quantile(0.99), 7777.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram histogram({1.0, 2.0});
  EXPECT_DOUBLE_EQ(histogram.TakeSnapshot().Quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, OwnedHandlesAreStable) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("c_total");
  Counter& b = registry.GetCounter("c_total");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, RenderTextValidatesAndContainsSamples) {
  MetricsRegistry registry;
  registry.GetCounter("stage_predictions_total{source=\"cache\"}")
      .Increment(7);
  registry.GetCounter("stage_predictions_total{source=\"local\"}")
      .Increment(2);
  registry.GetGauge("stage_cache_entries").Set(24.0);
  Histogram& latency = registry.GetHistogram(
      "stage_predict_latency_ns", Histogram::LatencyBucketsNanos());
  latency.Record(700.0);
  latency.Record(3e9);  // Overflow bucket.

  const std::string text = registry.RenderText();
  std::string error;
  EXPECT_TRUE(ValidateTextExposition(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("# TYPE stage_predictions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("stage_predictions_total{source=\"cache\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("stage_cache_entries 24"), std::string::npos);
  EXPECT_NE(text.find("stage_predict_latency_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("stage_predict_latency_ns_count 2"), std::string::npos);
  // Exactly one TYPE line per family even with label variants.
  const std::string type_line = "# TYPE stage_predictions_total counter";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line));
}

TEST(MetricsRegistryTest, RenderJsonContainsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("hits_total").Increment(5);
  registry.GetGauge("entries").Set(1.5);
  registry.GetHistogram("lat_ns", {10.0, 20.0}).Record(15.0);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"hits_total\":5"), std::string::npos);
  EXPECT_NE(json.find("\"entries\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"lat_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(MetricsRegistryTest, CallbacksSampleAtRenderTime) {
  MetricsRegistry registry;
  std::atomic<uint64_t> events{0};
  registry.RegisterCounterCallback(&events, "events_total", [&events] {
    return events.load(std::memory_order_relaxed);
  });
  events.store(9);
  EXPECT_NE(registry.RenderText().find("events_total 9"), std::string::npos);
  events.store(11);
  EXPECT_NE(registry.RenderText().find("events_total 11"), std::string::npos);
}

TEST(MetricsRegistryTest, UnregisterAllDropsOnlyThatOwner) {
  MetricsRegistry registry;
  int owner_a = 0;
  int owner_b = 0;
  registry.RegisterGaugeCallback(&owner_a, "a_gauge", [] { return 1.0; });
  registry.RegisterGaugeCallback(&owner_b, "b_gauge", [] { return 2.0; });
  registry.GetCounter("owned_total").Increment();
  registry.UnregisterAll(&owner_a);
  const std::string text = registry.RenderText();
  EXPECT_EQ(text.find("a_gauge"), std::string::npos);
  EXPECT_NE(text.find("b_gauge"), std::string::npos);
  EXPECT_NE(text.find("owned_total"), std::string::npos);
}

TEST(ValidateTextExpositionTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ValidateTextExposition("not a metric line\n", &error));
  EXPECT_FALSE(error.empty());
  // A histogram whose +Inf bucket disagrees with _count.
  const std::string bad_histogram =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 1\n"
      "h_sum 1\n"
      "h_count 2\n";
  EXPECT_FALSE(ValidateTextExposition(bad_histogram, &error));
  // Cumulative bucket counts must be non-decreasing.
  const std::string decreasing =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 3\n"
      "h_bucket{le=\"2\"} 2\n"
      "h_bucket{le=\"+Inf\"} 3\n"
      "h_sum 1\n"
      "h_count 3\n";
  EXPECT_FALSE(ValidateTextExposition(decreasing, &error));
  EXPECT_TRUE(ValidateTextExposition("", &error)) << error;
}

// ---------------------------------------------------------------------------
// Traces.

TEST(TraceTest, FormatTraceLineIsDeterministic) {
  PredictionTrace trace;
  trace.stage = TraceStage::kGlobal;
  trace.cache_hit = false;
  trace.local_trained = true;
  trace.global_available = true;
  trace.escalated = true;
  trace.predicted_seconds = 12.5;
  trace.uncertainty_log_std = 1.75;
  trace.short_running_threshold = 5.0;
  trace.uncertainty_threshold = 1.0;
  trace.total_nanos = 12345;  // Latency must NOT appear (non-deterministic).
  const std::string line = FormatTraceLine(7, trace);
  EXPECT_EQ(line,
            "q=7 stage=global hit=0 trained=1 global=1 short=0 conf=0 esc=1 "
            "pred=12.5 unc=1.75 thr_short=5 thr_unc=1");
  EXPECT_EQ(line.find("nanos"), std::string::npos);
}

TEST(TraceTest, RoutingMetricSetRecords) {
  MetricsRegistry registry;
  const RoutingMetricSet set = RoutingMetricSet::Create(&registry, "t_");
  ASSERT_TRUE(set.enabled());
  PredictionTrace trace;
  trace.stage = TraceStage::kLocal;
  trace.uncertainty_log_std = 0.4;
  set.Record(trace);
  trace.stage = TraceStage::kGlobal;
  trace.escalated = true;
  trace.uncertainty_log_std = 2.0;
  set.Record(trace);
  EXPECT_EQ(set.escalations->value(), 1u);
  EXPECT_EQ(set.uncertainty->count(), 2u);
  std::string error;
  EXPECT_TRUE(ValidateTextExposition(registry.RenderText(), &error)) << error;
}

TEST(TraceTest, DisabledSetIsInert) {
  const RoutingMetricSet set = RoutingMetricSet::Create(nullptr, "t_");
  EXPECT_FALSE(set.enabled());
}

// ---------------------------------------------------------------------------
// Concurrency: 8 writers hammer owned metrics while a reader renders in a
// loop. Must be TSan-clean, every render must validate, and the final
// counts must sum exactly (no lost updates).

TEST(MetricsConcurrencyTest, WritersVsRenderingReader) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("hammer_total");
  Histogram& histogram =
      registry.GetHistogram("hammer_ns", Histogram::LatencyBucketsNanos());
  Gauge& gauge = registry.GetGauge("hammer_gauge");
  std::atomic<uint64_t> callback_events{0};
  registry.RegisterCounterCallback(
      &callback_events, "hammer_callback_total", [&callback_events] {
        return callback_events.load(std::memory_order_relaxed);
      });

  constexpr int kWriters = 8;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter.Increment();
        histogram.Record(static_cast<double>((w * 131 + i) % 100000));
        gauge.Set(static_cast<double>(i));
        callback_events.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::atomic<int> renders{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string text = registry.RenderText();
      std::string error;
      ASSERT_TRUE(ValidateTextExposition(text, &error)) << error;
      registry.RenderJson();
      renders.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kWriters) * static_cast<uint64_t>(kPerWriter);
  EXPECT_EQ(counter.value(), kTotal);
  EXPECT_EQ(callback_events.load(), kTotal);
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, kTotal);
  uint64_t bucket_sum = 0;
  for (const uint64_t bucket : snapshot.buckets) bucket_sum += bucket;
  EXPECT_EQ(bucket_sum, kTotal);
  EXPECT_GT(renders.load(), 0);
  // The final render reflects the quiesced state exactly.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("hammer_total " + std::to_string(kTotal)),
            std::string::npos);
}

// Registration racing render: components come and go while a reader
// scrapes (the StagePredictor destructor contract).
TEST(MetricsConcurrencyTest, RegistrationVsRender) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int round = 0; round < 200; ++round) {
      int owner;  // Address serves as the owner tag.
      registry.RegisterGaugeCallback(
          &owner, "churn_gauge_" + std::to_string(round % 4),
          [] { return 1.0; });
      registry.GetCounter("churn_total").Increment();
      registry.UnregisterAll(&owner);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string error;
      ASSERT_TRUE(ValidateTextExposition(registry.RenderText(), &error))
          << error;
    }
  });
  churn.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(registry.GetCounter("churn_total").value(), 200u);
}

}  // namespace
}  // namespace stage::obs
