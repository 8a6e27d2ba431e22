#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace xia::obs {
namespace {

TEST(CounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrements) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetLastWins) {
  Gauge g;
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i counts observations <= bounds[i]; the last bucket is
  // overflow. Boundary values land in the bucket whose bound they equal.
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (inclusive upper bound)
  h.Observe(1.0001); // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(99.0);   // bucket 2
  h.Observe(100.5);  // overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 100.5, 1e-9);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, ConcurrentObserve) {
  Histogram h({1.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(0.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket(0), h.count());
  EXPECT_NEAR(h.sum(), 0.5 * static_cast<double>(h.count()), 1e-6);
}

TEST(RegistryTest, StablePointersAndKinds) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c, registry.GetCounter("test.counter"));
  Gauge* g = registry.GetGauge("test.gauge");
  EXPECT_EQ(g, registry.GetGauge("test.gauge"));
  Histogram* h = registry.GetHistogram("test.histogram", {1.0, 2.0});
  EXPECT_EQ(h, registry.GetHistogram("test.histogram", {1.0, 2.0}));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(RegistryTest, SnapshotAndResetIsolation) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("iso.counter");
  Gauge* g = registry.GetGauge("iso.gauge");
  Histogram* h = registry.GetHistogram("iso.histogram", {1.0});
  c->Add(7);
  g->Set(2.5);
  h->Observe(0.5);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  const MetricValue* cv = snap.Find("iso.counter");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->kind, MetricValue::Kind::kCounter);
  EXPECT_EQ(cv->counter, 7u);
  const MetricValue* gv = snap.Find("iso.gauge");
  ASSERT_NE(gv, nullptr);
  EXPECT_DOUBLE_EQ(gv->gauge, 2.5);
  const MetricValue* hv = snap.Find("iso.histogram");
  ASSERT_NE(hv, nullptr);
  ASSERT_EQ(hv->buckets.size(), 2u);
  EXPECT_EQ(hv->buckets[0], 1u);
  EXPECT_EQ(hv->count, 1u);
  EXPECT_EQ(snap.Find("iso.absent"), nullptr);

  // The snapshot is a copy: later updates and resets don't touch it.
  c->Add(100);
  registry.ResetAll();
  EXPECT_EQ(snap.Find("iso.counter")->counter, 7u);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  // Registrations (and pointers) survive the reset.
  EXPECT_EQ(c, registry.GetCounter("iso.counter"));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(RegistryTest, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zzz.last");
  registry.GetGauge("aaa.first");
  registry.GetCounter("mmm.middle");
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "aaa.first");
  EXPECT_EQ(snap.metrics[1].name, "mmm.middle");
  EXPECT_EQ(snap.metrics[2].name, "zzz.last");
}

TEST(ExporterTest, TableFormat) {
  MetricsRegistry registry;
  registry.GetCounter("fmt.counter")->Add(3);
  registry.GetGauge("fmt.gauge")->Set(1.5);
  const std::string table = registry.Snapshot().ToTable();
  EXPECT_NE(table.find("fmt.counter"), std::string::npos);
  EXPECT_NE(table.find("3"), std::string::npos);
  EXPECT_NE(table.find("fmt.gauge"), std::string::npos);
  EXPECT_NE(table.find("1.5"), std::string::npos);
}

TEST(ExporterTest, JsonFormat) {
  MetricsRegistry registry;
  registry.GetCounter("json.counter")->Add(5);
  registry.GetHistogram("json.histogram", {1.0})->Observe(0.5);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"json.histogram\""), std::string::npos);
  // Balanced braces and brackets (cheap structural validity check).
  int braces = 0, brackets = 0;
  for (char ch : json) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ExporterTest, PrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("prom.requests")->Add(9);
  Histogram* h = registry.GetHistogram("prom.latency", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(99.0);
  const std::string text = registry.Snapshot().ToPrometheus();
  // Dots become underscores; histograms expose cumulative buckets plus
  // +Inf, _sum, and _count.
  EXPECT_NE(text.find("prom_requests 9"), std::string::npos);
  EXPECT_NE(text.find("prom_latency_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("prom_latency_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("prom_latency_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("prom_latency_count 3"), std::string::npos);
  EXPECT_NE(text.find("prom_latency_sum"), std::string::npos);
  EXPECT_EQ(text.find("prom.latency"), std::string::npos);
}

TEST(MacroTest, FeedGlobalRegistry) {
  Counter* c = MetricsRegistry::Global().GetCounter("macro.test.counter");
  const uint64_t before = c->value();
  XIA_OBS_COUNT("macro.test.counter", 2);
  XIA_OBS_GAUGE_SET("macro.test.gauge", 4.0);
  XIA_OBS_OBSERVE_LATENCY("macro.test.latency", 0.001);
  if (kObsEnabled) {
    EXPECT_EQ(c->value(), before + 2);
    EXPECT_DOUBLE_EQ(
        MetricsRegistry::Global().GetGauge("macro.test.gauge")->value(), 4.0);
    EXPECT_GE(MetricsRegistry::Global()
                  .GetHistogram("macro.test.latency", LatencyBuckets())
                  ->count(),
              1u);
  } else {
    EXPECT_EQ(c->value(), before);
  }
}

TEST(TracerTest, SpansNestAndSeal) {
  Tracer tracer;
  Counter calls;
  tracer.TrackCounter(&calls);
  {
    ScopedSpan outer(&tracer, "outer");
    calls.Add(3);
    {
      ScopedSpan inner(&tracer, "inner");
      calls.Add(2);
      inner.AnnotateItems(7);
    }
  }
  Trace trace = tracer.Finish();
  ASSERT_EQ(trace.spans.size(), 2u);
  const SpanRecord* outer = trace.Find("outer");
  const SpanRecord* inner = trace.Find("inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->tracked_calls, 5u);  // includes the nested span's adds
  EXPECT_EQ(inner->tracked_calls, 2u);
  EXPECT_DOUBLE_EQ(inner->items, 7);
  EXPECT_GE(outer->seconds, inner->seconds);
  EXPECT_GE(inner->seconds, 0.0);
  // Only the outer span is depth 0.
  EXPECT_EQ(trace.PhaseTrackedCalls(), 5u);
  EXPECT_DOUBLE_EQ(trace.PhaseSeconds(), outer->seconds);
}

TEST(TracerTest, SwitchingCountersKeepsTheTrackedTotalContinuous) {
  Tracer tracer;
  Counter untracked;
  Counter first;
  first.Add(100);  // moves before tracking never count
  {
    ScopedSpan outer(&tracer, "outer");
    {
      ScopedTrackedCounter track(&tracer, &first);
      ScopedSpan inner(&tracer, "inner");
      first.Add(3);
      untracked.Add(50);
    }
    first.Add(7);  // handed back: no longer tracked
    Counter second;
    second.Add(20);
    ScopedTrackedCounter track(&tracer, &second);
    second.Add(4);
  }
  {
    ScopedSpan after(&tracer, "after");  // tracks nothing again
    first.Add(1);
  }
  Trace trace = tracer.Finish();
  EXPECT_EQ(trace.Find("inner")->tracked_calls, 3u);
  // The outer span straddles both switches: 3 from `first`, 4 from
  // `second`.
  EXPECT_EQ(trace.Find("outer")->tracked_calls, 7u);
  EXPECT_EQ(trace.Find("after")->tracked_calls, 0u);
  ScopedTrackedCounter null_tracer(nullptr, &first);  // must not crash
}

TEST(TracerTest, EndIsIdempotentAndNullTracerIsNoop) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "phase");
    span.End();
    span.End();  // second End must not double-seal
  }
  EXPECT_EQ(tracer.Finish().spans.size(), 1u);

  ScopedSpan null_span(nullptr, "ignored");
  null_span.AnnotateItems(3);
  null_span.End();  // must not crash
}

TEST(TraceTest, RenderFormats) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "enumerate");
    span.AnnotateItems(12);
  }
  Trace trace = tracer.Finish();
  const std::string text = trace.ToString();
  EXPECT_NE(text.find("enumerate"), std::string::npos);
  const std::string json = trace.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"enumerate\""), std::string::npos);
}

}  // namespace
}  // namespace xia::obs
