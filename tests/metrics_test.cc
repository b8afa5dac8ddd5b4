// Tests for the obs telemetry core (docs/observability.md): counter and
// histogram exactness under concurrent writers, snapshot-while-writing
// safety (exercised under TSan in CI), registry pointer identity across
// ResetForTest, exporter content, runtime gating, quantile math, and the
// thread-pool sink being installed wherever metrics can be enabled.

#include "obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace qfcard::obs {
namespace {

// Every test in this binary runs with metrics ON unless it flips the toggle
// itself; the fixture restores the OFF default either way so tests stay
// order-independent.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMetricsEnabled(true); }
  void TearDown() override { SetMetricsEnabled(false); }
};

TEST_F(MetricsTest, CounterConcurrentAddsAreExact) {
  common::ThreadPool pool(8);
  MetricsRegistry registry;
  Counter* ctr = registry.CounterNamed("t.ctr");
  constexpr int64_t kAdds = 200000;
  pool.ParallelFor(kAdds, [&](int64_t) { ctr->Add(); });
  EXPECT_EQ(ctr->Value(), static_cast<uint64_t>(kAdds));
  // Weighted adds accumulate exactly too.
  pool.ParallelFor(1000, [&](int64_t) { ctr->Add(3); });
  EXPECT_EQ(ctr->Value(), static_cast<uint64_t>(kAdds + 3000));
}

TEST_F(MetricsTest, HistogramConcurrentObservesAreExact) {
  common::ThreadPool pool(8);
  Histogram hist(LatencyBounds());
  constexpr int64_t kObs = 100000;
  // 1.0 is exactly representable and stays exact across any summation
  // order, so Sum() must be exact despite relaxed CAS adds.
  pool.ParallelFor(kObs, [&](int64_t i) { hist.Observe(i % 2 == 0 ? 1.0 : 2.0); });
  EXPECT_EQ(hist.Count(), static_cast<uint64_t>(kObs));
  EXPECT_DOUBLE_EQ(hist.Sum(), 1.5 * static_cast<double>(kObs));
  EXPECT_DOUBLE_EQ(hist.Max(), 2.0);
  // Per-bucket counts account for every observation.
  uint64_t total = 0;
  for (const uint64_t c : hist.BucketCounts()) total += c;
  EXPECT_EQ(total, static_cast<uint64_t>(kObs));
}

TEST_F(MetricsTest, SnapshotWhileWritingIsSafeAndExactAtQuiescence) {
  MetricsRegistry registry;
  Counter* ctr = registry.CounterNamed("t.snapshot.ctr");
  Histogram* hist =
      registry.HistogramNamed("t.snapshot.hist", LatencyBounds());
  constexpr uint64_t kWrites = 150000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kWrites; ++i) {
      ctr->Add();
      hist->Observe(1e-4);
    }
    done.store(true, std::memory_order_release);
  });
  // Concurrent readers must never crash, tear, or (under TSan) race; counts
  // they see are monotonic because writers only add.
  uint64_t last_seen = 0;
  while (!done.load(std::memory_order_acquire)) {
    const std::string json = registry.ToJson();
    EXPECT_NE(json.find("t.snapshot.ctr"), std::string::npos);
    const std::string prom = registry.ToPrometheus();
    EXPECT_NE(prom.find("t_snapshot_hist_count"), std::string::npos);
    for (const MetricsRegistry::CounterRow& row : registry.CounterRows()) {
      if (row.name == "t.snapshot.ctr") {
        EXPECT_GE(row.value, last_seen);
        last_seen = row.value;
      }
    }
  }
  writer.join();
  EXPECT_EQ(ctr->Value(), kWrites);
  EXPECT_EQ(hist->Count(), kWrites);
}

TEST_F(MetricsTest, RegistryReturnsStableIdentityPerNameAndLabels) {
  MetricsRegistry registry;
  Counter* a = registry.CounterNamed("t.id", "backend=gb");
  Counter* b = registry.CounterNamed("t.id", "backend=gb");
  Counter* c = registry.CounterNamed("t.id", "backend=nn");
  Counter* d = registry.CounterNamed("t.id2", "backend=gb");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  // Histogram bounds apply on first creation only.
  Histogram* h1 = registry.HistogramNamed("t.h", LatencyBounds());
  Histogram* h2 = registry.HistogramNamed("t.h", QErrorBounds());
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds(), LatencyBounds());
}

TEST_F(MetricsTest, ResetForTestZeroesInPlaceKeepingPointersValid) {
  // Instrumented code (the thread pool, estimators) caches registry
  // pointers in function-local statics, so Reset must never invalidate
  // them — it zeroes values in place.
  MetricsRegistry registry;
  Counter* ctr = registry.CounterNamed("t.reset.ctr");
  Gauge* gauge = registry.GaugeNamed("t.reset.gauge");
  Histogram* hist = registry.HistogramNamed("t.reset.hist", LatencyBounds());
  ctr->Add(7);
  gauge->Set(5);
  hist->Observe(0.25);
  registry.ResetForTest();
  EXPECT_EQ(registry.CounterNamed("t.reset.ctr"), ctr);
  EXPECT_EQ(registry.GaugeNamed("t.reset.gauge"), gauge);
  EXPECT_EQ(registry.HistogramNamed("t.reset.hist", LatencyBounds()), hist);
  EXPECT_EQ(ctr->Value(), 0u);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(hist->Count(), 0u);
  EXPECT_DOUBLE_EQ(hist->Sum(), 0.0);
  EXPECT_DOUBLE_EQ(hist->Max(), 0.0);
  // The old pointer keeps recording after the reset.
  ctr->Add(2);
  EXPECT_EQ(registry.CounterNamed("t.reset.ctr")->Value(), 2u);
}

TEST_F(MetricsTest, QuantileInterpolationAndEdgeBuckets) {
  Histogram hist({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);  // empty
  // All mass in the first bucket: quantiles report its upper edge, capped
  // at the observed max.
  hist.Observe(0.5);
  hist.Observe(0.25);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.99), 0.5);
  hist.Observe(3.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 1.0);
  hist.Reset();
  // All mass past the last edge: the overflow bucket reports the exact max.
  hist.Observe(10.0);
  hist.Observe(20.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(hist.Max(), 20.0);
  hist.Reset();
  // Interior bucket: linear interpolation between its edges, capped at the
  // observed max. Ten values in (1, 2]; the median lands halfway through
  // that bucket.
  for (int i = 0; i < 10; ++i) hist.Observe(1.5);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 1.5);
  hist.Observe(1.9);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 1.9);
}

// One observation: no quantile reads above it (a single 0.0731 s fit once
// read p50 0.075 s and p95 0.0975 s), whichever bucket it lands in.
TEST_F(MetricsTest, QuantilesNeverExceedMax) {
  for (const double v : {5e-7, 0.0731, 0.3, 60.0}) {
    Histogram hist(LatencyBounds());
    hist.Observe(v);
    EXPECT_LE(hist.P50(), hist.Max()) << v;
    EXPECT_LE(hist.P95(), hist.Max()) << v;
  }
  Histogram hist(LatencyBounds());
  hist.Observe(0.0731);
  EXPECT_DOUBLE_EQ(hist.P50(), 0.0731);
  EXPECT_DOUBLE_EQ(hist.P95(), 0.0731);
}

TEST_F(MetricsTest, StandardBoundsAreStrictlyAscending) {
  for (const std::vector<double>* bounds : {&LatencyBounds(), &QErrorBounds()}) {
    ASSERT_FALSE(bounds->empty());
    for (size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
}

TEST_F(MetricsTest, JsonAndPrometheusExportContent) {
  MetricsRegistry registry;
  registry.CounterNamed("t.export.ctr", "backend=gb")->Add(3);
  Histogram* hist = registry.HistogramNamed("t.export.hist", {1.0, 2.0});
  hist->Observe(0.5);
  hist->Observe(1.5);
  hist->Observe(9.0);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"name\":\"t.export.ctr\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":\"backend=gb\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);

  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE t_export_ctr counter"), std::string::npos);
  EXPECT_NE(prom.find("t_export_ctr{backend=\"gb\"} 3"), std::string::npos);
  // Histogram buckets are cumulative; the +Inf bucket equals the count.
  EXPECT_NE(prom.find("t_export_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("t_export_hist_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("t_export_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("t_export_hist_count 3"), std::string::npos);
}

TEST_F(MetricsTest, JsonEscapingHandlesQuotesAndControlChars) {
  EXPECT_EQ(internal::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(internal::JsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST_F(MetricsTest, DisabledGatingSkipsConvenienceWrites) {
  SetMetricsEnabled(false);
  IncrementCounter("t.gate.never");
  ObserveLatency("t.gate.never.lat", 0.1);
  for (const MetricsRegistry::CounterRow& row :
       MetricsRegistry::Global().CounterRows()) {
    EXPECT_NE(row.name, "t.gate.never");
  }
  SetMetricsEnabled(true);
  IncrementCounter("t.gate.once");
  uint64_t value = 0;
  for (const MetricsRegistry::CounterRow& row :
       MetricsRegistry::Global().CounterRows()) {
    if (row.name == "t.gate.once") value = row.value;
  }
  EXPECT_EQ(value, 1u);
}

TEST_F(MetricsTest, ScopedTimerRecordsExactlyOnce) {
  MetricsRegistry::Global().ResetForTest();
  {
    ScopedTimer timer("t.timer.hist");
    volatile double acc = 0;
    for (int i = 0; i < 1000; ++i) acc = acc + i;
    const double first = timer.Stop();
    EXPECT_GE(first, 0.0);
    timer.Stop();  // recording already happened; this must not observe again
  }  // destructor must not double-record either
  Histogram* hist = MetricsRegistry::Global().HistogramNamed(
      "t.timer.hist", LatencyBounds());
  EXPECT_EQ(hist->Count(), 1u);
}

// ---------------------------------------------------------------------------
// ThreadPool sink
// ---------------------------------------------------------------------------

// The threadpool.* sink lives in its own translation unit that nothing
// references by name; enabling metrics must still install it, in this test
// binary as in every other one that links qfcard.
TEST_F(MetricsTest, ParallelForRecordsThreadPoolSeries) {
  MetricsRegistry::Global().ResetForTest();
  common::ThreadPool pool(2);
  std::atomic<int64_t> ran{0};
  pool.ParallelFor(64, [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_GT(reg.CounterNamed("threadpool.parallel_for_calls")->Value(), 0u);
  EXPECT_GT(reg.CounterNamed("threadpool.indices")->Value(), 0u);
}

}  // namespace
}  // namespace qfcard::obs
