// ThreadPool telemetry sink: bridges common::PoolStatsSink (the pool's
// obs-free stats hook, see common/pool_stats.h) into the threadpool.*
// series of the global MetricsRegistry. Kept out of obs/metrics.cc so the
// analyzer's telemetry pass inventories these registration sites like any
// other instrumentation (obs/metrics.cc itself is exempt — it defines the
// registration helpers the pass greps for).

#include <cstdint>

#include "common/pool_stats.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace qfcard::obs {
namespace {

// Pool series, resolved once from the registry so the pool's hot path
// updates metrics lock-free. Eagerly creates every threadpool.* series on
// first use — including queue_wait_seconds, which a 1-thread pool never
// observes — so snapshots have the same shape at every thread count (the CI
// schema check runs at QFCARD_THREADS=1 and 4).
struct PoolSeries {
  Counter* calls;
  Counter* inline_calls;
  Counter* indices;
  Counter* chunks;
  Histogram* queue_wait;
  Histogram* task_run;
  Gauge* size;
};

PoolSeries& GetPoolSeries() {
  static PoolSeries* series = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* s = new PoolSeries;  // leaked: outlives static dtors
    s->calls = reg.CounterNamed("threadpool.parallel_for_calls");
    s->inline_calls = reg.CounterNamed("threadpool.inline_calls");
    s->indices = reg.CounterNamed("threadpool.indices");
    s->chunks = reg.CounterNamed("threadpool.chunks");
    s->queue_wait =
        reg.HistogramNamed("threadpool.queue_wait_seconds", LatencyBounds());
    s->task_run =
        reg.HistogramNamed("threadpool.task_run_seconds", LatencyBounds());
    s->size = reg.GaugeNamed("threadpool.size");
    return s;
  }();
  return *series;
}

// common::ThreadPool cannot include obs/ (layer order, tools/layers.json),
// so this sink carries its stats into the threadpool.* series. Installed by
// internal::InstallPoolStatsSink; installation only stores a pointer, the
// registry is not touched until the first callback with metrics enabled.
class PoolStatsToMetrics final : public common::PoolStatsSink {
 public:
  bool Enabled() const override { return MetricsEnabled(); }

  double NowSeconds() const override {
    static const Clock::time_point epoch = Now();
    return SecondsBetween(epoch, Now());
  }

  void OnParallelFor(int64_t indices, int pool_size) override {
    PoolSeries& s = GetPoolSeries();
    s.calls->Add();
    s.indices->Add(static_cast<uint64_t>(indices));
    s.size->Set(pool_size);
  }

  void OnInlineRun() override { GetPoolSeries().inline_calls->Add(); }

  void OnJobRun(uint64_t chunks, double run_seconds) override {
    PoolSeries& s = GetPoolSeries();
    s.chunks->Add(chunks);
    s.task_run->Observe(run_seconds);
  }

  void OnQueueWait(double wait_seconds) override {
    GetPoolSeries().queue_wait->Observe(wait_seconds);
  }
};

}  // namespace

namespace internal {

void InstallPoolStatsSink() {
  // Leaked: pool workers may still report after static destructors run.
  static PoolStatsToMetrics* const sink = new PoolStatsToMetrics;
  common::SetPoolStatsSink(sink);
}

}  // namespace internal
}  // namespace qfcard::obs
