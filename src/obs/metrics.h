#ifndef QFCARD_OBS_METRICS_H_
#define QFCARD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"

namespace qfcard::obs {

// ---------------------------------------------------------------------------
// Runtime toggles
// ---------------------------------------------------------------------------

namespace internal {
// Tri-state: -1 = not yet resolved from the environment, 0 = off, 1 = on.
extern std::atomic<int> g_metrics_mode;
// Resolves the QFCARD_METRICS environment variable (first call only).
bool ResolveMetricsMode();
}  // namespace internal

/// Whether metric recording is on. Defaults to the QFCARD_METRICS
/// environment variable (unset/0 = off); SetMetricsEnabled overrides. The
/// check is one relaxed atomic load once resolved, so instrumented hot paths
/// are ~free when telemetry is off — instrumentation is compiled in
/// unconditionally and gated here at runtime.
inline bool MetricsEnabled() {
  const int mode = internal::g_metrics_mode.load(std::memory_order_relaxed);
  if (mode >= 0) return mode != 0;
  return internal::ResolveMetricsMode();
}

/// Programmatic override of QFCARD_METRICS (used by qfcard_cli
/// --metrics-out and by tests).
void SetMetricsEnabled(bool enabled);

// ---------------------------------------------------------------------------
// Metric types
// ---------------------------------------------------------------------------

/// Monotonic counter. Add() is lock-free and sharded: each writing thread
/// lands on one of kShards cache-line-padded atomics (assigned round-robin
/// per thread), so ParallelFor workers bumping the same hot counter never
/// contend on a single cache line. Value() sums the shards; it is exact once
/// writers quiesce and never under-counts finished Add()s.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every shard. Test hook; not safe against concurrent Add().
  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr int kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  static int ThisThreadShard();
  Shard shards_[kShards];
};

/// Last-written value (e.g. configured pool size, queue depth).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over doubles (latencies in seconds, q-errors).
/// `bounds` are ascending inclusive upper bucket edges; one implicit
/// overflow bucket covers (bounds.back(), +inf). Observe() is lock-free:
/// relaxed fetch_add on the bucket, atomic fetch_add on the sum, CAS loop on
/// the max. Quantile() linearly interpolates inside the winning bucket (the
/// overflow bucket reports the exact observed max), matching the fixed
/// per-bucket resolution trade-off of Prometheus-style histograms, and never
/// reports more than the observed max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  uint64_t Count() const;
  double Sum() const;
  /// Exact largest observed value (0 when empty).
  double Max() const;
  double Mean() const;

  /// Interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P95() const { return Quantile(0.95); }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative-free per-bucket counts (bounds().size() + 1 entries, the
  /// last being the overflow bucket).
  std::vector<uint64_t> BucketCounts() const;

  /// Zeroes buckets, sum, and max. Test hook; not safe against concurrent
  /// Observe().
  void Reset();

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Standard latency bucket edges in seconds: 1-2.5-5 per decade from 1us to
/// 50s. Shared by every *_seconds histogram so exported pages line up.
const std::vector<double>& LatencyBounds();

/// Standard q-error bucket edges: dense near 1 (where medians live),
/// log-spaced out to 1e6. Shared by every q-error histogram.
const std::vector<double>& QErrorBounds();

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Process-wide named-metric registry. Lookup is mutex-guarded (a map walk,
/// fine per batch/stage); the returned pointers are stable for the process
/// lifetime, so hot paths resolve once and then update lock-free. `labels`
/// is a free-form "key=value[,key=value]" string kept separate from the name
/// so exporters can render Prometheus-style `name{labels}` series.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* CounterNamed(std::string_view name, std::string_view labels = "");
  Gauge* GaugeNamed(std::string_view name, std::string_view labels = "");
  /// `bounds` applies on first creation only; later calls with the same
  /// name/labels return the existing histogram regardless of bounds.
  Histogram* HistogramNamed(std::string_view name,
                            const std::vector<double>& bounds,
                            std::string_view labels = "");

  /// Point-in-time rows for report embedding (eval::PrintTelemetrySnapshot).
  struct CounterRow {
    std::string name;
    std::string labels;
    uint64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    std::string labels;
    uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double max = 0.0;
  };
  std::vector<CounterRow> CounterRows() const;
  std::vector<HistogramRow> HistogramRows() const;

  /// JSON object with "counters"/"gauges"/"histograms" arrays; see
  /// docs/observability.md for the exact shape (validated in CI by
  /// tools/validate_metrics.py against tools/metrics_schema.json).
  std::string ToJson() const;
  /// Prometheus text exposition ("name{labels} value" lines, histograms as
  /// cumulative _bucket/_sum/_count series).
  std::string ToPrometheus() const;

  /// Zeroes every registered metric IN PLACE: registrations — and therefore
  /// every Counter*/Gauge*/Histogram* handed out — stay valid, which matters
  /// because instrumented code (thread pool, estimators) caches those
  /// pointers in function-local statics. Test hook; not safe against
  /// concurrent writers.
  void ResetForTest();

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::string labels;
    T metric;
    template <typename... Args>
    explicit Named(std::string n, std::string l, Args&&... args)
        : name(std::move(n)), labels(std::move(l)),
          metric(std::forward<Args>(args)...) {}
  };

  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Named<Counter>>> counters_
      QFCARD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Named<Gauge>>> gauges_
      QFCARD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Named<Histogram>>> histograms_
      QFCARD_GUARDED_BY(mu_);
};

/// Counter bump through the global registry, gated on MetricsEnabled().
/// For cold paths (error returns, shrink loops) where caching the Counter*
/// is not worth the plumbing.
void IncrementCounter(std::string_view name, std::string_view labels = "",
                      uint64_t n = 1);

/// Histogram observation through the global registry (LatencyBounds), gated
/// on MetricsEnabled().
void ObserveLatency(std::string_view name, double seconds,
                    std::string_view labels = "");

// ---------------------------------------------------------------------------
// ScopedTimer
// ---------------------------------------------------------------------------

/// Stopwatch on the telemetry clock, optionally bound to a latency
/// histogram. This is the one sanctioned way to time anything outside
/// src/obs/ (see clock.h): benches and library stages construct one, read
/// Seconds() for reporting, and — when a metric name is given and metrics
/// are on — the elapsed time is recorded into
/// `<name>{labels}` (LatencyBounds) exactly once, at Stop() or destruction.
class ScopedTimer {
 public:
  /// Plain stopwatch; records nothing.
  ScopedTimer() : start_(Now()) {}
  /// Records into histogram `name` on destruction/Stop when metrics are on.
  explicit ScopedTimer(const char* name, std::string labels = "")
      : start_(Now()), name_(name), labels_(std::move(labels)) {}
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds since construction (keeps ticking until Stop()).
  double Seconds() const { return SecondsBetween(start_, Now()); }

  /// Records (once) and detaches; returns the elapsed seconds.
  double Stop();

 private:
  Clock::time_point start_;
  const char* name_ = nullptr;
  std::string labels_;
  bool stopped_ = false;
};

namespace internal {
/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(std::string_view s);
}  // namespace internal

}  // namespace qfcard::obs

#endif  // QFCARD_OBS_METRICS_H_
