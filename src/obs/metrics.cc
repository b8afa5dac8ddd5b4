#include "obs/metrics.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/env.h"
#include "common/str_util.h"

namespace qfcard::obs {

namespace internal {

std::atomic<int> g_metrics_mode{-1};

bool ResolveMetricsMode() {
  const bool on = common::GetEnvInt("QFCARD_METRICS", 0) != 0;
  int expected = -1;
  g_metrics_mode.compare_exchange_strong(expected, on ? 1 : 0,
                                         std::memory_order_relaxed);
  // On a lost race another thread resolved (or SetMetricsEnabled won);
  // either way the stored mode is authoritative.
  return g_metrics_mode.load(std::memory_order_relaxed) != 0;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += common::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_mode.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

int Counter::ThisThreadShard() {
  static std::atomic<uint32_t> next_thread{0};
  thread_local const int shard = static_cast<int>(
      next_thread.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(kShards));
  return shard;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

// CAS loops instead of std::atomic<double>::fetch_add/fetch_max: portable
// across the GCC/Clang versions in CI and still lock-free.
void AtomicAddDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string FormatDouble(double v) { return common::StrFormat("%.9g", v); }

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, v);
  AtomicMaxDouble(max_, v);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const std::atomic<uint64_t>& b : buckets_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::Max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::Mean() const {
  const uint64_t n = Count();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out;
  out.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& b : buckets_) {
    out.push_back(b.load(std::memory_order_relaxed));
  }
  return out;
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  // No quantile exceeds the largest observation, although the winning
  // bucket's edge or interpolation point may.
  const double max = Max();
  double cum = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target) {
      if (i == counts.size() - 1) return max;  // overflow bucket
      // The first bucket has no lower edge: it reports its upper one.
      if (i == 0) return std::min(bounds_[0], max);
      const double lo = bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac =
          (target - cum) / static_cast<double>(counts[i]);
      return std::min(lo + std::clamp(frac, 0.0, 1.0) * (hi - lo), max);
    }
    cum = next;
  }
  return max;
}

const std::vector<double>& LatencyBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
      5e-4, 1e-3,   2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
      0.25, 0.5,    1.0,  2.5,  5.0,  10.0,  25.0, 50.0};
  return *bounds;
}

const std::vector<double>& QErrorBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      1.0, 1.05, 1.1, 1.2, 1.3,  1.5,  1.75, 2.0,  2.5,   3.0,   4.0,  5.0,
      7.0, 10.0, 15.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 5000.0, 2e4,
      1e5, 1e6};
  return *bounds;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked: outlives
  return *registry;                                          // static dtors
}

namespace {

std::string MetricKey(std::string_view name, std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

}  // namespace

Counter* MetricsRegistry::CounterNamed(std::string_view name,
                                       std::string_view labels) {
  const std::string key = MetricKey(name, labels);
  common::MutexLock lock(&mu_);
  std::unique_ptr<Named<Counter>>& slot = counters_[key];
  if (!slot) {
    slot = std::make_unique<Named<Counter>>(std::string(name),
                                            std::string(labels));
  }
  return &slot->metric;
}

Gauge* MetricsRegistry::GaugeNamed(std::string_view name,
                                   std::string_view labels) {
  const std::string key = MetricKey(name, labels);
  common::MutexLock lock(&mu_);
  std::unique_ptr<Named<Gauge>>& slot = gauges_[key];
  if (!slot) {
    slot = std::make_unique<Named<Gauge>>(std::string(name),
                                          std::string(labels));
  }
  return &slot->metric;
}

Histogram* MetricsRegistry::HistogramNamed(std::string_view name,
                                           const std::vector<double>& bounds,
                                           std::string_view labels) {
  const std::string key = MetricKey(name, labels);
  common::MutexLock lock(&mu_);
  std::unique_ptr<Named<Histogram>>& slot = histograms_[key];
  if (!slot) {
    slot = std::make_unique<Named<Histogram>>(std::string(name),
                                              std::string(labels), bounds);
  }
  return &slot->metric;
}

void MetricsRegistry::ResetForTest() {
  common::MutexLock lock(&mu_);
  for (auto& [key, entry] : counters_) entry->metric.Reset();
  for (auto& [key, entry] : gauges_) entry->metric.Reset();
  for (auto& [key, entry] : histograms_) entry->metric.Reset();
}

std::vector<MetricsRegistry::CounterRow> MetricsRegistry::CounterRows() const {
  common::MutexLock lock(&mu_);
  std::vector<CounterRow> out;
  out.reserve(counters_.size());
  for (const auto& [key, entry] : counters_) {
    out.push_back({entry->name, entry->labels, entry->metric.Value()});
  }
  return out;
}

std::vector<MetricsRegistry::HistogramRow> MetricsRegistry::HistogramRows()
    const {
  common::MutexLock lock(&mu_);
  std::vector<HistogramRow> out;
  out.reserve(histograms_.size());
  for (const auto& [key, entry] : histograms_) {
    const Histogram& h = entry->metric;
    out.push_back({entry->name, entry->labels, h.Count(), h.Mean(), h.P50(),
                   h.P95(), h.Max()});
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  using internal::JsonEscape;
  std::ostringstream out;
  common::MutexLock lock(&mu_);
  out << "{\"counters\":[";
  bool first = true;
  for (const auto& [key, entry] : counters_) {
    if (!std::exchange(first, false)) out << ",";
    out << "{\"name\":\"" << JsonEscape(entry->name) << "\",\"labels\":\""
        << JsonEscape(entry->labels) << "\",\"value\":" << entry->metric.Value()
        << "}";
  }
  out << "],\"gauges\":[";
  first = true;
  for (const auto& [key, entry] : gauges_) {
    if (!std::exchange(first, false)) out << ",";
    out << "{\"name\":\"" << JsonEscape(entry->name) << "\",\"labels\":\""
        << JsonEscape(entry->labels) << "\",\"value\":" << entry->metric.Value()
        << "}";
  }
  out << "],\"histograms\":[";
  first = true;
  for (const auto& [key, entry] : histograms_) {
    if (!std::exchange(first, false)) out << ",";
    const Histogram& h = entry->metric;
    const double p50 = h.P50();
    const double p90 = h.P90();
    const double p95 = h.P95();
    // Read after the quantiles: the max only grows, so a concurrent
    // Observe cannot leave a quantile above the exported max.
    const double max = h.Max();
    out << "{\"name\":\"" << JsonEscape(entry->name) << "\",\"labels\":\""
        << JsonEscape(entry->labels) << "\",\"count\":" << h.Count()
        << ",\"sum\":" << FormatDouble(h.Sum())
        << ",\"mean\":" << FormatDouble(h.Mean())
        << ",\"max\":" << FormatDouble(max)
        << ",\"p50\":" << FormatDouble(p50)
        << ",\"p90\":" << FormatDouble(p90)
        << ",\"p95\":" << FormatDouble(p95) << ",\"buckets\":[";
    const std::vector<uint64_t> counts = h.BucketCounts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"le\":";
      if (i < h.bounds().size()) {
        out << FormatDouble(h.bounds()[i]);
      } else {
        out << "\"+Inf\"";
      }
      out << ",\"count\":" << counts[i] << "}";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string PromName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

std::string PromLabels(std::string_view labels, std::string_view extra = "") {
  // Registry labels are "key=value[,key=value]"; Prometheus wants
  // key="value". Values here are metric-ish strings (backend names, QFT
  // labels) without embedded commas or quotes.
  std::string body;
  const auto append = [&body](std::string_view part) {
    for (const std::string& kv :
         common::Split(part, ',')) {
      if (kv.empty()) continue;
      if (!body.empty()) body += ',';
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        body += kv + "=\"\"";
      } else {
        body += kv.substr(0, eq) + "=\"" + kv.substr(eq + 1) + "\"";
      }
    }
  };
  append(labels);
  if (!extra.empty()) {
    if (!body.empty()) body += ',';
    body += extra;
  }
  if (body.empty()) return "";
  return "{" + body + "}";
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::ostringstream out;
  common::MutexLock lock(&mu_);
  for (const auto& [key, entry] : counters_) {
    const std::string name = PromName(entry->name);
    out << "# TYPE " << name << " counter\n"
        << name << PromLabels(entry->labels) << " " << entry->metric.Value()
        << "\n";
  }
  for (const auto& [key, entry] : gauges_) {
    const std::string name = PromName(entry->name);
    out << "# TYPE " << name << " gauge\n"
        << name << PromLabels(entry->labels) << " " << entry->metric.Value()
        << "\n";
  }
  for (const auto& [key, entry] : histograms_) {
    const Histogram& h = entry->metric;
    const std::string name = PromName(entry->name);
    out << "# TYPE " << name << " histogram\n";
    const std::vector<uint64_t> counts = h.BucketCounts();
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      cum += counts[i];
      const std::string le =
          i < h.bounds().size() ? FormatDouble(h.bounds()[i]) : "+Inf";
      out << name << "_bucket"
          << PromLabels(entry->labels, "le=\"" + le + "\"") << " " << cum
          << "\n";
    }
    out << name << "_sum" << PromLabels(entry->labels) << " "
        << FormatDouble(h.Sum()) << "\n"
        << name << "_count" << PromLabels(entry->labels) << " " << cum << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Convenience paths
// ---------------------------------------------------------------------------

void IncrementCounter(std::string_view name, std::string_view labels,
                      uint64_t n) {
  if (!MetricsEnabled()) return;
  MetricsRegistry::Global().CounterNamed(name, labels)->Add(n);
}

void ObserveLatency(std::string_view name, double seconds,
                    std::string_view labels) {
  if (!MetricsEnabled()) return;
  MetricsRegistry::Global()
      .HistogramNamed(name, LatencyBounds(), labels)
      ->Observe(seconds);
}

double ScopedTimer::Stop() {
  const double s = Seconds();
  if (!stopped_) {
    stopped_ = true;
    if (name_ != nullptr && MetricsEnabled()) {
      MetricsRegistry::Global()
          .HistogramNamed(name_, LatencyBounds(), labels_)
          ->Observe(s);
    }
  }
  return s;
}

}  // namespace qfcard::obs
