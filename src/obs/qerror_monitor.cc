#include "obs/qerror_monitor.h"

#include <algorithm>
#include <sstream>

#include "common/env.h"
#include "common/stats.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace qfcard::obs {

QErrorDriftMonitor& QErrorDriftMonitor::Global() {
  static QErrorDriftMonitor* monitor = [] {
    DriftMonitorOptions opts;
    opts.window = static_cast<size_t>(std::max<int64_t>(
        1, common::GetEnvInt("QFCARD_DRIFT_WINDOW",
                             static_cast<int64_t>(opts.window))));
    // Integer env knob: threshold in thousandths (10.0 -> 10000).
    opts.p95_threshold =
        static_cast<double>(common::GetEnvInt(
            "QFCARD_DRIFT_P95",
            static_cast<int64_t>(opts.p95_threshold * 1000.0))) /
        1000.0;
    opts.min_samples = static_cast<size_t>(std::max<int64_t>(
        1, common::GetEnvInt("QFCARD_DRIFT_MIN_SAMPLES",
                             static_cast<int64_t>(opts.min_samples))));
    return new QErrorDriftMonitor(opts);  // leaked: outlives static dtors
  }();
  return *monitor;
}

QErrorDriftMonitor::QErrorDriftMonitor(DriftMonitorOptions options)
    : opts_(options), window_(options.window) {}

void QErrorDriftMonitor::Observe(double qerror) {
  bool flipped = false;
  State flip_state;
  {
    common::MutexLock lock(&mu_);
    max_qerror_ = std::max(max_qerror_, qerror);
    window_.Push(qerror);
    RecomputeLocked();
    const bool now_degraded =
        window_.size() >= opts_.min_samples && p95_ > opts_.p95_threshold;
    if (now_degraded && !degraded_) {
      ++flips_;
      flipped = true;
      flip_state.observed = window_.pushed();
      flip_state.window_fill = window_.size();
      flip_state.window_size = window_.capacity();
      flip_state.p50 = p50_;
      flip_state.p95 = p95_;
      flip_state.max_qerror = max_qerror_;
      flip_state.threshold = opts_.p95_threshold;
      flip_state.degraded = true;
      flip_state.flips = flips_;
    }
    degraded_ = now_degraded;
  }
  // Counters outside the monitor lock (registry takes its own).
  IncrementCounter("drift.observed");
  if (flipped) {
    IncrementCounter("drift.flips");
    // Listeners run under listeners_mu_ only (mu_ already released), so a
    // listener may read GetState(); it must not Add/RemoveFlipListener.
    common::MutexLock lock(&listeners_mu_);
    for (const auto& [id, listener] : listeners_) listener(flip_state);
  }
}

uint64_t QErrorDriftMonitor::AddFlipListener(FlipListener listener) {
  common::MutexLock lock(&listeners_mu_);
  const uint64_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void QErrorDriftMonitor::RemoveFlipListener(uint64_t id) {
  // Taking listeners_mu_ blocks until any in-flight Observe notification has
  // finished with the listener, making removal a safe destruction point.
  common::MutexLock lock(&listeners_mu_);
  for (size_t i = 0; i < listeners_.size(); ++i) {
    if (listeners_[i].first == id) {
      listeners_.erase(listeners_.begin() + static_cast<long>(i));
      return;
    }
  }
}

void QErrorDriftMonitor::RecomputeLocked() {
  // Exact window quantiles by sorting a copy: the window is small (hundreds)
  // and Observe runs on labeled feedback, not the estimation hot path.
  const std::vector<double> q =
      common::Quantiles(window_.Snapshot(), {0.50, 0.95});
  p50_ = q[0];
  p95_ = q[1];
}

QErrorDriftMonitor::State QErrorDriftMonitor::GetState() const {
  common::MutexLock lock(&mu_);
  State s;
  s.observed = window_.pushed();
  s.window_fill = window_.size();
  s.window_size = window_.capacity();
  s.p50 = p50_;
  s.p95 = p95_;
  s.max_qerror = max_qerror_;
  s.threshold = opts_.p95_threshold;
  s.degraded = degraded_;
  s.flips = flips_;
  return s;
}

bool QErrorDriftMonitor::degraded() const {
  common::MutexLock lock(&mu_);
  return degraded_;
}

std::string QErrorDriftMonitor::ToJson() const {
  const State s = GetState();
  std::ostringstream out;
  out << "{\"observed\":" << s.observed
      << ",\"window_fill\":" << s.window_fill
      << ",\"window_size\":" << s.window_size << ",\"p50\":"
      << common::StrFormat("%.9g", s.p50) << ",\"p95\":"
      << common::StrFormat("%.9g", s.p95) << ",\"max_qerror\":"
      << common::StrFormat("%.9g", s.max_qerror) << ",\"threshold\":"
      << common::StrFormat("%.9g", s.threshold) << ",\"degraded\":"
      << (s.degraded ? "true" : "false") << ",\"flips\":" << s.flips << "}";
  return out.str();
}

void QErrorDriftMonitor::Reset(const DriftMonitorOptions* options) {
  common::MutexLock lock(&mu_);
  if (options != nullptr) opts_ = *options;
  window_.Reset(opts_.window);
  max_qerror_ = 0.0;
  degraded_ = false;
  flips_ = 0;
  p50_ = 0.0;
  p95_ = 0.0;
}

}  // namespace qfcard::obs
