#ifndef QFCARD_OBS_QERROR_MONITOR_H_
#define QFCARD_OBS_QERROR_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/ring.h"
#include "common/thread_annotations.h"

namespace qfcard::obs {

/// Knobs for QErrorDriftMonitor. Defaults follow the drift experiment
/// (Fig. 5 / bench_fig5_query_drift): a learned estimator whose rolling p95
/// q-error exceeds 10 on in-distribution-sized windows has left its training
/// distribution and needs retraining.
struct DriftMonitorOptions {
  size_t window = 256;        ///< labeled q-errors kept in the rolling window
  double p95_threshold = 10.0;///< degradation flips when window p95 crosses
  size_t min_samples = 30;    ///< no verdict before this many observations
};

/// Always-on runtime drift detector: maintains a rolling window of
/// labeled-query q-errors (queries where the true cardinality became known —
/// feedback from executed plans, eval harness truths, CLI truth checks) and
/// flips a degradation flag while the window's p95 exceeds the threshold.
/// This is the paper's Figure 5 observation operationalized: means hide
/// drift, the p95 tail does not. Thread-safe; Observe is mutex-guarded and
/// O(window log window), intended for labeled feedback (rare) not the
/// estimation hot path.
class QErrorDriftMonitor {
 public:
  /// Shared process-wide monitor, configured from the environment on first
  /// use: QFCARD_DRIFT_WINDOW, QFCARD_DRIFT_P95 (x1000, integer env),
  /// QFCARD_DRIFT_MIN_SAMPLES. Exported in every telemetry snapshot.
  static QErrorDriftMonitor& Global();

  explicit QErrorDriftMonitor(DriftMonitorOptions options = {});
  QErrorDriftMonitor(const QErrorDriftMonitor&) = delete;
  QErrorDriftMonitor& operator=(const QErrorDriftMonitor&) = delete;

  /// Feeds one labeled q-error (>= 1) and re-evaluates the window p95.
  void Observe(double qerror);

  /// Point-in-time state of the monitor.
  struct State {
    uint64_t observed = 0;     ///< total q-errors ever fed
    size_t window_fill = 0;    ///< q-errors currently in the window
    size_t window_size = 0;    ///< configured window capacity
    double p50 = 0.0;          ///< window median
    double p95 = 0.0;          ///< window p95 (the alert statistic)
    double max_qerror = 0.0;   ///< largest q-error ever fed
    double threshold = 0.0;
    bool degraded = false;     ///< p95 > threshold (with >= min_samples)
    uint64_t flips = 0;        ///< healthy->degraded transitions so far
  };
  State GetState() const;

  bool degraded() const;

  /// JSON object for the telemetry snapshot (docs/observability.md).
  std::string ToJson() const;

  /// Clears the window, counters, and the flag. Reconfigures when `options`
  /// is non-null.
  void Reset(const DriftMonitorOptions* options = nullptr);

  /// Called on every healthy->degraded flip with the state that triggered
  /// it, from the Observe thread. Listeners must be fast and must not call
  /// back into this monitor (the listener lock is held during the call);
  /// hand heavy work off to another thread (adapt::Retrainer does).
  using FlipListener = std::function<void(const State&)>;

  /// Registers a flip listener; returns an id for RemoveFlipListener.
  uint64_t AddFlipListener(FlipListener listener);

  /// Unregisters a listener. Blocks until any in-flight invocation of it has
  /// returned, so the listener's captures can be destroyed safely afterward.
  void RemoveFlipListener(uint64_t id);

 private:
  mutable common::Mutex mu_;
  DriftMonitorOptions opts_ QFCARD_GUARDED_BY(mu_);
  common::Ring<double> window_ QFCARD_GUARDED_BY(mu_);
  double max_qerror_ QFCARD_GUARDED_BY(mu_) = 0.0;
  bool degraded_ QFCARD_GUARDED_BY(mu_) = false;
  uint64_t flips_ QFCARD_GUARDED_BY(mu_) = 0;

  void RecomputeLocked() QFCARD_REQUIRES(mu_);
  double p50_ QFCARD_GUARDED_BY(mu_) = 0.0;
  double p95_ QFCARD_GUARDED_BY(mu_) = 0.0;

  // Listener registry under its own lock so registration never contends
  // with the window math, and so RemoveFlipListener can block on in-flight
  // callbacks without holding mu_. Lock order: mu_ is never held while
  // listeners_mu_ is taken with callbacks running (Observe releases mu_
  // before notifying).
  mutable common::Mutex listeners_mu_;
  std::vector<std::pair<uint64_t, FlipListener>> listeners_
      QFCARD_GUARDED_BY(listeners_mu_);
  uint64_t next_listener_id_ QFCARD_GUARDED_BY(listeners_mu_) = 1;
};

}  // namespace qfcard::obs

#endif  // QFCARD_OBS_QERROR_MONITOR_H_
