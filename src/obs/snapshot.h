#ifndef QFCARD_OBS_SNAPSHOT_H_
#define QFCARD_OBS_SNAPSHOT_H_

#include <string>

namespace qfcard::obs {

/// One JSON document capturing the full telemetry state: the metrics
/// registry (counters/gauges/histograms) and trace-buffer occupancy. This is
/// what `qfcard_cli --metrics-out` writes and what
/// tools/validate_metrics.py checks against tools/metrics_schema.json in CI.
/// Shape documented in docs/observability.md; the Prometheus text form of
/// the same registry is MetricsRegistry::Global().ToPrometheus().
std::string SnapshotJson();

/// Writes SnapshotJson() to `path`; false on I/O failure.
bool WriteSnapshotJson(const std::string& path);

}  // namespace qfcard::obs

#endif  // QFCARD_OBS_SNAPSHOT_H_
