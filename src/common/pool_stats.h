#ifndef QFCARD_COMMON_POOL_STATS_H_
#define QFCARD_COMMON_POOL_STATS_H_

#include <cstdint>

namespace qfcard::common {

/// Telemetry callback interface for ThreadPool. common/ sits at the bottom
/// of the layer stack (tools/layers.json) and must not include obs/, so the
/// pool reports its stats through this sink instead of touching
/// obs::MetricsRegistry directly; obs/pool_metrics.cc holds the one real
/// implementation, installed the first time the metrics mode is set or
/// resolved, and forwards into the threadpool.* series
/// (docs/observability.md). Binaries that never link obs/ simply run with
/// no sink and the pool skips all bookkeeping.
///
/// Implementations must be safe to call concurrently from every pool worker
/// and must not call back into ThreadPool (the pool may hold its own lock
/// around NowSeconds when timing a job publish).
class PoolStatsSink {
 public:
  virtual ~PoolStatsSink() = default;

  /// Cheap dynamic toggle, checked once per ParallelFor / worker wake. When
  /// false the pool skips the remaining callbacks (and their clock reads).
  virtual bool Enabled() const = 0;

  /// Monotonic seconds from an arbitrary fixed epoch; only differences are
  /// meaningful. Used to time job publish -> worker wake and task runs.
  virtual double NowSeconds() const = 0;

  /// One ParallelFor call dispatching `indices` indices on a pool of
  /// `pool_size` threads.
  virtual void OnParallelFor(int64_t indices, int pool_size) = 0;

  /// A ParallelFor that ran inline on the caller (serial pool, trivial
  /// loop, or nested call while a job was in flight).
  virtual void OnInlineRun() = 0;

  /// One thread finished its claim loop for a job: `chunks` index chunks
  /// claimed over `run_seconds` of wall time inside the loop.
  virtual void OnJobRun(uint64_t chunks, double run_seconds) = 0;

  /// Queue wait measured by a worker: job publish to condvar wake.
  virtual void OnQueueWait(double wait_seconds) = 0;
};

/// Installs the process-wide sink (not owned; pass nullptr to uninstall).
/// The sink must outlive every ThreadPool call made after installation.
void SetPoolStatsSink(PoolStatsSink* sink);

/// The installed sink, or nullptr. Lock-free (one relaxed atomic load).
PoolStatsSink* GetPoolStatsSink();

/// Opaque trace identity a ThreadPool job carries from the submitting
/// thread to the workers that run it. common/ cannot see obs::TraceContext
/// (layering, tools/layers.json), so the pool treats the pair as two plain
/// integers; obs/trace.cc gives them meaning.
struct PoolTraceToken {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// Trace-context handoff interface for ThreadPool, the same dependency
/// inversion as PoolStatsSink above: obs/trace.cc installs the one real
/// implementation at static-initialization time. The pool captures the
/// caller's token once per ParallelFor and brackets every per-thread claim
/// loop with Adopt/Release, so spans a task opens on a worker parent under
/// the submitting span — and a task that leaks an unclosed span cannot
/// corrupt attribution for later tasks, because Release restores the
/// worker's pre-task chain unconditionally.
///
/// Adopt/Release are strictly nested per thread (a nested ParallelFor runs
/// inline on the worker and brackets again). Implementations must be safe
/// to call concurrently from every pool worker.
class PoolTraceBridge {
 public:
  virtual ~PoolTraceBridge() = default;

  /// Cheap dynamic toggle; when false the pool skips Capture/Adopt/Release.
  virtual bool Enabled() const = 0;

  /// The calling thread's current trace context.
  virtual PoolTraceToken Capture() const = 0;

  /// Saves this thread's context and installs `token`.
  virtual void Adopt(const PoolTraceToken& token) = 0;

  /// Restores the context saved by the matching Adopt.
  virtual void Release() = 0;
};

/// Installs the process-wide bridge (not owned; pass nullptr to uninstall).
void SetPoolTraceBridge(PoolTraceBridge* bridge);

/// The installed bridge, or nullptr. Lock-free (one acquire atomic load).
PoolTraceBridge* GetPoolTraceBridge();

}  // namespace qfcard::common

#endif  // QFCARD_COMMON_POOL_STATS_H_
