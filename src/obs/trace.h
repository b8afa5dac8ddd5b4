#ifndef QFCARD_OBS_TRACE_H_
#define QFCARD_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/ring.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"

namespace qfcard::obs {

// ---------------------------------------------------------------------------
// Runtime toggle (mirrors QFCARD_METRICS; see metrics.h)
// ---------------------------------------------------------------------------

namespace internal {
extern std::atomic<int> g_trace_mode;  // -1 unresolved, 0 off, 1 on
bool ResolveTraceMode();
}  // namespace internal

/// Whether span recording is on: the QFCARD_TRACE environment variable
/// (default off), overridable via SetTraceEnabled. One relaxed load once
/// resolved, so TraceSpan construction is ~free when tracing is off.
inline bool TraceEnabled() {
  const int mode = internal::g_trace_mode.load(std::memory_order_relaxed);
  if (mode >= 0) return mode != 0;
  return internal::ResolveTraceMode();
}

/// Programmatic override of QFCARD_TRACE (qfcard_cli --trace-out, tests).
void SetTraceEnabled(bool enabled);

// ---------------------------------------------------------------------------
// Request-scoped trace context
// ---------------------------------------------------------------------------

/// Explicit trace identity for crossing thread boundaries (docs/
/// observability.md, "Context propagation"). A request's life starts on the
/// client thread (serve.submit), waits in a queue, and finishes inside a
/// worker's micro-batch — the per-thread parent chain cannot follow it, so
/// the submit span mints a TraceContext, the queue entry carries it, and
/// TraceSpan(name, ctx) re-attaches on the worker. trace_id is the id of the
/// trace's root span (the span that started the trace), so a link to a
/// trace is also an edge to a concrete span.
struct TraceContext {
  uint64_t trace_id = 0;       ///< root span id of the request's trace
  uint64_t parent_span_id = 0; ///< span to parent under (0 = root)

  bool valid() const { return trace_id != 0; }
};

/// The calling thread's current context: the innermost open span and its
/// trace. {0, 0} when tracing is off or no span is open. This is what
/// ThreadPool captures at ParallelFor submission and re-installs on its
/// workers (ScopedTraceContext).
TraceContext CurrentTraceContext();

/// Runs the calling thread under `ctx` for the scope's lifetime: spans
/// opened meanwhile parent under ctx.parent_span_id and join ctx.trace_id.
/// The destructor restores the thread's previous chain unconditionally, so
/// a span left open inside the scope cannot leak out of it. ThreadPool
/// wraps every claim loop in one to carry the submitter's context to its
/// workers.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// Dense id of the calling thread (assigned on first use, starting at 0 for
/// the first thread that records). Exported as the tid lane in the
/// trace-event dump; NOT stable across runs (threads wake in OS order).
uint32_t CurrentThreadIndex();

// ---------------------------------------------------------------------------
// Span records and the bounded ring buffer
// ---------------------------------------------------------------------------

/// One finished span. `start_s` is relative to the buffer's epoch (process
/// start or the last Reset), so dumps from one run line up on a common
/// timeline.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  ///< 0 = root span
  uint64_t trace_id = 0;   ///< request trace this span belongs to (0 = none)
  uint64_t route = 0;      ///< serving route (fss) if known; pid lane in exports
  uint32_t thread_index = 0;  ///< recording thread; tid lane in exports
  bool error = false;      ///< the spanned operation failed
  std::string name;
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Follow-from links: trace ids whose work this span performed on their
  /// behalf (a micro-batch span links every member request's trace).
  std::vector<uint64_t> links;
};

/// Tail-sampling keep-policy for the ring (docs/observability.md): when
/// enabled, a trace whose ROOT span closed slower than the latency threshold
/// (or closed with the error flag) is marked "kept", and spans of kept
/// traces are moved into a bounded side store instead of being destroyed
/// when the ring overwrites them — the bounded ring stops evicting exactly
/// the spans a tail-latency investigation needs.
struct TailSamplingOptions {
  bool enabled = false;
  /// Root spans at least this slow mark their trace kept.
  double latency_threshold_seconds = 0.010;
  /// Bound on the side store (spans). Beyond it, evicted spans of kept
  /// traces are counted in TailDroppedSpans() and destroyed.
  size_t retained_capacity = 16384;
  /// Bound on remembered kept-trace ids (oldest forgotten first).
  size_t max_kept_traces = 4096;
};

/// Bounded ring of finished spans: constant memory no matter how long the
/// process runs, overwriting the oldest record when full (the newest spans
/// are the ones a drift alert investigation needs). Span ids are assigned
/// from a monotonically increasing sequence starting at 1, so with a
/// deterministic workload (serial pool, fixed seed) ids are stable across
/// runs — reproducers can reference "span 17" meaningfully.
class TraceBuffer {
 public:
  static TraceBuffer& Global();

  explicit TraceBuffer(size_t capacity = kDefaultCapacity);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Next span id (also bumps the sequence).
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span that started at `start`; its start_s is set
  /// relative to the epoch under the same lock hold that appends it, so a
  /// span closing concurrently with a Reset() never reads a torn epoch.
  void Record(SpanRecord span, Clock::time_point start);

  /// Finished spans: tail-sampling retainees first (they are the oldest),
  /// then the ring oldest first.
  std::vector<SpanRecord> Snapshot() const;

  /// Spans evicted and destroyed so far (does not count retainees).
  uint64_t Dropped() const;
  uint64_t Recorded() const;
  size_t capacity() const;

  /// Installs/replaces the tail-sampling keep-policy. Keep decisions apply
  /// to roots recorded after the call; the side store survives until the
  /// next Reset.
  void SetTailSampling(const TailSamplingOptions& options);
  TailSamplingOptions tail_sampling() const;
  /// Traces marked kept so far.
  uint64_t TailSampledTraces() const;
  /// Spans of kept traces lost because the side store was full.
  uint64_t TailDroppedSpans() const;
  /// Spans currently in the side store.
  size_t RetainedSpans() const;

  /// Clears the ring, restarts the id sequence at 1, and re-anchors the
  /// epoch. With the same workload afterwards, span ids and nesting repeat
  /// exactly (tests/trace_test.cc pins this). The tail-sampling policy
  /// persists; its side store and counters clear.
  void Reset();

  /// Reset + resize (test hook for exercising overflow cheaply).
  void ResetWithCapacity(size_t capacity);

 private:
  static constexpr size_t kDefaultCapacity = 4096;

  /// True when `trace_id` was marked kept by the tail-sampling policy.
  bool IsKept(uint64_t trace_id) const QFCARD_REQUIRES(mu_);
  /// Marks `trace_id` kept (bounded; forgets the oldest beyond the cap).
  void KeepTrace(uint64_t trace_id) QFCARD_REQUIRES(mu_);

  mutable common::Mutex mu_;
  /// pushed() is the recorded-span count.
  common::Ring<SpanRecord> ring_ QFCARD_GUARDED_BY(mu_);
  std::atomic<uint64_t> next_id_{1};
  Clock::time_point epoch_ QFCARD_GUARDED_BY(mu_);

  TailSamplingOptions tail_ QFCARD_GUARDED_BY(mu_);
  std::vector<SpanRecord> retained_ QFCARD_GUARDED_BY(mu_);
  std::set<uint64_t> kept_traces_ QFCARD_GUARDED_BY(mu_);
  std::deque<uint64_t> kept_order_ QFCARD_GUARDED_BY(mu_);
  uint64_t tail_sampled_ QFCARD_GUARDED_BY(mu_) = 0;
  uint64_t tail_dropped_ QFCARD_GUARDED_BY(mu_) = 0;
};

/// RAII trace span: records one SpanRecord into TraceBuffer::Global() on
/// destruction when tracing is enabled, and maintains the per-thread parent
/// chain so nested spans (estimate.batch > featurize.batch) link up. `name`
/// must be a string literal (stored by pointer until the span closes).
///
/// The two-argument constructor re-attaches a cross-thread context instead
/// of the thread-local chain: the span parents under ctx.parent_span_id and
/// joins ctx.trace_id, and spans opened on this thread while it is alive
/// nest under it as usual — this is how a worker's micro-batch execution
/// lands in the client request's trace (docs/observability.md).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  TraceSpan(const char* name, const TraceContext& ctx);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// This span's id; 0 when tracing is off.
  uint64_t id() const { return id_; }

  /// Context for handing this span's subtree to another thread:
  /// {trace_id, this span}. Invalid (all zero) when tracing is off.
  TraceContext context() const { return TraceContext{trace_id_, id_}; }

  /// Follow-from annotation: this span performed work on behalf of
  /// `trace_id` (a micro-batch serving many requests links each one).
  void AddLink(uint64_t trace_id);

  /// Marks the spanned operation failed; tail sampling keeps errored roots.
  void MarkError();

  /// Serving route (fss) this span worked for; the pid lane in exports.
  void SetRoute(uint64_t route);

  /// Closes the span now (records it and pops the parent chain); the
  /// destructor then does nothing. Idempotent. Lets a long-lived span (e.g.
  /// cli.main) land in a trace dump written before scope exit.
  void End();

 private:
  void Open(const char* name, uint64_t parent, uint64_t trace);

  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t route_ = 0;
  /// Thread-local chain state to restore at End(), captured at open. For a
  /// plain nested span prev_span_ == parent_id_; for a re-attached span
  /// they differ (the parent lives on another thread).
  uint64_t prev_span_ = 0;
  uint64_t prev_trace_ = 0;
  uint32_t owner_thread_ = 0;
  Clock::time_point start_;
  bool active_ = false;
  bool error_ = false;
  std::vector<uint64_t> links_;
};

/// Records one already-measured span directly (no RAII): parented under
/// `ctx`, spanning [start, end]. Used where the duration is known only
/// after the fact — e.g. the server records each request's queue wait when
/// its micro-batch flushes. Returns the span id (0 when tracing is off).
/// `name` must be a string literal.
uint64_t RecordSpan(const char* name, const TraceContext& ctx,
                    Clock::time_point start, Clock::time_point end,
                    uint64_t route = 0);

/// Records a trace's ROOT span with a previously minted id (MintTraceId):
/// id = trace_id, parent 0, spanning [start, end]. The estimation server
/// mints a request's trace id at admission and records this root when the
/// request completes, so the root's duration is the request's full latency —
/// exactly what the tail-sampling keep-policy evaluates. No-op when tracing
/// is off or trace_id is 0. `name` must be a string literal.
void RecordTraceRoot(const char* name, uint64_t trace_id,
                     Clock::time_point start, Clock::time_point end,
                     uint64_t route, bool error);

/// Reserves a fresh trace id (the future root span's id) without recording
/// anything yet; 0 when tracing is off. Children attach meanwhile via
/// TraceContext{id, id}; RecordTraceRoot closes the trace out.
uint64_t MintTraceId();

// ---------------------------------------------------------------------------
// Stage capture (per-request latency attribution)
// ---------------------------------------------------------------------------

/// Pipeline stages an estimator reports for latency attribution.
enum class Stage { kFeaturize = 0, kPredict = 1 };

/// Thread-local scoped accumulator for stage seconds: the estimation server
/// installs one around a micro-batch execution, estimator backends call
/// Report() from their stage blocks, and the server reads the split back to
/// stamp EstimateResponse::stages. Captures nest per thread (innermost
/// wins); Report() with no capture active is a no-op, so backends pay one
/// thread-local load when nobody is attributing.
class StageCapture {
 public:
  StageCapture();
  ~StageCapture();

  StageCapture(const StageCapture&) = delete;
  StageCapture& operator=(const StageCapture&) = delete;

  double seconds(Stage stage) const {
    return seconds_[static_cast<int>(stage)];
  }

  /// Adds `seconds` to `stage` of the innermost capture on this thread.
  static void Report(Stage stage, double seconds);

 private:
  StageCapture* prev_;
  double seconds_[2] = {0.0, 0.0};
};

/// Writes the buffer as Chrome trace-event JSON (the format Perfetto and
/// chrome://tracing load): one "X" complete event per span with pid = a
/// dense id per serving route, tid = recording thread, plus process_name
/// metadata naming each route and "s"/"f" flow events for follow-from
/// links. tools/analyze_trace.py validates the structure in CI; false on
/// I/O failure.
bool WriteTraceEventJson(const std::string& path);

}  // namespace qfcard::obs

#endif  // QFCARD_OBS_TRACE_H_
