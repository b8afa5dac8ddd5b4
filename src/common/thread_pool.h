#ifndef QFCARD_COMMON_THREAD_POOL_H_
#define QFCARD_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace qfcard::common {

/// Non-owning reference to a callable: one context pointer plus one plain
/// function pointer. ParallelFor takes its body as FunctionRef instead of
/// const std::function& so the hot claim loop pays a single indirect call
/// per index with the target and context held in registers — std::function
/// adds a second indirection (type-erased dispatch through the heap- or
/// SBO-stored wrapper) that the per-index loop would re-load every
/// iteration, which clang-tidy's performance-* checks flag as churn.
///
/// The referenced callable must outlive every call. ParallelFor blocks until
/// the loop finishes, so passing a temporary lambda at the call site is safe.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  constexpr FunctionRef() = default;

  /// Implicit by design: call sites pass lambdas (or any callable, including
  /// std::function) directly.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  explicit operator bool() const { return call_ != nullptr; }

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

/// Fixed-size worker pool driving order-preserving parallel loops. This is
/// the substrate of the batch-first estimation API: every batch entry point
/// (Featurizer::FeaturizeBatch, CardinalityEstimator::EstimateBatch,
/// workload labeling, grid search) funnels its per-item work through
/// ParallelFor.
///
/// Determinism contract: ParallelFor(n, fn) calls fn exactly once for every
/// index in [0, n). Callers produce results by writing to slot i only, so
/// the output is byte-identical for any pool size — a pool of 1 (the
/// QFCARD_THREADS serial fallback) and a pool of 16 see the same indices and
/// write the same slots. fn must therefore be safe to call concurrently for
/// distinct indices and must not depend on cross-index execution order.
///
/// A pool of size 1 spawns no worker threads and runs loops inline. Nested
/// or concurrent ParallelFor calls on one pool are safe: whoever arrives
/// while a job is active runs its loop inline (serially) instead of
/// deadlocking on the shared workers.
///
/// Hot-path shape (kept deliberately, see docs/static_analysis.md): workers
/// claim *chunks* of indices with one relaxed fetch_add per chunk instead of
/// one per index, and the loop body is a FunctionRef copied into a local, so
/// inside a chunk each iteration is a single indirect call with the target
/// and context loop-invariant. Chunking changes which thread runs an index,
/// never whether it runs — the determinism contract is by slot, not by
/// schedule.
///
/// Telemetry (docs/observability.md): when QFCARD_METRICS is on, every
/// ParallelFor updates threadpool.* counters (calls, indices, chunk claims)
/// and histograms (queue_wait_seconds: publish-to-worker-wake latency;
/// task_run_seconds: per-thread time inside the claim loop). When metrics
/// are off the added cost is one relaxed atomic load per call.
///
/// Tracing (docs/observability.md): ParallelFor stores the caller's
/// obs::CurrentTraceContext() in the job, and every thread running the job
/// installs it around its claim loop (obs::ScopedTraceContext), so spans a
/// task opens on a worker parent under the submitting span instead of
/// starting stray per-worker roots. The scope restores the thread's prior
/// chain unconditionally — a task that leaks an unclosed span cannot corrupt
/// attribution for later tasks on that worker.
///
/// The pool sits in the `pool` layer, one above obs/ (tools/layers.json),
/// so it records its series and trace handoff directly.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads`-way parallelism (clamped to >= 1).
  /// The calling thread participates in every loop, so `num_threads - 1`
  /// workers are spawned.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, n), blocking until all calls finish.
  /// Indices are claimed dynamically for load balance; order preservation is
  /// by slot, per the determinism contract above. If any call throws, every
  /// index still runs and the exception of the smallest failing index is
  /// rethrown (deterministic regardless of pool size).
  void ParallelFor(int64_t n, FunctionRef<void(int64_t)> fn)
      QFCARD_EXCLUDES(mu_, err_mu_);

  /// As ParallelFor for Status-returning bodies: runs every index and
  /// returns the non-OK Status with the smallest index, or OK. Equivalent to
  /// the serial loop's first error, independent of pool size.
  Status ParallelForStatus(int64_t n, FunctionRef<Status(int64_t)> fn)
      QFCARD_EXCLUDES(mu_, err_mu_);

 private:
  void WorkerLoop() QFCARD_EXCLUDES(mu_, err_mu_);
  // Claims chunks of the active job until exhausted.
  void RunJob() QFCARD_EXCLUDES(mu_, err_mu_);

  const int num_threads_;
  // Written only by the constructor (before any worker can observe it) and
  // joined by the destructor after shutdown_ is set; no lock is ever held
  // around it.
  // qfcard-lint: ok(guarded-by): immutable between ctor and dtor; workers never touch it
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  bool shutdown_ QFCARD_GUARDED_BY(mu_) = false;
  // Bumped per ParallelFor; wakes workers.
  uint64_t job_id_ QFCARD_GUARDED_BY(mu_) = 0;
  int64_t job_n_ QFCARD_GUARDED_BY(mu_) = 0;
  FunctionRef<void(int64_t)> job_fn_ QFCARD_GUARDED_BY(mu_);
  // When the current job was published; workers subtract this from their
  // wake time to measure queue wait. The clock's epoch when metrics were
  // off at publish time.
  obs::Clock::time_point job_publish_ QFCARD_GUARDED_BY(mu_);
  // Trace context of the thread that published the current job; installed
  // on every thread running it.
  obs::TraceContext job_trace_ QFCARD_GUARDED_BY(mu_);
  // Workers still inside the current job.
  int workers_active_ QFCARD_GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> next_index_{0};
  std::atomic<bool> busy_{false};  // a job is in flight (nesting guard)

  Mutex err_mu_;
  int64_t err_index_ QFCARD_GUARDED_BY(err_mu_) = -1;
  std::exception_ptr err_ QFCARD_GUARDED_BY(err_mu_);
};

/// Parallelism selected by the QFCARD_THREADS environment variable; unset,
/// empty, or values < 1 fall back to 1 (fully serial).
int ThreadPoolSizeFromEnv();

/// The process-wide pool used by all batch APIs, built on first use with
/// ThreadPoolSizeFromEnv().
ThreadPool& GlobalPool();

/// Replaces the global pool with one of `n` threads. Test/bench hook for
/// comparing thread counts in one process; must not be called while a
/// ParallelFor is in flight.
void SetGlobalThreads(int n);

}  // namespace qfcard::common

#endif  // QFCARD_COMMON_THREAD_POOL_H_
