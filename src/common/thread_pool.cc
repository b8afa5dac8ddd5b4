#include "common/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/env.h"
#include "common/pool_stats.h"

namespace qfcard::common {

namespace {

// Indices claimed per fetch_add. Small enough that the tail of a skewed
// loop still load-balances (>= 8 claims per thread), large enough that the
// atomic stops dominating trivial bodies. Chunking only moves indices
// between threads; every index still runs exactly once.
int64_t ChunkSize(int64_t n, int num_threads) {
  const int64_t target = n / (8 * static_cast<int64_t>(num_threads));
  return std::clamp<int64_t>(target, 1, 256);
}

// The telemetry sink, if any. obs/pool_metrics.cc installs one that forwards
// into the threadpool.* series; common/ itself never sees obs/ (layering,
// tools/layers.json). Returns nullptr when disabled so call sites pay one
// relaxed load + one virtual call per ParallelFor when metrics are off.
PoolStatsSink* ActiveSink() {
  PoolStatsSink* sink = GetPoolStatsSink();
  return (sink != nullptr && sink->Enabled()) ? sink : nullptr;
}

// The trace-context bridge, if any. obs/trace.cc installs one so spans
// opened inside pool tasks join the submitting thread's trace; same
// layering inversion as the stats sink. Returns nullptr when tracing is
// off so the handoff costs one relaxed load + one virtual call.
PoolTraceBridge* ActiveBridge() {
  PoolTraceBridge* bridge = GetPoolTraceBridge();
  return (bridge != nullptr && bridge->Enabled()) ? bridge : nullptr;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int t = 0; t < num_threads_ - 1; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunJob() {
  FunctionRef<void(int64_t)> fn;
  int64_t n = 0;
  PoolTraceToken trace_token;
  {
    MutexLock lock(&mu_);
    fn = job_fn_;
    n = job_n_;
    trace_token = job_trace_;
  }
  if (!fn) return;
  // Task boundary: install the submitter's trace context for the duration
  // of this thread's claim loop, restoring the prior chain afterwards (the
  // Release half is what keeps a leaked span from poisoning later tasks).
  PoolTraceBridge* bridge = ActiveBridge();
  if (bridge != nullptr) bridge->Adopt(trace_token);
  PoolStatsSink* sink = ActiveSink();
  const double run_start = sink != nullptr ? sink->NowSeconds() : 0.0;
  uint64_t claimed_chunks = 0;
  const int64_t chunk = ChunkSize(n, num_threads_);
  for (;;) {
    const int64_t begin =
        next_index_.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= n) break;
    ++claimed_chunks;
    const int64_t end = std::min(begin + chunk, n);
    for (int64_t i = begin; i < end; ++i) {
      try {
        fn(i);
      } catch (...) {
        // Keep the exception of the smallest failing index; every index
        // still runs so the winner is deterministic regardless of pool size.
        MutexLock lock(&err_mu_);
        if (err_index_ < 0 || i < err_index_) {
          err_index_ = i;
          err_ = std::current_exception();
        }
      }
    }
  }
  if (bridge != nullptr) bridge->Release();
  if (sink != nullptr) {
    sink->OnJobRun(claimed_chunks, sink->NowSeconds() - run_start);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_job = 0;
  for (;;) {
    double publish = 0.0;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && job_id_ == seen_job) work_cv_.Wait(&mu_);
      if (shutdown_) return;
      seen_job = job_id_;
      publish = job_publish_;
    }
    if (publish != 0.0) {
      // Queue wait: ParallelFor publishing the job to this worker picking
      // it up (condvar wake + scheduling latency). publish is 0 when the
      // sink was off at publish time.
      PoolStatsSink* sink = ActiveSink();
      if (sink != nullptr) sink->OnQueueWait(sink->NowSeconds() - publish);
    }
    RunJob();
    {
      MutexLock lock(&mu_);
      if (--workers_active_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(int64_t n, FunctionRef<void(int64_t)> fn) {
  if (n <= 0) return;
  PoolStatsSink* sink = ActiveSink();
  if (sink != nullptr) sink->OnParallelFor(n, num_threads_);
  bool expected = false;
  const bool parallel =
      num_threads_ > 1 && n > 1 &&
      busy_.compare_exchange_strong(expected, true);
  if (!parallel) {
    if (sink != nullptr) sink->OnInlineRun();
    // Serial pool, trivial loop, or a job already in flight (nested call):
    // run inline on the calling thread. Every index runs even after a
    // throw, matching the parallel path, and the smallest failing index's
    // exception wins (here: the first one).
    std::exception_ptr first_err;
    for (int64_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_err) first_err = std::current_exception();
      }
    }
    if (first_err) std::rethrow_exception(first_err);
    return;
  }
  {
    MutexLock lock(&mu_);
    job_fn_ = fn;
    job_n_ = n;
    job_publish_ = sink != nullptr ? sink->NowSeconds() : 0.0;
    {
      PoolTraceBridge* bridge = ActiveBridge();
      job_trace_ = bridge != nullptr ? bridge->Capture() : PoolTraceToken{};
    }
    next_index_.store(0, std::memory_order_relaxed);
    {
      MutexLock err_lock(&err_mu_);
      err_index_ = -1;
      err_ = nullptr;
    }
    workers_active_ = static_cast<int>(workers_.size());
    ++job_id_;
  }
  work_cv_.NotifyAll();
  RunJob();
  {
    MutexLock lock(&mu_);
    while (workers_active_ != 0) done_cv_.Wait(&mu_);
    job_fn_ = FunctionRef<void(int64_t)>();
  }
  busy_.store(false);
  std::exception_ptr err;
  {
    MutexLock lock(&err_mu_);
    err = std::exchange(err_, nullptr);
    err_index_ = -1;
  }
  if (err) std::rethrow_exception(err);
}

Status ThreadPool::ParallelForStatus(int64_t n,
                                     FunctionRef<Status(int64_t)> fn) {
  Mutex mu;
  int64_t bad_index = -1;
  Status bad = Status::Ok();
  auto body = [&](int64_t i) {
    Status s = fn(i);
    if (s.ok()) return;
    MutexLock lock(&mu);
    if (bad_index < 0 || i < bad_index) {
      bad_index = i;
      bad = std::move(s);
    }
  };
  ParallelFor(n, body);
  return bad;
}

int ThreadPoolSizeFromEnv() {
  int64_t v = GetEnvInt("QFCARD_THREADS", 1);
  if (v < 1) v = 1;
  if (v > 1024) v = 1024;
  return static_cast<int>(v);
}

namespace {

Mutex global_pool_mu;

std::unique_ptr<ThreadPool>& GlobalPoolSlot() QFCARD_REQUIRES(global_pool_mu) {
  static std::unique_ptr<ThreadPool>* slot =
      new std::unique_ptr<ThreadPool>();  // leaked: outlives static dtors
  return *slot;
}

}  // namespace

ThreadPool& GlobalPool() {
  MutexLock lock(&global_pool_mu);
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(ThreadPoolSizeFromEnv());
  return *slot;
}

void SetGlobalThreads(int n) {
  MutexLock lock(&global_pool_mu);
  GlobalPoolSlot() = std::make_unique<ThreadPool>(n);
}

}  // namespace qfcard::common
