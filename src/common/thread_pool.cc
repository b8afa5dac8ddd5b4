#include "common/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/env.h"
#include "obs/metrics.h"

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

// threadpool.* series (docs/observability.md), resolved once so the hot
// path updates them lock-free. Every series is created on first use —
// including queue_wait_seconds, which a 1-thread pool never observes — so
// snapshots have the same shape at every thread count (the CI schema check
// runs at QFCARD_THREADS=1 and 4). Call only with metrics on.
struct PoolSeries {
  obs::Counter* calls;
  obs::Counter* inline_calls;
  obs::Counter* indices;
  obs::Counter* chunks;
  obs::Histogram* queue_wait;
  obs::Histogram* task_run;
  obs::Gauge* size;
};

const PoolSeries& Series() {
  static const PoolSeries series = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    PoolSeries s;
    s.calls = reg.CounterNamed("threadpool.parallel_for_calls");
    s.inline_calls = reg.CounterNamed("threadpool.inline_calls");
    s.indices = reg.CounterNamed("threadpool.indices");
    s.chunks = reg.CounterNamed("threadpool.chunks");
    s.queue_wait = reg.HistogramNamed("threadpool.queue_wait_seconds",
                                      obs::LatencyBounds());
    s.task_run = reg.HistogramNamed("threadpool.task_run_seconds",
                                    obs::LatencyBounds());
    s.size = reg.GaugeNamed("threadpool.size");
    return s;
  }();
  return series;
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
  obs::TraceContext trace;
  {
    MutexLock lock(&mu_);
    fn = job_fn_;
    n = job_n_;
    trace = job_trace_;
  }
  if (!fn) return;
  // Task boundary: the claim loop runs under the submitter's trace context,
  // and the scope restores this thread's own chain afterwards (that restore
  // is what keeps a leaked span from poisoning later tasks).
  const obs::ScopedTraceContext task_context(trace);
  const bool metrics = obs::MetricsEnabled();
  const obs::Clock::time_point run_start =
      metrics ? obs::Now() : obs::Clock::time_point();
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
  if (metrics) {
    const PoolSeries& s = Series();
    s.chunks->Add(claimed_chunks);
    s.task_run->Observe(obs::SecondsBetween(run_start, obs::Now()));
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_job = 0;
  for (;;) {
    obs::Clock::time_point publish;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && job_id_ == seen_job) work_cv_.Wait(&mu_);
      if (shutdown_) return;
      seen_job = job_id_;
      publish = job_publish_;
    }
    if (publish != obs::Clock::time_point() && obs::MetricsEnabled()) {
      // Queue wait: ParallelFor publishing the job to this worker picking
      // it up (condvar wake + scheduling latency). publish is the epoch
      // when metrics were off at publish time.
      Series().queue_wait->Observe(obs::SecondsBetween(publish, obs::Now()));
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
  const bool metrics = obs::MetricsEnabled();
  if (metrics) {
    const PoolSeries& s = Series();
    s.calls->Add();
    s.indices->Add(static_cast<uint64_t>(n));
    s.size->Set(num_threads_);
  }
  bool expected = false;
  const bool parallel =
      num_threads_ > 1 && n > 1 &&
      busy_.compare_exchange_strong(expected, true);
  if (!parallel) {
    if (metrics) Series().inline_calls->Add();
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
    job_publish_ = metrics ? obs::Now() : obs::Clock::time_point();
    job_trace_ = obs::CurrentTraceContext();
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
