#include "serve/server.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "obs/trace.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace qfcard::serve {

namespace {

// When QFCARD_TRACE is on, Start() arms the global TraceBuffer's
// tail-sampling keep-policy with this latency threshold: any request whose
// full latency (its serve.request root span) meets it — or that errored —
// has its whole span tree protected from ring eviction
// (docs/observability.md).
constexpr double kTraceTailThresholdSeconds = 0.010;

void CountServerRejected(const char* reason) {
  obs::IncrementCounter("serve.route.rejected",
                        std::string("reason=") + reason);
}

/// Server-wide series, resolved once per process on first use with metrics
/// on (registry pointers stay valid for the process lifetime).
struct ServerSeries {
  obs::Gauge* queue_depth;
  obs::Gauge* trace_sampled;
  obs::Gauge* trace_dropped;
  obs::Histogram* queue_wait;
  obs::Histogram* batch_exec;
  obs::Histogram* featurize;
  obs::Histogram* predict;
};

const ServerSeries& GetServerSeries() {
  static const ServerSeries series = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    const std::vector<double>& bounds = obs::LatencyBounds();
    ServerSeries s;
    s.queue_depth = reg.GaugeNamed("serve.route.queue_depth");
    s.trace_sampled = reg.GaugeNamed("serve.trace.sampled");
    s.trace_dropped = reg.GaugeNamed("serve.trace.dropped");
    s.queue_wait = reg.HistogramNamed("serve.request.stage_seconds", bounds,
                                      "stage=queue_wait");
    s.batch_exec = reg.HistogramNamed("serve.request.stage_seconds", bounds,
                                      "stage=batch_exec");
    s.featurize = reg.HistogramNamed("serve.request.stage_seconds", bounds,
                                     "stage=featurize");
    s.predict = reg.HistogramNamed("serve.request.stage_seconds", bounds,
                                   "stage=predict");
    return s;
  }();
  return series;
}

/// Client-side state of one request from its arrival to its admission.
struct Admission {
  obs::Clock::time_point submit_start;
  obs::TraceContext ctx;
  /// serve.submit, open from arrival through admission. Null once closed,
  /// and when tracing is off.
  std::unique_ptr<obs::TraceSpan> span;
  ModelRouter::Resolution resolution;
  /// serve.route.rejected reason, set under mu_ when admission turns the
  /// routed request away.
  const char* refused = nullptr;
};

/// Closes a turned-away request's trace: its serve.submit span, then its
/// root, both errored (tail sampling keeps errored traces).
void CloseRejectedTrace(Admission& a) {
  if (a.span != nullptr) a.span->MarkError();
  a.span.reset();
  obs::RecordTraceRoot("serve.request", a.ctx.trace_id, a.submit_start,
                       obs::Now(), a.resolution.route_id, /*error=*/true);
}

}  // namespace

EstimationServer::EstimationServer(ModelRouter* router,
                                   EstimationServerOptions options)
    : router_(router), opts_([&options] {
        // Clamp degenerate knobs: the server is infrastructure and must stay
        // constructible with whatever an operator wires in.
        options.max_pending = std::max<size_t>(1, options.max_pending);
        options.num_workers = std::max(0, options.num_workers);
        return options;
      }()) {}

EstimationServer::~EstimationServer() { Stop(); }

void EstimationServer::Start() {
  common::MutexLock lifecycle(&lifecycle_mu_);
  {
    common::MutexLock lock(&mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  // Arm tail sampling: keep the span trees of slow/errored requests out of
  // the ring's eviction path (docs/observability.md).
  if (obs::TraceEnabled()) {
    obs::TailSamplingOptions tail;
    tail.enabled = true;
    tail.latency_threshold_seconds = kTraceTailThresholdSeconds;
    obs::TraceBuffer::Global().SetTailSampling(tail);
  }
  // Serving begins: return the heap memory that set-up freed (generated
  // workloads, training sets, model-build temporaries) to the OS. glibc
  // keeps freed small blocks resident, and the serving phase's own growth
  // would otherwise stack on top of them.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void EstimationServer::Stop() {
  common::MutexLock lifecycle(&lifecycle_mu_);
  {
    common::MutexLock lock(&mu_);
    if (!running_) return;
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    common::MutexLock lock(&mu_);
    // Drain whatever is still queued (everything, when num_workers == 0):
    // blocked clients get real responses from a stopping server, not errors.
    while (FlushOneBatch()) {
    }
    running_ = false;
    stop_ = false;
  }
}

bool EstimationServer::running() const {
  common::MutexLock lock(&mu_);
  return running_ && !stop_;
}

common::StatusOr<est::EstimateResponse> EstimationServer::Estimate(
    const est::EstimateRequest& request) {
  return std::move(Serve({&request, 1}).front());
}

std::vector<common::StatusOr<est::EstimateResponse>>
EstimationServer::EstimateMany(
    const std::vector<est::EstimateRequest>& requests) {
  return Serve(requests);
}

size_t EstimationServer::PendingRequests() const {
  common::MutexLock lock(&mu_);
  return pending_total_;
}

uint64_t EstimationServer::BatchesFlushed() const {
  common::MutexLock lock(&mu_);
  return batches_;
}

std::vector<common::StatusOr<est::EstimateResponse>> EstimationServer::Serve(
    std::span<const est::EstimateRequest> requests) {
  const size_t n = requests.size();
  std::vector<Admission> admissions(n);
  std::vector<Slot> slots(n);
  Call call;
  bool accepting = false;
  {
    common::MutexLock lock(&mu_);
    accepting = running_ && !stop_;
  }

  // Mint each request's trace and route it. The root span id is reserved
  // now so every span of the request — on this thread or a worker — can
  // attach to it; the root itself (serve.request) is recorded at completion
  // with the request's full latency, which tail sampling evaluates. Routing
  // runs outside mu_: the router has its own lock, and an intelligent-policy
  // first sight may build a model. A request turned away here closes its
  // serve.submit span at once, while it is still the innermost open span.
  for (size_t i = 0; i < n; ++i) {
    Admission& a = admissions[i];
    a.submit_start = obs::Now();
    const uint64_t trace_id = obs::MintTraceId();
    a.ctx = obs::TraceContext{trace_id, trace_id};
    if (obs::TraceEnabled()) {
      a.span.reset(new obs::TraceSpan("serve.submit", a.ctx));
    }
    if (!accepting) {
      CountServerRejected("not-running");
      slots[i].status = common::Status::FailedPrecondition(
          "estimation server is not running");
      CloseRejectedTrace(a);
      continue;
    }
    common::StatusOr<ModelRouter::Resolution> resolution = router_->Resolve(
        requests[i].query, requests[i].options, requests[i].route_hint);
    if (!resolution.ok()) {
      slots[i].status = resolution.status();
      CloseRejectedTrace(a);
      continue;
    }
    a.resolution = std::move(resolution).value();
    if (a.span != nullptr) a.span->SetRoute(a.resolution.route_id);
  }

  // Admit the whole call under one hold, so an idle dispatcher cannot flush
  // half of it.
  size_t admitted = 0;
  {
    common::MutexLock lock(&mu_);
    const bool stopping = !running_ || stop_;
    const obs::Clock::time_point now = obs::Now();
    RouteQueue* queue = nullptr;
    uint64_t queue_route = 0;
    RouteMetrics metrics;
    for (size_t i = 0; i < n; ++i) {
      Admission& a = admissions[i];
      if (!slots[i].status.ok()) continue;  // turned away before admission
      if (stopping) {
        a.refused = "not-running";
        slots[i].status = common::Status::FailedPrecondition(
            "estimation server is stopping");
        continue;
      }
      if (pending_total_ >= opts_.max_pending) {
        a.refused = "queue-full";
        slots[i].status = common::Status::ResourceExhausted(
            "estimation server queue is full (" +
            std::to_string(opts_.max_pending) + " pending requests)");
        continue;
      }
      if (queue == nullptr || a.resolution.route_id != queue_route) {
        queue_route = a.resolution.route_id;
        queue = &queues_[queue_route];
        metrics = MetricsFor(*queue, queue_route);
      }
      queue->serving = std::move(a.resolution.serving);
      if (queue->pending.empty()) queue->oldest = now;
      queue->pending.push_back(
          PendingRequest{&requests[i], &slots[i], &call, now, a.ctx});
      ++pending_total_;
      ++admitted;
      if (metrics.requests != nullptr) metrics.requests->Add();
    }
    call.outstanding = admitted;
    if (admitted > 0 && obs::MetricsEnabled()) {
      GetServerSeries().queue_depth->Set(static_cast<int64_t>(pending_total_));
    }
  }
  if (admitted > 0) work_cv_.NotifyOne();

  // Close the still-open serve.submit spans innermost first, so this
  // thread's span chain unwinds in order.
  for (size_t i = n; i-- > 0;) {
    Admission& a = admissions[i];
    if (a.refused == nullptr) {
      a.span.reset();  // admitted, or already closed by routing
      continue;
    }
    CountServerRejected(a.refused);
    CloseRejectedTrace(a);
  }

  if (admitted > 0) {
    common::MutexLock lock(&mu_);
    while (call.outstanding > 0) call.done_cv.Wait(&mu_);
  }
  std::vector<common::StatusOr<est::EstimateResponse>> results;
  results.reserve(n);
  for (Slot& slot : slots) {
    if (slot.status.ok()) {
      results.emplace_back(std::move(slot.response));
    } else {
      results.emplace_back(std::move(slot.status));
    }
  }
  return results;
}

EstimationServer::RouteMetrics EstimationServer::MetricsFor(
    RouteQueue& queue, uint64_t route_id) {
  if (!obs::MetricsEnabled()) return RouteMetrics{};
  RouteMetrics& m = queue.metrics;
  if (m.requests == nullptr) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    const std::string label = "route=" + FormatFss(route_id);
    m.requests = reg.CounterNamed("serve.route.requests", label);
    m.batches = reg.CounterNamed("serve.route.batches", label);
    m.latency = reg.HistogramNamed("serve.route.latency_seconds",
                                   obs::LatencyBounds(), label);
    m.exec = reg.HistogramNamed("serve.route.exec_seconds",
                                obs::LatencyBounds(), label);
  }
  return m;
}

void EstimationServer::WorkerLoop() {
  mu_.Lock();
  while (true) {
    if (FlushOneBatch()) continue;
    if (stop_) break;
    work_cv_.Wait(&mu_);
  }
  mu_.Unlock();
}

bool EstimationServer::FlushOneBatch() {
  // Work-conserving: any pending route is due. Of those, flush the one that
  // has waited longest.
  RouteQueue* due = nullptr;
  uint64_t due_route = 0;
  for (auto& [route_id, queue] : queues_) {
    if (queue.pending.empty()) continue;
    if (due == nullptr || queue.oldest < due->oldest) {
      due = &queue;
      due_route = route_id;
    }
  }
  if (due == nullptr) return false;

  std::vector<PendingRequest> batch = std::move(due->pending);
  due->pending.clear();
  const std::shared_ptr<ServingEstimator> serving = due->serving;
  const RouteMetrics metrics = MetricsFor(*due, due_route);
  pending_total_ -= batch.size();
  ++batches_;
  // Another route still waits: hand it to an idle dispatcher, if any.
  const bool more_pending = pending_total_ > 0;
  if (obs::MetricsEnabled()) {
    GetServerSeries().queue_depth->Set(static_cast<int64_t>(pending_total_));
  }

  // Execute outside the lock: admissions and other flushes proceed while
  // this micro-batch featurizes and predicts.
  mu_.Unlock();
  if (more_pending) work_cv_.NotifyOne();
  const obs::Clock::time_point exec_start = obs::Now();
  double exec_seconds = 0.0;
  double featurize_seconds = 0.0;
  double predict_seconds = 0.0;
  common::StatusOr<std::vector<est::EstimateResponse>> responses_or =
      [&]() -> common::StatusOr<std::vector<est::EstimateResponse>> {
    // Re-attach to the first member's trace across the thread boundary;
    // every other member joins as a follow-from link, and each member gets
    // a serve.queue_wait span (admission -> execution) under its own root.
    obs::TraceSpan span("serve.batch", batch.front().ctx);
    span.SetRoute(due_route);
    for (const PendingRequest& p : batch) {
      obs::RecordSpan("serve.queue_wait", p.ctx, p.enqueued, exec_start,
                      due_route);
      span.AddLink(p.ctx.trace_id);
    }
    obs::ScopedTimer exec_timer;
    // Stage capture: the backend's featurize/predict blocks report their
    // seconds here, giving every member its attribution split.
    obs::StageCapture capture;
    // The members' own requests, read in place: each client blocks until
    // its request is answered, which happens only after this call returns.
    std::vector<const est::EstimateRequest*> requests(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      requests[i] = batch[i].request;
    }
    common::StatusOr<std::vector<est::EstimateResponse>> result =
        serving->EstimateRequests(
            std::span<const est::EstimateRequest* const>(requests));
    if (!result.ok()) span.MarkError();
    exec_seconds = exec_timer.Seconds();
    featurize_seconds = capture.seconds(obs::Stage::kFeaturize);
    predict_seconds = capture.seconds(obs::Stage::kPredict);
    return result;
  }();
  if (metrics.batches != nullptr) {
    metrics.batches->Add();
    metrics.exec->Observe(exec_seconds);
  }

  // Stamp provenance and per-request latency (queue wait + execution) into
  // the members' slots. Their clients read them only after the call count
  // below reaches zero under mu_.
  const obs::Clock::time_point completed = obs::Now();
  const ServerSeries* series =
      metrics.latency != nullptr ? &GetServerSeries() : nullptr;
  for (size_t i = 0; i < batch.size(); ++i) {
    const PendingRequest& p = batch[i];
    if (!responses_or.ok()) {
      p.slot->status = responses_or.status();
      continue;
    }
    est::EstimateResponse& response = p.slot->response;
    response = std::move(responses_or.value()[i]);
    response.route_id = due_route;
    response.latency_seconds = obs::SecondsBetween(p.enqueued, completed);
    response.trace_id = p.ctx.trace_id;
    est::StageBreakdown& stages = response.stages;
    stages.queue_wait_seconds = obs::SecondsBetween(p.enqueued, exec_start);
    stages.batch_exec_seconds = exec_seconds;
    stages.featurize_seconds = featurize_seconds;
    stages.predict_seconds = predict_seconds;
    if (series != nullptr) {
      metrics.latency->Observe(response.latency_seconds);
      series->queue_wait->Observe(stages.queue_wait_seconds);
      series->batch_exec->Observe(stages.batch_exec_seconds);
      series->featurize->Observe(stages.featurize_seconds);
      series->predict->Observe(stages.predict_seconds);
    }
  }
  // Close out every member's trace root with its full latency — the
  // duration the tail-sampling keep-policy evaluates. Recorded after the
  // children, so a kept root protects a tree that is already in the ring.
  for (const PendingRequest& p : batch) {
    obs::RecordTraceRoot("serve.request", p.ctx.trace_id, p.enqueued,
                         completed, due_route, !responses_or.ok());
  }
  if (series != nullptr) {
    const obs::TraceBuffer& buffer = obs::TraceBuffer::Global();
    series->trace_sampled->Set(
        static_cast<int64_t>(buffer.TailSampledTraces()));
    series->trace_dropped->Set(
        static_cast<int64_t>(buffer.TailDroppedSpans()));
  }

  mu_.Lock();
  // Wake each call whose last request this batch answered, and only those.
  // The notify stays under mu_: once it drops, the woken client may return
  // and destroy its Call.
  for (const PendingRequest& p : batch) {
    if (--p.call->outstanding == 0) p.call->done_cv.NotifyOne();
  }
  return true;
}

}  // namespace qfcard::serve
