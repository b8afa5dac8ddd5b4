#ifndef QFCARD_SERVE_SERVER_H_
#define QFCARD_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimators/request.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/router.h"

namespace qfcard::serve {

struct EstimationServerOptions {
  /// Admission control: total requests queued across all routes. Beyond it
  /// new submissions are rejected with ResourceExhausted instead of growing
  /// the queue without bound. It is also the only bound on a micro-batch: a
  /// flush takes its route's whole pending list.
  size_t max_pending = 4096;
  /// Dispatcher threads executing flushed batches. 0 is a test hook: nothing
  /// flushes until Stop() drains synchronously.
  int num_workers = 2;
};

/// Long-lived estimation front end (docs/serving.md): many client threads
/// submit EstimateRequests concurrently; the server routes each to its
/// feature-space model via the ModelRouter and coalesces requests that hit
/// the same route — across client connections — into one
/// ServingEstimator::EstimateRequests call through a bounded micro-batching
/// queue.
///
/// Dispatch is work-conserving: a dispatcher with nothing to do flushes the
/// route whose oldest request has waited longest, taking its whole pending
/// list, so an idle server answers a lone request at once and batches form
/// only while every dispatcher is busy. EstimateMany admits its whole call
/// under one queue-lock hold, so an idle dispatcher never splits a call it
/// could have served as one batch.
///
/// Because every estimator's batch results are byte-identical to the serial
/// per-query path (docs/batch_api.md), how the server groups concurrent
/// requests into batches is unobservable in the estimates: a query answered
/// through the server returns bit-for-bit what a direct EstimateBatch on the
/// route's model returns (pinned by tests/server_test.cc at 1/2/8 client
/// threads).
///
/// Thread-safety: Estimate/EstimateMany are safe from any thread and block
/// until their responses are ready. Start/Stop must be externally serialized
/// with each other (one owner); the destructor calls Stop(). Route models
/// are hot-swappable under traffic (ServingEstimator's contract) — swapping
/// never tears an in-flight batch.
///
/// Exports per-route serve.route.* metrics: requests/batches (counters,
/// route=<fss> labels), latency_seconds/exec_seconds (histograms),
/// queue_depth (gauge), plus the router's rejected{reason=...} counters,
/// per-request serve.request.stage_seconds{stage=...} attribution
/// histograms, and the serve.trace.sampled/dropped tail-sampling gauges.
/// Their handles are resolved once (per route, and per process for the
/// server-wide series), so admission and answering build no label strings.
///
/// Tracing (docs/observability.md): each admitted request mints a
/// TraceContext whose root span (serve.request) is recorded when the
/// request completes, spanning its full latency. serve.submit and
/// serve.queue_wait parent under the root on the client side; the worker
/// re-attaches via TraceSpan("serve.batch", ctx) so the batch execution —
/// and the estimate.featurize/estimate.predict spans inside it — joins the
/// first member's trace, with every other member recorded as a follow-from
/// link. The result: one causally connected tree per request, across the
/// client->worker thread boundary.
class EstimationServer {
 public:
  /// `router` is not owned and must outlive the server.
  explicit EstimationServer(ModelRouter* router,
                            EstimationServerOptions options = {});
  ~EstimationServer();

  EstimationServer(const EstimationServer&) = delete;
  EstimationServer& operator=(const EstimationServer&) = delete;

  /// Spawns the dispatcher workers and returns heap memory freed before
  /// serving to the OS (glibc). Idempotent.
  void Start();

  /// Stops accepting new requests, drains every pending micro-batch (blocked
  /// clients get their responses, not errors), and joins the workers.
  /// Idempotent; safe without a prior Start().
  void Stop();

  /// Submits one request and blocks until its micro-batch is flushed and
  /// computed. Routing rejections (unknown shape under the controlled
  /// policy, route limit), queue-full admission rejections
  /// (ResourceExhausted), and not-running errors come back without queuing.
  common::StatusOr<est::EstimateResponse> Estimate(
      const est::EstimateRequest& request);

  /// Routes every request, then admits the whole call under one queue-lock
  /// hold before waiting, so the call's requests share micro-batches;
  /// returns one result per request in input order. Admission outcomes are
  /// per request: once max_pending is reached the rest of the call is
  /// rejected with ResourceExhausted.
  std::vector<common::StatusOr<est::EstimateResponse>> EstimateMany(
      const std::vector<est::EstimateRequest>& requests);

  /// Requests currently queued (admission-control view).
  size_t PendingRequests() const;

  /// Micro-batches flushed so far.
  uint64_t BatchesFlushed() const;

  bool running() const;

  const ModelRouter& router() const { return *router_; }

 private:
  /// One blocked Estimate/EstimateMany call. Lives on the client's stack;
  /// `outstanding` is read and written only under mu_ (no annotation: calls
  /// are locals). The worker that answers the call's last admitted request
  /// wakes done_cv — and no other client.
  struct Call {
    size_t outstanding = 0;  ///< admitted requests not yet answered
    common::CondVar done_cv;
  };

  /// One request's result, on the client's stack. The answering worker
  /// writes it before it decrements the call's `outstanding` under mu_; the
  /// client reads it only after `outstanding` reached 0.
  struct Slot {
    est::EstimateResponse response;
    common::Status status;
  };

  struct PendingRequest {
    /// The caller's request, not a copy: the caller blocks until this
    /// request is answered (Stop()'s drain included), so it stays alive.
    const est::EstimateRequest* request = nullptr;
    Slot* slot = nullptr;
    Call* call = nullptr;
    obs::Clock::time_point enqueued;
    /// Trace identity minted at admission ({trace_id, trace_id}: children
    /// recorded by the worker parent under the request's root span).
    /// Invalid when tracing is off.
    obs::TraceContext ctx;
  };

  /// A route's serve.route.* handles, resolved on its first admission or
  /// flush with metrics on. Null until then.
  struct RouteMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* batches = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Histogram* exec = nullptr;
  };

  /// Per-feature-space micro-batch accumulator.
  struct RouteQueue {
    std::shared_ptr<ServingEstimator> serving;
    std::vector<PendingRequest> pending;
    obs::Clock::time_point oldest;  ///< enqueue time of pending.front()
    RouteMetrics metrics;
  };

  /// Estimate and EstimateMany: routes, admits the call whole, and blocks
  /// until every admitted request is answered.
  std::vector<common::StatusOr<est::EstimateResponse>> Serve(
      std::span<const est::EstimateRequest> requests);

  /// `queue`'s metric handles, resolved on first use; all null when metrics
  /// are off.
  RouteMetrics MetricsFor(RouteQueue& queue, uint64_t route_id)
      QFCARD_REQUIRES(mu_);

  void WorkerLoop();

  /// Flushes the whole pending list of the route that has waited longest,
  /// returning false when nothing is pending. Drops mu_ while the batch
  /// executes.
  bool FlushOneBatch() QFCARD_REQUIRES(mu_);

  ModelRouter* const router_;
  const EstimationServerOptions opts_;

  mutable common::Mutex mu_;
  common::CondVar work_cv_;  ///< wakes dispatchers (new work, stop)
  std::map<uint64_t, RouteQueue> queues_ QFCARD_GUARDED_BY(mu_);
  size_t pending_total_ QFCARD_GUARDED_BY(mu_) = 0;
  uint64_t batches_ QFCARD_GUARDED_BY(mu_) = 0;
  bool running_ QFCARD_GUARDED_BY(mu_) = false;
  bool stop_ QFCARD_GUARDED_BY(mu_) = false;

  /// Worker lifecycle, touched only under lifecycle_mu_ (which workers never
  /// take, so Stop can join while holding it). Lock order: lifecycle_mu_
  /// before mu_.
  common::Mutex lifecycle_mu_;
  std::vector<std::thread> workers_ QFCARD_GUARDED_BY(lifecycle_mu_);
};

}  // namespace qfcard::serve

#endif  // QFCARD_SERVE_SERVER_H_
