#include "serve/serving_estimator.h"

#include <utility>

#include "obs/metrics.h"

namespace qfcard::serve {

namespace {

void ExportVersionGauge(uint64_t version) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global()
      .GaugeNamed("serve.active_version")
      ->Set(static_cast<int64_t>(version));
}

}  // namespace

ServingEstimator::ServingEstimator(
    std::shared_ptr<const est::CardinalityEstimator> initial, uint64_t version)
    : active_(std::move(initial)), version_(version), swaps_(1) {
  obs::IncrementCounter("serve.swaps");
  ExportVersionGauge(version);
}

common::StatusOr<double> ServingEstimator::EstimateCard(
    const query::Query& q) const {
  // Pins one fully-published model for the whole call.
  return Active()->EstimateCard(q);
}

common::StatusOr<std::vector<est::EstimateResponse>>
ServingEstimator::EstimateRequests(
    common::Gathered<est::EstimateRequest> requests) const {
  obs::ScopedTimer timer;
  // One pin holds one fully-published model for the whole batch, read with
  // its version in one hold: a concurrent Swap can neither tear the batch
  // across two models nor label it with the other model's version.
  std::shared_ptr<const est::CardinalityEstimator> model;
  uint64_t version = 0;
  {
    common::MutexLock lock(&active_mu_);
    model = active_;
    version = version_;
  }
  // Delegate to the model's request path (not EstimateBatch directly) so
  // inner-stamped provenance — the adaptive front's tier/tier_reason —
  // reaches the client. The default implementation forwards a view of the
  // requests' queries to EstimateBatch, so estimates equal EstimateBatch's.
  QFCARD_ASSIGN_OR_RETURN(std::vector<est::EstimateResponse> responses,
                          model->EstimateRequests(requests));
  const double elapsed = timer.Seconds();
  for (est::EstimateResponse& response : responses) {
    response.model_version = version;
    response.latency_seconds = elapsed;
  }
  return responses;
}

common::StatusOr<std::vector<double>> ServingEstimator::EstimateBatch(
    common::Gathered<query::Query> queries) const {
  // Pinned once: the whole batch runs against one model.
  return Active()->EstimateBatch(queries);
}

common::Status ServingEstimator::Train(
    const std::vector<query::Query>& queries, const std::vector<double>& cards,
    double valid_fraction, uint64_t seed) {
  (void)queries;
  (void)cards;
  (void)valid_fraction;
  (void)seed;
  return common::Status::FailedPrecondition(
      "serving estimator: the active model is immutable; train a candidate "
      "and Swap it in");
}

std::string ServingEstimator::name() const {
  return "serving:" + Active()->name();
}

size_t ServingEstimator::SizeBytes() const {
  return Active()->SizeBytes();
}

void ServingEstimator::Swap(
    std::shared_ptr<const est::CardinalityEstimator> next, uint64_t version) {
  {
    common::MutexLock lock(&active_mu_);
    active_.swap(next);
    version_ = version;
    ++swaps_;
  }
  // `next` now holds the replaced model: it is destroyed outside the lock,
  // here or when its last in-flight pin drops.
  obs::IncrementCounter("serve.swaps");
  ExportVersionGauge(version);
}

std::shared_ptr<const est::CardinalityEstimator> ServingEstimator::Active()
    const {
  common::MutexLock lock(&active_mu_);
  return active_;
}

uint64_t ServingEstimator::ActiveVersion() const {
  common::MutexLock lock(&active_mu_);
  return version_;
}

uint64_t ServingEstimator::SwapCount() const {
  common::MutexLock lock(&active_mu_);
  return swaps_;
}

}  // namespace qfcard::serve
