#include "estimators/estimator.h"

#include <span>
#include <utility>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::est {

common::StatusOr<EstimateResponse> CardinalityEstimator::Estimate(
    const EstimateRequest& request) const {
  QFCARD_ASSIGN_OR_RETURN(
      std::vector<EstimateResponse> responses,
      EstimateRequests(std::span<const EstimateRequest>(&request, 1)));
  return std::move(responses.front());
}

common::StatusOr<std::vector<EstimateResponse>>
CardinalityEstimator::EstimateRequests(
    common::Gathered<EstimateRequest> requests) const {
  obs::ScopedTimer timer;
  std::vector<const query::Query*> queries(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    queries[i] = &requests[i].query;
  }
  QFCARD_ASSIGN_OR_RETURN(
      const std::vector<double> estimates,
      EstimateBatch(std::span<const query::Query* const>(queries)));
  const double elapsed = timer.Seconds();
  std::vector<EstimateResponse> responses(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    responses[i].estimate = estimates[i];
    responses[i].latency_seconds = elapsed;
  }
  return responses;
}

common::StatusOr<std::vector<double>> CardinalityEstimator::EstimateBatch(
    common::Gathered<query::Query> queries) const {
  obs::TraceSpan span("estimate.batch");
  const std::string backend_label = "backend=" + name();
  obs::ScopedTimer timer("estimate.batch_seconds", backend_label);
  obs::IncrementCounter("estimate.queries", backend_label,
                        static_cast<uint64_t>(queries.size()));
  std::vector<double> out(queries.size(), 0.0);
  QFCARD_RETURN_IF_ERROR(common::GlobalPool().ParallelForStatus(
      static_cast<int64_t>(queries.size()), [&](int64_t i) -> common::Status {
        const size_t idx = static_cast<size_t>(i);
        QFCARD_ASSIGN_OR_RETURN(out[idx], EstimateCard(queries[idx]));
        return common::Status::Ok();
      }));
  return out;
}

common::Status CardinalityEstimator::Train(
    const std::vector<query::Query>& queries, const std::vector<double>& cards,
    double valid_fraction, uint64_t seed) {
  (void)queries;
  (void)cards;
  (void)valid_fraction;
  (void)seed;
  return common::Status::Ok();  // statistics-based estimators are train-free
}

}  // namespace qfcard::est
