#ifndef QFCARD_ESTIMATORS_ESTIMATOR_H_
#define QFCARD_ESTIMATORS_ESTIMATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/gathered.h"
#include "common/status.h"
#include "estimators/request.h"
#include "query/query.h"

namespace qfcard::est {

/// A cardinality estimator: maps a (possibly joined, possibly mixed) count
/// query to an estimated result size >= 1. Implementations cover the
/// paper's comparison set: the Postgres-style independence estimator,
/// Bernoulli sampling, QFT x ML model combinations, and the true-cardinality
/// oracle.
///
/// The API is batch-first (docs/batch_api.md). Three virtuals carry the
/// one query -> vector -> cardinality mapping, one per role:
///   - EstimateCard: the per-query primitive;
///   - EstimateBatch: the batch primitive (default: EstimateCard fanned out
///     over the global thread pool sized by QFCARD_THREADS);
///   - EstimateRequests: the request API, the one place response provenance
///     (tier, model version, latency) is stamped.
/// Estimate(request) is not virtual: it is EstimateRequests of one request.
/// Both batch virtuals take a common::Gathered view and have exactly that
/// one signature: a vector converts to it implicitly, and a batching layer
/// that holds its callers' requests by address passes them through without
/// copying a query (docs/batch_api.md).
/// Implementations must keep EstimateCard const-thread-safe so the default
/// EstimateBatch can fan it out; estimators with per-call random state (see
/// SamplingEstimator) derive a deterministic per-query stream so batch
/// results are byte-identical to the serial loop at any pool size — and
/// therefore independent of how a batching layer groups queries, which is
/// what makes the estimation server's cross-request micro-batching
/// transparent (docs/serving.md).
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Estimated result cardinality of `q` (clamped to >= 1 by convention).
  virtual common::StatusOr<double> EstimateCard(const query::Query& q) const = 0;

  /// Serves one EstimateRequest: EstimateRequests({request}), element 0.
  common::StatusOr<EstimateResponse> Estimate(
      const EstimateRequest& request) const;

  /// Serves a batch of requests, one response per request in input order.
  /// The default forwards a view of the requests' queries (their addresses,
  /// not copies) to EstimateBatch, so backends that override EstimateBatch
  /// (matrix featurization, batched predict) serve requests at full speed
  /// without also overriding this; it reports route_id/model_version 0 (no
  /// routing, no versioning).
  /// serve::ServingEstimator stamps the active model version, the adaptive
  /// front the serving tier, and serve::EstimationServer the route.
  virtual common::StatusOr<std::vector<EstimateResponse>> EstimateRequests(
      common::Gathered<EstimateRequest> requests) const;

  /// Estimates every query, returning one cardinality per query in input
  /// order. The default implementation runs EstimateCard per query on the
  /// global thread pool; on failure it returns the error of the smallest
  /// failing index (what a serial loop would hit first). MlEstimator and
  /// MscnEstimator override this to featurize the whole batch into one
  /// matrix and run the model's batched predict.
  virtual common::StatusOr<std::vector<double>> EstimateBatch(
      common::Gathered<query::Query> queries) const;

  /// Trains the estimator on labeled queries (`cards` are true cardinalities
  /// in natural space; a `valid_fraction` tail/holdout drives early stopping
  /// where the model supports it). Statistics-based estimators need no
  /// training: the default is a no-op returning OK, which lets registry
  /// consumers (est::MakeEstimator) treat every estimator uniformly.
  virtual common::Status Train(const std::vector<query::Query>& queries,
                               const std::vector<double>& cards,
                               double valid_fraction, uint64_t seed);

  /// Label used in reports.
  virtual std::string name() const = 0;

  /// Approximate memory footprint of the estimator's state (Section 5.7).
  virtual size_t SizeBytes() const { return 0; }
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_ESTIMATOR_H_
