#ifndef QFCARD_SERVE_SERVING_ESTIMATOR_H_
#define QFCARD_SERVE_SERVING_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimators/estimator.h"

namespace qfcard::serve {

/// CardinalityEstimator front that hot-swaps the model it serves while
/// concurrent EstimateBatch traffic runs.
///
/// Publication contract (docs/serving.md): the active model is one
/// shared_ptr under active_mu_, a leaf lock held only to copy or replace
/// the pointer. Swap replaces it after the replacement model is fully
/// constructed; every estimate copies it once and keeps it pinned for the
/// whole call. A request therefore runs entirely against one fully-built
/// immutable model — swaps can never tear an in-flight batch — and a model
/// unpinned by a swap is destroyed when its last in-flight request
/// finishes. Models must be const-thread-safe (the repo-wide estimator
/// contract).
///
/// The model's version label and the swap count live under the same lock
/// and change in the same hold as the pointer, so a response's
/// model_version always names the model that computed it. Exports
/// serve.swaps (counter) and serve.active_version (gauge) via
/// obs::MetricsRegistry.
class ServingEstimator : public est::CardinalityEstimator {
 public:
  /// Starts serving `initial` as `version`. The initial publication counts
  /// as the first swap (serve.swaps starts at 1).
  ServingEstimator(std::shared_ptr<const est::CardinalityEstimator> initial,
                   uint64_t version);

  common::StatusOr<double> EstimateCard(const query::Query& q) const override;

  /// Both batch entry points pin the active model once for the whole call,
  /// so a concurrent Swap never splits one batch across two models.
  /// EstimateRequests also stamps each response with the served model
  /// version (docs/batch_api.md).
  common::StatusOr<std::vector<est::EstimateResponse>> EstimateRequests(
      common::Gathered<est::EstimateRequest> requests) const override;
  common::StatusOr<std::vector<double>> EstimateBatch(
      common::Gathered<query::Query> queries) const override;

  /// The active model is immutable: train a candidate offline and Swap it
  /// in (see adapt::Retrainer). Always returns FailedPrecondition.
  common::Status Train(const std::vector<query::Query>& queries,
                       const std::vector<double>& cards, double valid_fraction,
                       uint64_t seed) override;

  std::string name() const override;
  size_t SizeBytes() const override;

  /// Replaces the served model in one pointer publication. `next` must be fully trained and
  /// const-thread-safe; `version` is exported through the active-version
  /// gauge and ActiveVersion().
  void Swap(std::shared_ptr<const est::CardinalityEstimator> next,
            uint64_t version);

  /// Pins and returns the currently served model.
  std::shared_ptr<const est::CardinalityEstimator> Active() const;

  /// Version label of the served model (store version, or any caller-chosen
  /// monotonic id).
  uint64_t ActiveVersion() const;

  /// Total publications, including the initial one.
  uint64_t SwapCount() const;

 private:
  // A lock, not std::atomic<std::shared_ptr>: libstdc++'s atomic load
  // releases its internal lock bit with relaxed ordering, so its pointer
  // read is not ordered before a later Swap (ThreadSanitizer reports it).
  mutable common::Mutex active_mu_;
  std::shared_ptr<const est::CardinalityEstimator> active_
      QFCARD_GUARDED_BY(active_mu_);
  uint64_t version_ QFCARD_GUARDED_BY(active_mu_);
  uint64_t swaps_ QFCARD_GUARDED_BY(active_mu_);
};

}  // namespace qfcard::serve

#endif  // QFCARD_SERVE_SERVING_ESTIMATOR_H_
