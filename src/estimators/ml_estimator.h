#ifndef QFCARD_ESTIMATORS_ML_ESTIMATOR_H_
#define QFCARD_ESTIMATORS_ML_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "estimators/estimator.h"
#include "featurize/featurizer.h"
#include "featurize/mscn_featurizer.h"
#include "ml/dataset.h"
#include "ml/mscn.h"

namespace qfcard::est {

/// A QFT x ML-model cardinality estimator for one table (or one
/// materialized sub-schema join): featurize the query, run the model, map
/// the log2 prediction back to a cardinality >= 1. This is the paper's
/// two-step mapping "query -> vector -> cardinality" (Equation 2).
class MlEstimator : public CardinalityEstimator {
 public:
  MlEstimator(std::unique_ptr<featurize::Featurizer> featurizer,
              std::unique_ptr<ml::Model> model)
      : featurizer_(std::move(featurizer)),
        model_(std::move(model)),
        backend_label_("backend=" + MlEstimator::name()) {}

  /// Trains the model on labeled queries. `cards` are true cardinalities
  /// (natural space). A `seed`-shuffled `valid_fraction` split
  /// (ml::SplitTrainTest) drives early stopping.
  common::Status Train(const std::vector<query::Query>& queries,
                       const std::vector<double>& cards,
                       double valid_fraction, uint64_t seed) override;

  common::StatusOr<double> EstimateCard(const query::Query& q) const override;
  /// Batched estimate: featurizes the whole batch into one row-major matrix
  /// (Featurizer::FeaturizeBatch) and runs the model's batched predict —
  /// one featurization pass and one model pass instead of per-query calls.
  common::StatusOr<std::vector<double>> EstimateBatch(
      common::Gathered<query::Query> queries) const override;
  std::string name() const override {
    return model_->name() + "+" + featurizer_->name();
  }
  size_t SizeBytes() const override { return model_->SizeBytes(); }

  const featurize::Featurizer& featurizer() const { return *featurizer_; }
  const ml::Model& model() const { return *model_; }

  /// Serializes the trained model parameters (the featurizer is persisted
  /// separately by serve::EncodeBundle).
  common::Status SerializeModel(std::vector<uint8_t>* out) const {
    return model_->Serialize(out);
  }
  /// Restores model parameters serialized by SerializeModel.
  common::Status DeserializeModel(const std::vector<uint8_t>& data) {
    return model_->Deserialize(data);
  }

 private:
  std::unique_ptr<featurize::Featurizer> featurizer_;
  std::unique_ptr<ml::Model> model_;
  // Metric label of every estimate.* series this estimator reports.
  const std::string backend_label_;
};

/// Global-model estimator: the MSCN set featurization plus the Mscn network
/// (Sections 2.1.2 / 4.2). Handles queries over arbitrary sub-schemas of the
/// catalog with a single model.
class MscnEstimator : public CardinalityEstimator {
 public:
  MscnEstimator(featurize::MscnFeaturizer featurizer, ml::MscnParams params)
      : featurizer_(std::move(featurizer)),
        model_(featurizer_.table_dim(), featurizer_.join_dim(),
               featurizer_.pred_dim(), params),
        backend_label_("backend=" + MscnEstimator::name()) {}

  /// A `seed`-shuffled `valid_fraction` of the queries (ml::ShuffledSplit,
  /// as in MlEstimator) is the early-stopping set. MSCN's initialization
  /// seed lives in MscnParams.
  common::Status Train(const std::vector<query::Query>& queries,
                       const std::vector<double>& cards,
                       double valid_fraction, uint64_t seed = 0) override;

  common::StatusOr<double> EstimateCard(const query::Query& q) const override;
  /// Batched estimate: set-featurizes and predicts all queries in parallel.
  common::StatusOr<std::vector<double>> EstimateBatch(
      common::Gathered<query::Query> queries) const override;
  std::string name() const override {
    return featurizer_.mode() ==
                   featurize::MscnFeaturizer::PredMode::kPerPredicate
               ? "MSCN"
               : "MSCN+conj";
  }
  size_t SizeBytes() const override { return model_.SizeBytes(); }

  const featurize::MscnFeaturizer& featurizer() const { return featurizer_; }
  const ml::Mscn& model() const { return model_; }

  /// Serializes the trained network (the featurizer is persisted separately
  /// by serve::EncodeBundle).
  common::Status SerializeModel(std::vector<uint8_t>* out) const {
    return model_.Serialize(out);
  }
  /// Restores a network serialized by SerializeModel; its set dimensions
  /// must match this estimator's featurizer.
  common::Status DeserializeModel(const std::vector<uint8_t>& data) {
    return model_.Deserialize(data);
  }

 private:
  featurize::MscnFeaturizer featurizer_;
  ml::Mscn model_;
  // Metric label of every estimate.* series this estimator reports.
  const std::string backend_label_;
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_ML_ESTIMATOR_H_
