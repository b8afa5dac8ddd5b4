#include "estimators/ml_estimator.h"

#include <algorithm>

#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::est {

common::Status MlEstimator::Train(const std::vector<query::Query>& queries,
                                  const std::vector<double>& cards,
                                  double valid_fraction, uint64_t seed) {
  if (queries.size() != cards.size()) {
    return common::Status::InvalidArgument("queries/cards length mismatch");
  }
  // One batched featurization pass straight into the training matrix.
  ml::Dataset all;
  {
    obs::TraceSpan featurize_span("train.featurize");
    obs::ScopedTimer featurize_timer("train.featurize_seconds",
                                     backend_label_);
    all.x = ml::Matrix(static_cast<int>(queries.size()), featurizer_->dim());
    QFCARD_RETURN_IF_ERROR(
        featurizer_->FeaturizeBatch(queries, all.x.data().data()));
    all.y.reserve(cards.size());
    for (const double card : cards) all.y.push_back(ml::CardToLabel(card));
  }
  obs::TraceSpan fit_span("train.fit");
  obs::ScopedTimer fit_timer("train.fit_seconds", backend_label_);
  if (valid_fraction <= 0.0) {
    return model_->Fit(all, nullptr);
  }
  common::Rng rng(seed);
  const ml::TrainTestSplit split =
      ml::SplitTrainTest(all, 1.0 - valid_fraction, rng);
  return model_->Fit(split.train, &split.test);
}

common::StatusOr<double> MlEstimator::EstimateCard(
    const query::Query& q) const {
  QFCARD_ASSIGN_OR_RETURN(const std::vector<float> vec,
                          featurizer_->Featurize(q));
  return ml::LabelToCard(model_->Predict(vec.data()));
}

common::StatusOr<std::vector<double>> MlEstimator::EstimateBatch(
    common::Gathered<query::Query> queries) const {
  obs::TraceSpan span("estimate.batch");
  obs::ScopedTimer timer("estimate.batch_seconds", backend_label_);
  obs::IncrementCounter("estimate.queries", backend_label_,
                        static_cast<uint64_t>(queries.size()));
  ml::Matrix x(static_cast<int>(queries.size()), featurizer_->dim());
  {
    // Sub-stage: featurize (FeaturizeBatch opens its own featurize.batch
    // span, nested under estimate.featurize here).
    obs::TraceSpan featurize_span("estimate.featurize");
    obs::ScopedTimer featurize_timer("estimate.featurize_seconds",
                                     backend_label_);
    QFCARD_RETURN_IF_ERROR(
        featurizer_->FeaturizeBatch(queries, x.data().data()));
    obs::StageCapture::Report(obs::Stage::kFeaturize,
                              featurize_timer.Seconds());
  }
  obs::TraceSpan predict_span("estimate.predict");
  obs::ScopedTimer predict_timer("estimate.predict_seconds", backend_label_);
  const std::vector<float> preds = model_->PredictBatch(x);
  std::vector<double> out(queries.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = ml::LabelToCard(preds[i]);
  obs::StageCapture::Report(obs::Stage::kPredict, predict_timer.Seconds());
  return out;
}

namespace {

// Set-featurizes `queries` in parallel (order-preserving).
common::Status FeaturizeMscnBatch(const featurize::MscnFeaturizer& featurizer,
                                  common::Gathered<query::Query> queries,
                                  std::vector<featurize::MscnSample>* out) {
  out->assign(queries.size(), featurize::MscnSample{});
  return common::GlobalPool().ParallelForStatus(
      static_cast<int64_t>(queries.size()), [&](int64_t i) -> common::Status {
        const size_t idx = static_cast<size_t>(i);
        QFCARD_ASSIGN_OR_RETURN((*out)[idx], featurizer.Featurize(queries[idx]));
        return common::Status::Ok();
      });
}

}  // namespace

common::Status MscnEstimator::Train(const std::vector<query::Query>& queries,
                                    const std::vector<double>& cards,
                                    double valid_fraction, uint64_t seed) {
  if (queries.size() != cards.size()) {
    return common::Status::InvalidArgument("queries/cards length mismatch");
  }
  std::vector<featurize::MscnSample> samples;
  std::vector<float> labels;
  {
    obs::TraceSpan featurize_span("train.featurize");
    obs::ScopedTimer featurize_timer("train.featurize_seconds",
                                     backend_label_);
    QFCARD_RETURN_IF_ERROR(FeaturizeMscnBatch(featurizer_, queries, &samples));
    labels.reserve(cards.size());
    for (const double card : cards) labels.push_back(ml::CardToLabel(card));
  }
  obs::TraceSpan fit_span("train.fit");
  obs::ScopedTimer fit_timer("train.fit_seconds", backend_label_);
  if (valid_fraction <= 0.0) {
    return model_.Fit(samples, labels, nullptr, nullptr);
  }
  // The same shuffled split as MlEstimator, so the early-stopping set is
  // drawn from every query shape whatever order the caller concatenated
  // them in.
  common::Rng rng(seed);
  const ml::SplitIndices split = ml::ShuffledSplit(
      static_cast<int>(samples.size()), 1.0 - valid_fraction, rng);
  const auto take = [&](const std::vector<int>& rows,
                        std::vector<featurize::MscnSample>* part,
                        std::vector<float>* part_labels) {
    part->reserve(rows.size());
    part_labels->reserve(rows.size());
    for (const int r : rows) {
      part->push_back(std::move(samples[static_cast<size_t>(r)]));
      part_labels->push_back(labels[static_cast<size_t>(r)]);
    }
  };
  std::vector<featurize::MscnSample> train_samples;
  std::vector<float> train_labels;
  std::vector<featurize::MscnSample> valid_samples;
  std::vector<float> valid_labels;
  take(split.train, &train_samples, &train_labels);
  take(split.test, &valid_samples, &valid_labels);
  return model_.Fit(train_samples, train_labels, &valid_samples, &valid_labels);
}

common::StatusOr<double> MscnEstimator::EstimateCard(
    const query::Query& q) const {
  QFCARD_ASSIGN_OR_RETURN(const featurize::MscnSample sample,
                          featurizer_.Featurize(q));
  return ml::LabelToCard(model_.Predict(sample));
}

common::StatusOr<std::vector<double>> MscnEstimator::EstimateBatch(
    common::Gathered<query::Query> queries) const {
  obs::TraceSpan span("estimate.batch");
  obs::ScopedTimer timer("estimate.batch_seconds", backend_label_);
  obs::IncrementCounter("estimate.queries", backend_label_,
                        static_cast<uint64_t>(queries.size()));
  std::vector<featurize::MscnSample> samples;
  {
    obs::TraceSpan featurize_span("estimate.featurize");
    obs::ScopedTimer featurize_timer("estimate.featurize_seconds",
                                     backend_label_);
    QFCARD_RETURN_IF_ERROR(FeaturizeMscnBatch(featurizer_, queries, &samples));
    obs::StageCapture::Report(obs::Stage::kFeaturize,
                              featurize_timer.Seconds());
  }
  obs::TraceSpan predict_span("estimate.predict");
  obs::ScopedTimer predict_timer("estimate.predict_seconds", backend_label_);
  std::vector<double> out(queries.size());
  common::GlobalPool().ParallelFor(
      static_cast<int64_t>(queries.size()), [&](int64_t i) {
        const size_t idx = static_cast<size_t>(i);
        out[idx] = ml::LabelToCard(model_.Predict(samples[idx]));
      });
  obs::StageCapture::Report(obs::Stage::kPredict, predict_timer.Seconds());
  return out;
}

}  // namespace qfcard::est
