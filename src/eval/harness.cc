#include "eval/harness.h"

#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::eval {

namespace {

// Featurizes the workload straight into the dataset matrix, one query per
// row, in parallel (row i is written only by query i, so the matrix is
// identical at every QFCARD_THREADS setting).
common::StatusOr<ml::Dataset> FeaturizeSet(
    const featurize::Featurizer& featurizer,
    const std::vector<workload::LabeledQuery>& queries) {
  ml::Dataset out;
  out.x = ml::Matrix(static_cast<int>(queries.size()), featurizer.dim());
  out.y.resize(queries.size());
  QFCARD_RETURN_IF_ERROR(common::GlobalPool().ParallelForStatus(
      static_cast<int64_t>(queries.size()), [&](int64_t i) {
        const workload::LabeledQuery& lq = queries[static_cast<size_t>(i)];
        out.y[static_cast<size_t>(i)] = ml::CardToLabel(lq.card);
        return featurizer.FeaturizeInto(lq.query,
                                        out.x.Row(static_cast<int>(i)));
      }));
  return out;
}

}  // namespace

common::StatusOr<FeaturizedData> FeaturizeWorkload(
    const featurize::Featurizer& featurizer,
    const std::vector<workload::LabeledQuery>& train,
    const std::vector<workload::LabeledQuery>& test, double valid_fraction,
    uint64_t seed) {
  FeaturizedData out;
  QFCARD_ASSIGN_OR_RETURN(ml::Dataset train_all,
                          FeaturizeSet(featurizer, train));
  if (valid_fraction > 0.0 && train_all.num_rows() > 10) {
    common::Rng rng(seed);
    ml::TrainTestSplit split =
        ml::SplitTrainTest(train_all, 1.0 - valid_fraction, rng);
    out.train = std::move(split.train);
    out.valid = std::move(split.test);
  } else {
    out.train = std::move(train_all);
  }
  QFCARD_ASSIGN_OR_RETURN(out.test, FeaturizeSet(featurizer, test));
  out.test_cards.reserve(test.size());
  for (const workload::LabeledQuery& lq : test) out.test_cards.push_back(lq.card);
  return out;
}

common::StatusOr<RunResult> RunQftModel(
    const featurize::Featurizer& featurizer, ml::Model& model,
    const std::vector<workload::LabeledQuery>& train,
    const std::vector<workload::LabeledQuery>& test, double valid_fraction,
    uint64_t seed) {
  RunResult result;
  obs::TraceSpan run_span("harness.run");
  FeaturizedData data;
  {
    obs::TraceSpan span("harness.featurize");
    obs::ScopedTimer feat_timer("harness.featurize_seconds");
    QFCARD_ASSIGN_OR_RETURN(
        data, FeaturizeWorkload(featurizer, train, test, valid_fraction, seed));
    result.featurize_seconds = feat_timer.Stop();
  }

  {
    obs::TraceSpan span("harness.train");
    obs::ScopedTimer train_timer("harness.train_seconds");
    QFCARD_RETURN_IF_ERROR(model.Fit(
        data.train, data.valid.num_rows() > 0 ? &data.valid : nullptr));
    result.train_seconds = train_timer.Stop();
  }
  result.model_bytes = model.SizeBytes();

  obs::TraceSpan predict_span("harness.predict");
  const std::vector<float> preds = model.PredictBatch(data.test.x);
  result.estimates.reserve(preds.size());
  result.qerrors.reserve(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    const double est = ml::LabelToCard(preds[i]);
    result.estimates.push_back(est);
    result.qerrors.push_back(ml::QError(data.test_cards[i], est));
  }
  // The reported summary stays exact; the registry gets the same q-errors
  // bucketed per featurizer.
  if (obs::MetricsEnabled()) {
    obs::Histogram* hist = obs::MetricsRegistry::Global().HistogramNamed(
        "qerror", obs::QErrorBounds(), "qft=" + featurizer.name());
    for (const double q : result.qerrors) hist->Observe(q);
  }
  result.summary = ml::QErrorSummary::FromErrors(result.qerrors);
  return result;
}

std::vector<int> NumAttributesOf(
    const std::vector<workload::LabeledQuery>& queries) {
  std::vector<int> out;
  out.reserve(queries.size());
  for (const workload::LabeledQuery& lq : queries) {
    out.push_back(lq.query.NumAttributes());
  }
  return out;
}

std::vector<int> NumPredicatesOf(
    const std::vector<workload::LabeledQuery>& queries) {
  std::vector<int> out;
  out.reserve(queries.size());
  for (const workload::LabeledQuery& lq : queries) {
    out.push_back(lq.query.NumSimplePredicates());
  }
  return out;
}

}  // namespace qfcard::eval
