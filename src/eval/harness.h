#ifndef QFCARD_EVAL_HARNESS_H_
#define QFCARD_EVAL_HARNESS_H_

#include <vector>

#include "common/status.h"
#include "featurize/featurizer.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "workload/labeler.h"

namespace qfcard::eval {

// Wall-clock timing goes through obs::ScopedTimer (obs/metrics.h) — the
// old eval::Timer was removed so every stage and bench shares one clock
// path and can feed the telemetry registry.

/// A featurized train/valid/test bundle produced by one featurizer from a
/// labeled workload.
struct FeaturizedData {
  ml::Dataset train;
  ml::Dataset valid;
  ml::Dataset test;
  std::vector<double> test_cards;  ///< natural-space truths, test order
};

/// Featurizes the workloads with `featurizer`; a `valid_fraction` slice of
/// the (shuffled) training set is held out for early stopping.
/// Featurization fans out over the global thread pool (QFCARD_THREADS) and
/// produces bit-identical datasets at every thread count.
common::StatusOr<FeaturizedData> FeaturizeWorkload(
    const featurize::Featurizer& featurizer,
    const std::vector<workload::LabeledQuery>& train,
    const std::vector<workload::LabeledQuery>& test, double valid_fraction,
    uint64_t seed);

/// One end-to-end QFT x model evaluation.
struct RunResult {
  std::vector<double> estimates;  ///< per test query, natural space
  std::vector<double> qerrors;    ///< per test query
  ml::QErrorSummary summary;
  size_t model_bytes = 0;
  double featurize_seconds = 0.0;
  double train_seconds = 0.0;
};

/// Featurizes, trains `model`, and evaluates q-errors on the test set.
/// Featurization and test-set prediction are batched/parallel (see
/// FeaturizeWorkload and ml::Model::PredictBatch).
///
/// Telemetry: when QFCARD_METRICS is on, every test q-error lands in the
/// `qerror{qft=<featurizer name>}` histogram; stage latencies land in
/// harness.* histograms.
/// The returned summary stays exact (full sort) regardless.
common::StatusOr<RunResult> RunQftModel(
    const featurize::Featurizer& featurizer, ml::Model& model,
    const std::vector<workload::LabeledQuery>& train,
    const std::vector<workload::LabeledQuery>& test,
    double valid_fraction = 0.1, uint64_t seed = 99);

/// Per-query group keys of a labeled workload (for Figures 2/3/5).
std::vector<int> NumAttributesOf(const std::vector<workload::LabeledQuery>& queries);
std::vector<int> NumPredicatesOf(const std::vector<workload::LabeledQuery>& queries);

}  // namespace qfcard::eval

#endif  // QFCARD_EVAL_HARNESS_H_
