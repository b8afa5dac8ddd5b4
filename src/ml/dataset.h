#ifndef QFCARD_ML_DATASET_H_
#define QFCARD_ML_DATASET_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "ml/matrix.h"

namespace qfcard::ml {

/// A supervised regression dataset: feature matrix X (one row per query's
/// feature vector) and labels y. Throughout qfcard, y holds log2 of the true
/// cardinality (models learn in log space; q-errors are computed in natural
/// space).
struct Dataset {
  Matrix x;
  std::vector<float> y;

  int num_rows() const { return x.rows(); }
  int dim() const { return x.cols(); }

  /// Builds a dataset from per-sample feature vectors (all the same length)
  /// and labels.
  static common::StatusOr<Dataset> FromVectors(
      const std::vector<std::vector<float>>& features,
      const std::vector<float>& labels);

  /// Returns the subset with the given row indices.
  Dataset Subset(const std::vector<int>& rows) const;

  /// Returns the first `n` rows (n clamped to num_rows()).
  Dataset Head(int n) const;
};

/// Row indices of a shuffled train/test split: a seeded permutation of
/// [0, n) whose first round(train_fraction * n) entries train and whose rest
/// test. Every estimator's early-stopping split is drawn this way.
struct SplitIndices {
  std::vector<int> train;
  std::vector<int> test;
};
SplitIndices ShuffledSplit(int n, double train_fraction, common::Rng& rng);

/// Shuffles row order deterministically, then splits into train (first
/// `train_fraction`) and test (ShuffledSplit over the rows).
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};
TrainTestSplit SplitTrainTest(const Dataset& data, double train_fraction,
                              common::Rng& rng);

/// Converts a cardinality (>= 0) to the label space: log2(max(card, 1)).
float CardToLabel(double card);
/// Converts a label-space prediction back to a cardinality estimate,
/// clamped to >= 1 (as in the paper's evaluation: "all estimates are >= 1").
double LabelToCard(float label);

/// Base interface of every trainable regressor in the stack. Models are
/// input-agnostic (Section 2.2): for a fixed input length they accept any
/// numeric vector, which is what makes QFTs freely swappable.
class Model {
 public:
  virtual ~Model() = default;

  /// Trains on `train`; `valid` (optional) enables early stopping.
  virtual common::Status Fit(const Dataset& train, const Dataset* valid) = 0;

  /// Predicts the label for a feature vector of length dim(). Must be
  /// const-thread-safe: the default PredictBatch calls it concurrently for
  /// distinct rows (all models here are pure functions of frozen
  /// parameters).
  virtual float Predict(const float* x) const = 0;

  /// Approximate serialized model size, for the Section 5.7 comparison.
  virtual size_t SizeBytes() const = 0;

  virtual std::string name() const = 0;

  /// Serializes the trained model to bytes (same-machine persistence).
  virtual common::Status Serialize(std::vector<uint8_t>* out) const {
    (void)out;
    return common::Status::Unimplemented(name() + " has no serialization");
  }
  /// Restores a model serialized by Serialize(). Hyperparameters that only
  /// affect training need not match.
  virtual common::Status Deserialize(const std::vector<uint8_t>& data) {
    (void)data;
    return common::Status::Unimplemented(name() + " has no serialization");
  }

  /// Length of the feature vectors Predict expects, or -1 when unknown
  /// (untrained, or the model does not track it). Loaders cross-check this
  /// against the restored featurizer's dim() so a model bundle paired with
  /// the wrong featurizer fails cleanly instead of reading out of bounds.
  virtual int InputDim() const { return -1; }

  /// Predicts all rows of `x`, in row order: the batch primitive every
  /// batched estimate runs. Overrides must return, for every row, the bits
  /// Predict returns for it, at every pool size. The default fans Predict
  /// out over the global thread pool (QFCARD_THREADS), one row per index;
  /// GradientBoosting overrides it with a blocked walk of its compiled
  /// ensemble.
  virtual std::vector<float> PredictBatch(const Matrix& x) const;
};

}  // namespace qfcard::ml

#endif  // QFCARD_ML_DATASET_H_
