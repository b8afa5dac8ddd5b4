#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/str_util.h"
#include "common/thread_pool.h"

namespace qfcard::ml {

std::vector<float> Model::PredictBatch(const Matrix& x) const {
  std::vector<float> out(static_cast<size_t>(x.rows()));
  common::GlobalPool().ParallelFor(x.rows(), [&](int64_t i) {
    out[static_cast<size_t>(i)] = Predict(x.Row(static_cast<int>(i)));
  });
  return out;
}

common::StatusOr<Dataset> Dataset::FromVectors(
    const std::vector<std::vector<float>>& features,
    const std::vector<float>& labels) {
  if (features.size() != labels.size()) {
    return common::Status::InvalidArgument(common::StrFormat(
        "features (%zu) and labels (%zu) differ in length", features.size(),
        labels.size()));
  }
  Dataset out;
  if (features.empty()) return out;
  const int dim = static_cast<int>(features[0].size());
  out.x = Matrix(static_cast<int>(features.size()), dim);
  for (size_t i = 0; i < features.size(); ++i) {
    if (static_cast<int>(features[i].size()) != dim) {
      return common::Status::InvalidArgument(
          "feature vectors have inconsistent lengths");
    }
    std::memcpy(out.x.Row(static_cast<int>(i)), features[i].data(),
                static_cast<size_t>(dim) * sizeof(float));
  }
  out.y = labels;
  return out;
}

Dataset Dataset::Subset(const std::vector<int>& rows) const {
  Dataset out;
  out.x = Matrix(static_cast<int>(rows.size()), dim());
  out.y.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.x.Row(static_cast<int>(i)), x.Row(rows[i]),
                static_cast<size_t>(dim()) * sizeof(float));
    out.y[i] = y[static_cast<size_t>(rows[i])];
  }
  return out;
}

Dataset Dataset::Head(int n) const {
  n = std::min(n, num_rows());
  std::vector<int> rows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
  return Subset(rows);
}

SplitIndices ShuffledSplit(int n, double train_fraction, common::Rng& rng) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(order);
  const auto n_train = static_cast<long>(
      std::llround(train_fraction * static_cast<double>(n)));
  return SplitIndices{std::vector<int>(order.begin(), order.begin() + n_train),
                      std::vector<int>(order.begin() + n_train, order.end())};
}

TrainTestSplit SplitTrainTest(const Dataset& data, double train_fraction,
                              common::Rng& rng) {
  const SplitIndices split =
      ShuffledSplit(data.num_rows(), train_fraction, rng);
  return TrainTestSplit{data.Subset(split.train), data.Subset(split.test)};
}

float CardToLabel(double card) {
  return static_cast<float>(std::log2(std::max(card, 1.0)));
}

double LabelToCard(float label) {
  // Written so a NaN label (a damaged model) maps to 1 as well: std::max
  // would pass the NaN through.
  const double card = std::exp2(static_cast<double>(label));
  return card >= 1.0 ? card : 1.0;
}

}  // namespace qfcard::ml
