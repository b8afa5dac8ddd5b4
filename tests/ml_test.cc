#include <cmath>
#include <limits>

#include "common/random.h"
#include "gtest/gtest.h"
#include "ml/dataset.h"
#include "ml/grid_search.h"
#include "ml/linear.h"
#include "ml/matrix.h"
#include "ml/metrics.h"

namespace qfcard::ml {
namespace {

TEST(MatrixTest, AccessorsAndLayout) {
  Matrix m(2, 3);
  m.At(0, 0) = 1.0f;
  m.At(1, 2) = 5.0f;
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_FLOAT_EQ(m.Row(1)[2], 5.0f);
  EXPECT_EQ(m.SizeBytes(), 6 * sizeof(float));
}

Matrix NaiveMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      out.At(i, j) = acc;
    }
  }
  return out;
}

TEST(MatrixTest, GemmMatchesNaive) {
  common::Rng rng(3);
  Matrix a(4, 5);
  Matrix b(5, 3);
  for (float& v : a.data()) v = static_cast<float>(rng.Normal());
  for (float& v : b.data()) v = static_cast<float>(rng.Normal());
  Matrix out(4, 3);
  GemmAccumulate(a, b, out);
  const Matrix expected = NaiveMul(a, b);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(out.At(i, j), expected.At(i, j), 1e-4);
    }
  }
}

TEST(MatrixTest, GemmBTMatchesNaive) {
  common::Rng rng(4);
  Matrix a(3, 5);
  Matrix b(4, 5);  // interpreted as transposed [5 x 4]
  for (float& v : a.data()) v = static_cast<float>(rng.Normal());
  for (float& v : b.data()) v = static_cast<float>(rng.Normal());
  Matrix out(3, 4);
  GemmBTAccumulate(a, b, out);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < 5; ++k) acc += a.At(i, k) * b.At(j, k);
      EXPECT_NEAR(out.At(i, j), acc, 1e-4);
    }
  }
}

TEST(MatrixTest, GemmATMatchesNaive) {
  common::Rng rng(5);
  Matrix a(6, 3);
  Matrix b(6, 2);
  for (float& v : a.data()) v = static_cast<float>(rng.Normal());
  for (float& v : b.data()) v = static_cast<float>(rng.Normal());
  Matrix out(3, 2);
  GemmATAccumulate(a, b, out);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < 6; ++k) acc += a.At(k, i) * b.At(k, j);
      EXPECT_NEAR(out.At(i, j), acc, 1e-4);
    }
  }
}

TEST(DatasetTest, FromVectorsAndSubset) {
  const auto data_or =
      Dataset::FromVectors({{1, 2}, {3, 4}, {5, 6}}, {10, 20, 30});
  ASSERT_TRUE(data_or.ok());
  const Dataset& data = data_or.value();
  EXPECT_EQ(data.num_rows(), 3);
  EXPECT_EQ(data.dim(), 2);
  const Dataset sub = data.Subset({2, 0});
  EXPECT_EQ(sub.num_rows(), 2);
  EXPECT_FLOAT_EQ(sub.x.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(sub.y[1], 10.0f);
}

TEST(DatasetTest, FromVectorsRejectsMismatch) {
  EXPECT_FALSE(Dataset::FromVectors({{1, 2}}, {1, 2}).ok());
  EXPECT_FALSE(Dataset::FromVectors({{1, 2}, {3}}, {1, 2}).ok());
}

TEST(DatasetTest, SplitPartitionsAllRows) {
  std::vector<std::vector<float>> rows;
  std::vector<float> labels;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({static_cast<float>(i)});
    labels.push_back(static_cast<float>(i));
  }
  const Dataset data = Dataset::FromVectors(rows, labels).value();
  common::Rng rng(9);
  const TrainTestSplit split = SplitTrainTest(data, 0.8, rng);
  EXPECT_EQ(split.train.num_rows(), 80);
  EXPECT_EQ(split.test.num_rows(), 20);
  // All original labels present exactly once.
  std::vector<float> all = split.train.y;
  all.insert(all.end(), split.test.y.begin(), split.test.y.end());
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 100; ++i) EXPECT_FLOAT_EQ(all[static_cast<size_t>(i)], i);
}

TEST(DatasetTest, HeadClampsToSize) {
  const Dataset data =
      Dataset::FromVectors({{1}, {2}, {3}}, {1, 2, 3}).value();
  EXPECT_EQ(data.Head(2).num_rows(), 2);
  EXPECT_FLOAT_EQ(data.Head(2).y[1], 2.0f);
  EXPECT_EQ(data.Head(100).num_rows(), 3);
  EXPECT_EQ(data.Head(0).num_rows(), 0);
}

TEST(DatasetTest, LabelRoundTrip) {
  EXPECT_FLOAT_EQ(CardToLabel(1.0), 0.0f);
  EXPECT_FLOAT_EQ(CardToLabel(1024.0), 10.0f);
  EXPECT_DOUBLE_EQ(LabelToCard(10.0f), 1024.0);
  // Estimates clamp to >= 1 (paper convention).
  EXPECT_DOUBLE_EQ(LabelToCard(-5.0f), 1.0);
  EXPECT_FLOAT_EQ(CardToLabel(0.0), 0.0f);
}

TEST(DatasetTest, NanLabelMapsToOne) {
  // A damaged model can predict NaN; the estimate must still be >= 1.
  EXPECT_EQ(LabelToCard(std::nanf("")), 1.0);
  EXPECT_EQ(LabelToCard(-std::numeric_limits<float>::quiet_NaN()), 1.0);
}

TEST(MetricsTest, QErrorProperties) {
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 50), 2.0);
  EXPECT_DOUBLE_EQ(QError(50, 100), 2.0);  // symmetric
  EXPECT_DOUBLE_EQ(QError(0.0, 0.5), 1.0);  // clamps to >= 1
  EXPECT_GE(QError(3, 7), 1.0);
}

TEST(MetricsTest, SummaryStatistics) {
  std::vector<double> errors;
  for (int i = 1; i <= 100; ++i) errors.push_back(i);
  const QErrorSummary s = QErrorSummary::FromErrors(errors);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.median, 50.5, 0.01);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p99, 100.0, 1.1);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p99);
}

TEST(MetricsTest, QErrorsPairsInputs) {
  const std::vector<double> errors = QErrors({10, 20, 30}, {10, 40, 15});
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_DOUBLE_EQ(errors[0], 1.0);
  EXPECT_DOUBLE_EQ(errors[1], 2.0);
  EXPECT_DOUBLE_EQ(errors[2], 2.0);
  // Mismatched lengths: truncated to the shorter.
  EXPECT_EQ(QErrors({1, 2}, {1}).size(), 1u);
}

TEST(MatrixTest, ZeroSizedGemmIsNoop) {
  Matrix a(0, 3);
  Matrix b(3, 2);
  Matrix out(0, 2);
  GemmAccumulate(a, b, out);  // must not crash
  EXPECT_EQ(out.rows(), 0);
}

TEST(MetricsTest, Rmse) {
  EXPECT_DOUBLE_EQ(Rmse({1, 2}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(Rmse({0, 0}, {3, 4}), std::sqrt(12.5));
}

TEST(LinearRegressionTest, RecoversLinearFunction) {
  common::Rng rng(13);
  std::vector<std::vector<float>> xs;
  std::vector<float> ys;
  for (int i = 0; i < 200; ++i) {
    const float a = static_cast<float>(rng.Uniform(-1, 1));
    const float b = static_cast<float>(rng.Uniform(-1, 1));
    xs.push_back({a, b});
    ys.push_back(3.0f * a - 2.0f * b + 0.5f);
  }
  const Dataset data = Dataset::FromVectors(xs, ys).value();
  LinearRegression model(1e-4);
  ASSERT_TRUE(model.Fit(data, nullptr).ok());
  const float x[2] = {0.3f, -0.7f};
  EXPECT_NEAR(model.Predict(x), 3.0 * 0.3 + 2.0 * 0.7 + 0.5, 1e-2);
  EXPECT_GT(model.SizeBytes(), 0u);
}

TEST(LinearRegressionTest, HandlesDegenerateFeatures) {
  // Duplicated (collinear) columns: ridge regularization keeps the normal
  // equations solvable.
  std::vector<std::vector<float>> xs;
  std::vector<float> ys;
  for (int i = 0; i < 50; ++i) {
    const float a = static_cast<float>(i);
    xs.push_back({a, a});
    ys.push_back(2.0f * a);
  }
  const Dataset data = Dataset::FromVectors(xs, ys).value();
  LinearRegression model(1e-2);
  ASSERT_TRUE(model.Fit(data, nullptr).ok());
  const float x[2] = {10.0f, 10.0f};
  EXPECT_NEAR(model.Predict(x), 20.0, 0.5);
}

TEST(LinearRegressionTest, SerializationRoundTrip) {
  std::vector<std::vector<float>> xs{{1, 2}, {3, 4}, {5, 7}, {2, 1}};
  std::vector<float> ys{1, 2, 3, 4};
  const Dataset data = Dataset::FromVectors(xs, ys).value();
  LinearRegression model(0.1);
  ASSERT_TRUE(model.Fit(data, nullptr).ok());
  std::vector<uint8_t> blob;
  ASSERT_TRUE(model.Serialize(&blob).ok());
  LinearRegression restored(99.0);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  const float x[2] = {2.5f, 3.5f};
  EXPECT_FLOAT_EQ(restored.Predict(x), model.Predict(x));
}

TEST(GridSearchTest, FindsConfigurationOnSimpleProblem) {
  common::Rng rng(21);
  std::vector<std::vector<float>> xs;
  std::vector<float> ys;
  for (int i = 0; i < 400; ++i) {
    const float a = static_cast<float>(rng.Uniform(0, 1));
    xs.push_back({a});
    ys.push_back(a > 0.5f ? 8.0f : 2.0f);
  }
  const Dataset data = Dataset::FromVectors(xs, ys).value();
  common::Rng split_rng(22);
  const TrainTestSplit split = SplitTrainTest(data, 0.8, split_rng);
  GbmGrid grid;
  grid.max_depth = {2, 4};
  grid.learning_rate = {0.2};
  grid.num_trees = {30};
  grid.min_samples_leaf = {5};
  const auto result_or = TuneGbm(split.train, split.test, grid);
  ASSERT_TRUE(result_or.ok()) << result_or.status();
  EXPECT_EQ(result_or.value().configs_tried, 2);
  // A step function in log space: the tuned model should be accurate.
  EXPECT_LT(result_or.value().valid_mean_qerror, 1.5);
}

}  // namespace
}  // namespace qfcard::ml
