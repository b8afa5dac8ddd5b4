#include "ml/mscn.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "estimators/ml_estimator.h"
#include "featurize/mscn_featurizer.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "workload/forest.h"
#include "workload/query_gen.h"

namespace qfcard::ml {
namespace {

using featurize::MscnSample;

MscnParams FastParams() {
  MscnParams p;
  p.hidden = 16;
  p.batch_size = 32;
  p.max_epochs = 60;
  p.max_steps = 3000;
  p.early_stopping_rounds = 0;
  return p;
}

TEST(MscnTest, PredictsWithEmptySets) {
  const Mscn model(3, 2, 4, FastParams());
  MscnSample sample;  // everything empty
  const float out = model.Predict(sample);
  EXPECT_TRUE(std::isfinite(out));
}

TEST(MscnTest, SizeBytesCountsAllFourMlps) {
  const MscnParams p = FastParams();
  const Mscn model(3, 2, 4, p);
  const int h = p.hidden;
  const size_t expected =
      ((3 * h + h) + (h * h + h) +   // table mlp
       (2 * h + h) + (h * h + h) +   // join mlp
       (4 * h + h) + (h * h + h) +   // pred mlp
       (3 * h * h + h) + (h * 1 + 1)) *  // out mlp
      sizeof(float);
  EXPECT_EQ(model.SizeBytes(), expected);
}

TEST(MscnTest, PoolingIsOrderInvariant) {
  const Mscn model(3, 2, 4, FastParams());
  MscnSample a;
  a.pred_vecs = {{1, 0, 0, 0.5f}, {0, 1, 0, 0.2f}};
  MscnSample b;
  b.pred_vecs = {{0, 1, 0, 0.2f}, {1, 0, 0, 0.5f}};
  EXPECT_FLOAT_EQ(model.Predict(a), model.Predict(b));
}

// Synthetic task: label = nonlinear function of the average of a designated
// feature over the predicate set. Average pooling preserves exactly this
// statistic, so the network must learn it (set sums are NOT recoverable
// through average pooling, mirroring the real MSCN's inductive bias).
TEST(MscnTest, LearnsSetRegression) {
  common::Rng rng(5);
  std::vector<MscnSample> samples;
  std::vector<float> labels;
  for (int i = 0; i < 1500; ++i) {
    MscnSample s;
    s.table_vecs = {{1.0f, 0.0f, 0.0f}};
    const int set_size = static_cast<int>(rng.UniformInt(1, 4));
    float sum = 0.0f;
    for (int k = 0; k < set_size; ++k) {
      const float payload = static_cast<float>(rng.Uniform(0, 1));
      s.pred_vecs.push_back({payload, 1.0f, 0.0f, 0.0f});
      sum += payload;
    }
    const float avg = sum / static_cast<float>(set_size);
    samples.push_back(std::move(s));
    labels.push_back(3.0f * avg * avg - avg);
  }
  Mscn model(3, 2, 4, FastParams());
  ASSERT_TRUE(model.Fit(samples, labels, nullptr, nullptr).ok());
  double se = 0.0;
  double var = 0.0;
  double mean = 0.0;
  for (const float y : labels) mean += y;
  mean /= static_cast<double>(labels.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const double d = model.Predict(samples[i]) - labels[i];
    se += d * d;
    var += (labels[i] - mean) * (labels[i] - mean);
  }
  // Explains most of the variance.
  EXPECT_LT(se / var, 0.2);
}

TEST(MscnTest, FitValidatesInputs) {
  Mscn model(3, 2, 4, FastParams());
  std::vector<MscnSample> samples(2);
  std::vector<float> labels(3);
  EXPECT_FALSE(model.Fit(samples, labels, nullptr, nullptr).ok());
  samples.clear();
  labels.clear();
  EXPECT_FALSE(model.Fit(samples, labels, nullptr, nullptr).ok());
}

TEST(MscnTest, SerializationRoundTrip) {
  common::Rng rng(9);
  std::vector<MscnSample> samples;
  std::vector<float> labels;
  for (int i = 0; i < 150; ++i) {
    MscnSample s;
    s.table_vecs = {{1.0f, 0.0f, 0.0f}};
    s.pred_vecs.push_back({static_cast<float>(rng.Uniform(0, 1)), 1, 0, 0});
    samples.push_back(std::move(s));
    labels.push_back(static_cast<float>(rng.Uniform(0, 3)));
  }
  MscnParams p = FastParams();
  p.max_steps = 50;
  Mscn model(3, 2, 4, p);
  ASSERT_TRUE(model.Fit(samples, labels, nullptr, nullptr).ok());

  std::vector<uint8_t> blob;
  ASSERT_TRUE(model.Serialize(&blob).ok());
  Mscn restored(3, 2, 4, p);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  for (size_t i = 0; i < samples.size(); i += 17) {
    EXPECT_FLOAT_EQ(restored.Predict(samples[i]), model.Predict(samples[i]));
  }
}

TEST(MscnTest, DeserializeRejectsDimensionMismatch) {
  MscnParams p = FastParams();
  const Mscn model(3, 2, 4, p);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(model.Serialize(&blob).ok());
  Mscn other_dims(5, 2, 4, p);
  EXPECT_FALSE(other_dims.Deserialize(blob).ok());
}

TEST(MscnTest, EarlyStoppingReturns) {
  common::Rng rng(6);
  std::vector<MscnSample> samples;
  std::vector<float> labels;
  for (int i = 0; i < 200; ++i) {
    MscnSample s;
    s.table_vecs = {{1.0f, 0.0f, 0.0f}};
    s.pred_vecs.push_back({static_cast<float>(rng.Uniform(0, 1)), 0, 0, 0});
    samples.push_back(std::move(s));
    labels.push_back(static_cast<float>(rng.Normal()));  // noise
  }
  MscnParams p = FastParams();
  p.max_epochs = 500;
  p.max_steps = 1000000;
  p.early_stopping_rounds = 3;
  Mscn model(3, 2, 4, p);
  const std::vector<MscnSample> valid(samples.begin(), samples.begin() + 50);
  const std::vector<float> valid_labels(labels.begin(), labels.begin() + 50);
  ASSERT_TRUE(model.Fit(samples, labels, &valid, &valid_labels).ok());
}

// A training set whose last 10 % is one query shape (a single predicate on
// A1), as when per-sub-schema workloads are concatenated. MscnEstimator
// draws its early-stopping set by the shared seeded shuffle, so the set
// mixes shapes; the model equals one fitted by hand on that split and
// differs from one fitted on the tail.
TEST(MscnEstimatorTest, ValidationSplitIsShuffledNotTheTail) {
  workload::ForestOptions fo;
  fo.num_rows = 600;
  fo.num_attributes = 4;
  fo.seed = 3;
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fo)));
  common::Rng rng(13);
  std::vector<query::Query> queries = workload::GeneratePredicateWorkload(
      catalog.table(0), 180, workload::ConjunctiveWorkloadOptions(4), rng);
  for (int i = 0; i < 20; ++i) {
    query::Query q = testutil::SingleTableQuery("forest");
    testutil::AddPredicate(q, 0, query::CmpOp::kLe, 100.0 * i);
    queries.push_back(std::move(q));
  }
  std::vector<double> cards;
  for (size_t i = 0; i < queries.size(); ++i) {
    cards.push_back(static_cast<double>(1 + (i * 37) % 500));
  }
  constexpr double kValid = 0.1;
  constexpr uint64_t kSeed = 17;
  MscnParams params = FastParams();
  params.max_epochs = 6;
  params.early_stopping_rounds = 2;
  const featurize::MscnFeaturizer featurizer(
      &catalog, nullptr, featurize::MscnFeaturizer::PredMode::kPerPredicate);

  est::MscnEstimator estimator(featurizer, params);
  ASSERT_TRUE(estimator.Train(queries, cards, kValid, kSeed).ok());
  std::vector<uint8_t> trained;
  ASSERT_TRUE(estimator.SerializeModel(&trained).ok());

  std::vector<MscnSample> samples;
  std::vector<float> labels;
  for (size_t i = 0; i < queries.size(); ++i) {
    samples.push_back(featurizer.Featurize(queries[i]).value());
    labels.push_back(CardToLabel(cards[i]));
  }
  const auto fit = [&](const std::vector<int>& train_rows,
                       const std::vector<int>& valid_rows) {
    std::vector<MscnSample> ts, vs;
    std::vector<float> tl, vl;
    for (const int r : train_rows) {
      ts.push_back(samples[static_cast<size_t>(r)]);
      tl.push_back(labels[static_cast<size_t>(r)]);
    }
    for (const int r : valid_rows) {
      vs.push_back(samples[static_cast<size_t>(r)]);
      vl.push_back(labels[static_cast<size_t>(r)]);
    }
    Mscn model(featurizer.table_dim(), featurizer.join_dim(),
               featurizer.pred_dim(), params);
    QFCARD_CHECK_OK(model.Fit(ts, tl, &vs, &vl));
    std::vector<uint8_t> bytes;
    QFCARD_CHECK_OK(model.Serialize(&bytes));
    return bytes;
  };

  common::Rng split_rng(kSeed);
  const SplitIndices split = ShuffledSplit(
      static_cast<int>(queries.size()), 1.0 - kValid, split_rng);
  ASSERT_EQ(split.test.size(), 20u);
  const int tail_start = static_cast<int>(queries.size()) - 20;
  EXPECT_TRUE(std::any_of(split.test.begin(), split.test.end(),
                          [&](int r) { return r < tail_start; }))
      << "the validation set holds only the tail's one shape";
  EXPECT_EQ(trained, fit(split.train, split.test));

  std::vector<int> head_rows, tail_rows;
  for (int r = 0; r < static_cast<int>(queries.size()); ++r) {
    (r < tail_start ? head_rows : tail_rows).push_back(r);
  }
  EXPECT_NE(trained, fit(head_rows, tail_rows));
}

}  // namespace
}  // namespace qfcard::ml
