#include "ml/gbm.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "ml/metrics.h"
#include "ml/serialize.h"
#include "ml/tree.h"

namespace qfcard::ml {
namespace {

TEST(BinnedFeaturesTest, CodesAreMonotoneInValue) {
  common::Rng rng(1);
  Matrix x(200, 1);
  for (int r = 0; r < 200; ++r) x.At(r, 0) = static_cast<float>(rng.Uniform(0, 100));
  const BinnedFeatures binned = BinnedFeatures::Build(x, 16);
  EXPECT_EQ(binned.num_rows(), 200);
  EXPECT_EQ(binned.num_features(), 1);
  EXPECT_LE(binned.NumBins(0), 16);
  EXPECT_GE(binned.NumBins(0), 2);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j < 200; ++j) {
      if (x.At(i, 0) < x.At(j, 0)) {
        EXPECT_LE(binned.Code(0, i), binned.Code(0, j));
      }
    }
  }
}

TEST(BinnedFeaturesTest, ThresholdsSeparateBins) {
  Matrix x(6, 1);
  const float values[6] = {1, 1, 2, 2, 3, 3};
  for (int r = 0; r < 6; ++r) x.At(r, 0) = values[r];
  const BinnedFeatures binned = BinnedFeatures::Build(x, 4);
  // Rows with x <= Threshold(0, b) have codes <= b.
  for (int b = 0; b + 1 < binned.NumBins(0); ++b) {
    const float th = binned.Threshold(0, b);
    for (int r = 0; r < 6; ++r) {
      if (x.At(r, 0) <= th) {
        EXPECT_LE(binned.Code(0, r), b);
      } else {
        EXPECT_GT(binned.Code(0, r), b);
      }
    }
  }
}

TEST(BinnedFeaturesTest, ConstantColumnHasOneBin) {
  Matrix x(10, 1);
  for (int r = 0; r < 10; ++r) x.At(r, 0) = 5.0f;
  const BinnedFeatures binned = BinnedFeatures::Build(x, 8);
  EXPECT_EQ(binned.NumBins(0), 1);
}

TEST(RegressionTreeTest, FitsStepFunctionExactly) {
  Matrix x(100, 1);
  std::vector<float> y(100);
  std::vector<int> rows(100);
  for (int r = 0; r < 100; ++r) {
    x.At(r, 0) = static_cast<float>(r);
    y[static_cast<size_t>(r)] = r < 50 ? -1.0f : 3.0f;
    rows[static_cast<size_t>(r)] = r;
  }
  const BinnedFeatures binned = BinnedFeatures::Build(x, 32);
  RegressionTree tree;
  RegressionTree::Params params;
  params.max_depth = 2;
  params.min_samples_leaf = 5;
  tree.Fit(binned, y, rows, params);
  const float lo = 10.0f;
  const float hi = 80.0f;
  EXPECT_FLOAT_EQ(tree.Predict(&lo), -1.0f);
  EXPECT_FLOAT_EQ(tree.Predict(&hi), 3.0f);
  EXPECT_FALSE(tree.nodes().empty());
}

TEST(RegressionTreeTest, DepthZeroPredictsMean) {
  Matrix x(4, 1);
  std::vector<float> y{1, 2, 3, 4};
  std::vector<int> rows{0, 1, 2, 3};
  for (int r = 0; r < 4; ++r) x.At(r, 0) = static_cast<float>(r);
  const BinnedFeatures binned = BinnedFeatures::Build(x, 8);
  RegressionTree tree;
  RegressionTree::Params params;
  params.max_depth = 0;
  params.min_samples_leaf = 1;
  tree.Fit(binned, y, rows, params);
  const float v = 2.0f;
  EXPECT_FLOAT_EQ(tree.Predict(&v), 2.5f);
}

TEST(RegressionTreeTest, RespectsMinSamplesLeaf) {
  Matrix x(10, 1);
  std::vector<float> y(10);
  std::vector<int> rows(10);
  for (int r = 0; r < 10; ++r) {
    x.At(r, 0) = static_cast<float>(r);
    y[static_cast<size_t>(r)] = static_cast<float>(r);
    rows[static_cast<size_t>(r)] = r;
  }
  const BinnedFeatures binned = BinnedFeatures::Build(x, 32);
  RegressionTree tree;
  RegressionTree::Params params;
  params.max_depth = 10;
  params.min_samples_leaf = 6;  // 2 * 6 > 10 -> no split possible
  tree.Fit(binned, y, rows, params);
  EXPECT_EQ(tree.nodes().size(), 1u);
}

Dataset MakeAdditiveDataset(int n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<float>> xs;
  std::vector<float> ys;
  for (int i = 0; i < n; ++i) {
    const float a = static_cast<float>(rng.Uniform(0, 1));
    const float b = static_cast<float>(rng.Uniform(0, 1));
    const float c = static_cast<float>(rng.Uniform(0, 1));
    xs.push_back({a, b, c});
    ys.push_back(4.0f * a + std::sin(6.28f * b) + 0.5f * c * c);
  }
  return Dataset::FromVectors(xs, ys).value();
}

TEST(GradientBoostingTest, LearnsAdditiveFunction) {
  const Dataset train = MakeAdditiveDataset(2000, 31);
  const Dataset test = MakeAdditiveDataset(300, 32);
  GbmParams params;
  params.num_trees = 120;
  params.learning_rate = 0.1;
  params.max_depth = 4;
  params.min_samples_leaf = 10;
  params.early_stopping_rounds = 0;
  GradientBoosting model(params);
  ASSERT_TRUE(model.Fit(train, nullptr).ok());
  const double rmse = Rmse(model.PredictBatch(test.x), test.y);
  EXPECT_LT(rmse, 0.25);
  // Far better than predicting the mean (label sd is ~1.3).
  EXPECT_GT(model.num_trees(), 50);
}

TEST(GradientBoostingTest, MoreTreesReduceTrainError) {
  const Dataset train = MakeAdditiveDataset(1000, 33);
  GbmParams small;
  small.num_trees = 10;
  small.early_stopping_rounds = 0;
  GbmParams large = small;
  large.num_trees = 100;
  GradientBoosting m_small(small);
  GradientBoosting m_large(large);
  ASSERT_TRUE(m_small.Fit(train, nullptr).ok());
  ASSERT_TRUE(m_large.Fit(train, nullptr).ok());
  EXPECT_LT(Rmse(m_large.PredictBatch(train.x), train.y),
            Rmse(m_small.PredictBatch(train.x), train.y));
}

TEST(GradientBoostingTest, EarlyStoppingTruncates) {
  const Dataset train = MakeAdditiveDataset(800, 34);
  const Dataset valid = MakeAdditiveDataset(200, 35);
  GbmParams params;
  params.num_trees = 400;
  params.learning_rate = 0.3;
  params.early_stopping_rounds = 5;
  GradientBoosting model(params);
  ASSERT_TRUE(model.Fit(train, &valid).ok());
  EXPECT_LT(model.num_trees(), 400);
}

TEST(GradientBoostingTest, EmptyTrainingSetRejected) {
  Dataset empty;
  GradientBoosting model;
  EXPECT_FALSE(model.Fit(empty, nullptr).ok());
}

TEST(GradientBoostingTest, NonFiniteTrainingDataRejected) {
  const Dataset clean = MakeAdditiveDataset(200, 38);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  GbmParams params;
  params.num_trees = 5;
  {
    Dataset bad = clean;
    bad.x.At(17, 1) = nan;
    GradientBoosting model(params);
    const common::Status status = model.Fit(bad, nullptr);
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument)
        << status.ToString();
  }
  for (const float label : {nan, inf, -inf}) {
    Dataset bad = clean;
    bad.y[42] = label;
    GradientBoosting model(params);
    EXPECT_EQ(model.Fit(bad, nullptr).code(),
              common::StatusCode::kInvalidArgument)
        << label;
    EXPECT_EQ(model.Fit(clean, &bad).code(),
              common::StatusCode::kInvalidArgument)
        << "valid label " << label;
  }
  // Infinite features bin at the ends and are accepted.
  Dataset extreme = clean;
  extreme.x.At(3, 0) = inf;
  extreme.x.At(4, 2) = -inf;
  GradientBoosting model(params);
  EXPECT_TRUE(model.Fit(extreme, nullptr).ok());
}

TEST(GradientBoostingTest, ConstantLabelsPredictConstant) {
  std::vector<std::vector<float>> xs;
  std::vector<float> ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back({static_cast<float>(i)});
    ys.push_back(7.0f);
  }
  const Dataset data = Dataset::FromVectors(xs, ys).value();
  GradientBoosting model;
  ASSERT_TRUE(model.Fit(data, nullptr).ok());
  const float x = 50.0f;
  EXPECT_NEAR(model.Predict(&x), 7.0f, 1e-4);
}

TEST(GradientBoostingTest, SubsampleStillLearns) {
  const Dataset train = MakeAdditiveDataset(1500, 36);
  GbmParams params;
  params.num_trees = 150;
  params.subsample = 0.7;
  params.early_stopping_rounds = 0;
  GradientBoosting model(params);
  ASSERT_TRUE(model.Fit(train, nullptr).ok());
  EXPECT_LT(Rmse(model.PredictBatch(train.x), train.y), 0.35);
}

TEST(GradientBoostingTest, SerializationRoundTrip) {
  const Dataset train = MakeAdditiveDataset(600, 40);
  GbmParams params;
  params.num_trees = 40;
  params.learning_rate = 0.17;
  params.early_stopping_rounds = 0;
  GradientBoosting model(params);
  ASSERT_TRUE(model.Fit(train, nullptr).ok());

  std::vector<uint8_t> blob;
  ASSERT_TRUE(model.Serialize(&blob).ok());
  EXPECT_GT(blob.size(), 100u);

  GradientBoosting restored;  // default hyperparameters differ on purpose
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  EXPECT_EQ(restored.num_trees(), model.num_trees());
  for (int i = 0; i < train.num_rows(); i += 37) {
    EXPECT_FLOAT_EQ(restored.Predict(train.x.Row(i)),
                    model.Predict(train.x.Row(i)));
  }
}

TEST(GradientBoostingTest, DeserializeRejectsGarbage) {
  GradientBoosting model;
  EXPECT_FALSE(model.Deserialize({1, 2, 3}).ok());
  std::vector<uint8_t> wrong_magic(16, 0);
  EXPECT_FALSE(model.Deserialize(wrong_magic).ok());
}

// A GB payload in the Serialize format: header, then one node list per tree.
std::vector<uint8_t> GbPayload(int num_features, float base,
                               double learning_rate,
                               const std::vector<std::vector<TreeNode>>& trees) {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.Write<uint32_t>(0x5147424d);  // "QGBM"
  writer.Write(base);
  writer.Write(learning_rate);
  writer.Write<int32_t>(num_features);
  writer.Write<uint32_t>(static_cast<uint32_t>(trees.size()));
  for (const std::vector<TreeNode>& nodes : trees) writer.WriteVector(nodes);
  return out;
}

TreeNode Leaf(float value) {
  TreeNode node;
  node.value = value;
  return node;
}

TreeNode Split(int feature, float threshold, int left) {
  TreeNode node;
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = left + 1;
  return node;
}

TEST(GradientBoostingTest, DeserializeRejectsMalformedNodes) {
  const auto rejects = [](const std::vector<TreeNode>& nodes) {
    GradientBoosting model;
    return !model.Deserialize(GbPayload(2, 0.0f, 0.1, {nodes})).ok();
  };
  ASSERT_FALSE(rejects({Split(0, 0.5f, 1), Leaf(1), Leaf(2)}));
  // A node with a feature is internal, whatever its child fields say.
  TreeNode leaf_with_feature = Leaf(1);
  leaf_with_feature.feature = 0;
  EXPECT_TRUE(rejects({leaf_with_feature}));
  // A leaf has no children.
  TreeNode leaf_with_children = Leaf(1);
  leaf_with_children.left = 1;
  leaf_with_children.right = 2;
  EXPECT_TRUE(rejects({leaf_with_children, Leaf(2), Leaf(3)}));
  TreeNode one_child_leaf = Leaf(1);
  one_child_leaf.right = 1;
  EXPECT_TRUE(rejects({one_child_leaf, Leaf(2)}));
  // Children of an internal node are adjacent: right == left + 1.
  TreeNode apart = Split(0, 0.5f, 1);
  apart.right = 3;
  EXPECT_TRUE(rejects({apart, Leaf(1), Leaf(2), Leaf(3)}));
  TreeNode swapped = Split(0, 0.5f, 2);
  swapped.right = 1;
  EXPECT_TRUE(rejects({swapped, Leaf(1), Leaf(2)}));
  // Children come after their parent and inside the tree.
  EXPECT_TRUE(rejects({Split(0, 0.5f, 0), Leaf(1)}));
  EXPECT_TRUE(rejects({Split(0, 0.5f, 1), Leaf(1)}));
  EXPECT_TRUE(rejects({Split(2, 0.5f, 1), Leaf(1), Leaf(2)}));
}

// The trees of a serialized model as RegressionTrees, and the reference
// prediction they define: base, plus learning_rate * each tree's leaf in
// tree order, summed in double.
struct ReferenceEnsemble {
  float base = 0.0f;
  double learning_rate = 0.0;
  std::vector<RegressionTree> trees;

  static ReferenceEnsemble FromPayload(const std::vector<uint8_t>& payload) {
    ReferenceEnsemble ref;
    ByteReader reader(payload);
    uint32_t magic = 0;
    int32_t num_features = 0;
    uint32_t num_trees = 0;
    EXPECT_TRUE(reader.Read(&magic).ok());
    EXPECT_TRUE(reader.Read(&ref.base).ok());
    EXPECT_TRUE(reader.Read(&ref.learning_rate).ok());
    EXPECT_TRUE(reader.Read(&num_features).ok());
    EXPECT_TRUE(reader.Read(&num_trees).ok());
    for (uint32_t t = 0; t < num_trees; ++t) {
      std::vector<TreeNode> nodes;
      EXPECT_TRUE(reader.ReadVector(&nodes).ok());
      ref.trees.emplace_back();
      ref.trees.back().SetNodes(std::move(nodes));
    }
    EXPECT_TRUE(reader.AtEnd());
    return ref;
  }

  float Predict(const float* x) const {
    double acc = base;
    for (const RegressionTree& tree : trees) {
      acc += learning_rate * tree.Predict(x);
    }
    return static_cast<float>(acc);
  }
};

// Rows drawn like the training data, with NaN and +-inf mixed into some.
Matrix ProbeRows(int rows, int dim, uint64_t seed) {
  common::Rng rng(seed);
  Matrix x(rows, dim);
  const float specials[3] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < dim; ++c) {
      x.At(r, c) = rng.Bernoulli(0.1)
                       ? specials[rng.UniformInt(0, 2)]
                       : static_cast<float>(rng.Uniform(-0.2, 1.2));
    }
  }
  return x;
}

// PredictBatch and Predict return, byte for byte, what the reference sum
// over the model's own serialized trees returns.
void ExpectMatchesReference(const GradientBoosting& model, const Matrix& x) {
  std::vector<uint8_t> payload;
  ASSERT_TRUE(model.Serialize(&payload).ok());
  const ReferenceEnsemble ref = ReferenceEnsemble::FromPayload(payload);
  ASSERT_EQ(static_cast<int>(ref.trees.size()), model.num_trees());
  std::vector<float> expected(static_cast<size_t>(x.rows()));
  std::vector<float> single(static_cast<size_t>(x.rows()));
  for (int r = 0; r < x.rows(); ++r) {
    expected[static_cast<size_t>(r)] = ref.Predict(x.Row(r));
    single[static_cast<size_t>(r)] = model.Predict(x.Row(r));
  }
  const std::vector<float> batch = model.PredictBatch(x);
  ASSERT_EQ(batch.size(), expected.size());
  if (expected.empty()) return;  // memcmp takes no null pointers
  const size_t bytes = expected.size() * sizeof(float);
  EXPECT_EQ(std::memcmp(batch.data(), expected.data(), bytes), 0)
      << "rows=" << x.rows();
  EXPECT_EQ(std::memcmp(single.data(), expected.data(), bytes), 0)
      << "rows=" << x.rows();
}

TEST(GradientBoostingTest, CompiledWalkMatchesTreeReference) {
  const Dataset train = MakeAdditiveDataset(1500, 41);
  constexpr int kBlock = GradientBoosting::kBlockRows;
  for (const int depth : {0, 1, 6, 10}) {
    GbmParams params;
    params.num_trees = 25;
    params.max_depth = depth;
    params.min_samples_leaf = 2;
    params.early_stopping_rounds = 0;
    GradientBoosting model(params);
    ASSERT_TRUE(model.Fit(train, nullptr).ok());
    for (const int rows : {0, 1, kBlock - 1, kBlock, kBlock + 1, 1000}) {
      SCOPED_TRACE(::testing::Message() << "max_depth=" << depth);
      ExpectMatchesReference(model, ProbeRows(rows, train.dim(), 50 + rows));
    }
  }
}

TEST(GradientBoostingTest, CompiledWalkMatchesReferenceOnChainTrees) {
  // Two maximally unbalanced trees of depth kDepth: one descends through
  // right children, the other through left children.
  constexpr int kDepth = 40;
  std::vector<TreeNode> right_chain;
  for (int d = 0; d < kDepth; ++d) {
    const int self = static_cast<int>(right_chain.size());
    right_chain.push_back(Split(d % 3, 0.02f * static_cast<float>(d), self + 1));
    right_chain.push_back(Leaf(static_cast<float>(d)));
  }
  right_chain.push_back(Leaf(-1.0f));
  std::vector<TreeNode> left_chain{Split(1, 1.0f, 1)};
  for (int d = 1; d < kDepth; ++d) {
    // Internal node at index 2d - 1; its leaf sibling follows it.
    left_chain.push_back(Split(d % 3, 1.0f - 0.02f * static_cast<float>(d),
                               static_cast<int>(left_chain.size()) + 2));
    left_chain.push_back(Leaf(0.5f * static_cast<float>(d)));
  }
  left_chain.push_back(Leaf(7.0f));
  left_chain.push_back(Leaf(-7.0f));
  GradientBoosting model;
  ASSERT_TRUE(model.Deserialize(GbPayload(3, 0.25f, 0.3,
                                          {right_chain, left_chain}))
                  .ok());
  ASSERT_EQ(model.num_trees(), 2);
  for (const int rows : {1, GradientBoosting::kBlockRows + 1, 1000}) {
    ExpectMatchesReference(model, ProbeRows(rows, 3, 60 + rows));
  }
}

TEST(GradientBoostingTest, SerializeIsStableAcrossRoundTrip) {
  const Dataset train = MakeAdditiveDataset(800, 42);
  const Dataset valid = MakeAdditiveDataset(200, 43);
  GbmParams params;
  params.num_trees = 200;
  params.learning_rate = 0.3;
  params.early_stopping_rounds = 5;
  GradientBoosting model(params);
  ASSERT_TRUE(model.Fit(train, &valid).ok());
  ASSERT_LT(model.num_trees(), 200);  // early stopping truncated the arrays
  std::vector<uint8_t> blob;
  ASSERT_TRUE(model.Serialize(&blob).ok());
  GradientBoosting restored;
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  std::vector<uint8_t> again;
  ASSERT_TRUE(restored.Serialize(&again).ok());
  EXPECT_EQ(again, blob);
  EXPECT_EQ(restored.SizeBytes(), model.SizeBytes());
  ExpectMatchesReference(model, ProbeRows(100, train.dim(), 44));
}

std::vector<uint8_t> SerializedFit(const GbmParams& params,
                                   const Dataset& train,
                                   const Dataset* valid) {
  GradientBoosting model(params);
  EXPECT_TRUE(model.Fit(train, valid).ok());
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(model.Serialize(&bytes).ok());
  return bytes;
}

TEST(GradientBoostingTest, DeterministicForFixedSeed) {
  const Dataset train = MakeAdditiveDataset(500, 37);
  GbmParams params;
  params.num_trees = 30;
  params.subsample = 0.8;
  params.seed = 5;
  params.early_stopping_rounds = 0;
  const std::vector<uint8_t> first = SerializedFit(params, train, nullptr);
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(SerializedFit(params, train, nullptr), first);
}

// FNV-1a over a byte string.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

// Twelve columns: uniform reals, small integer domains (many ties), two
// constant columns, and a label over the varying ones.
Dataset MakeTiedDataset(int n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<float>> xs;
  std::vector<float> ys;
  for (int i = 0; i < n; ++i) {
    std::vector<float> x(12);
    for (int c = 0; c < 4; ++c) {
      x[static_cast<size_t>(c)] = static_cast<float>(rng.Uniform(0, 1));
    }
    for (int c = 4; c < 10; ++c) {
      x[static_cast<size_t>(c)] =
          static_cast<float>(rng.UniformInt(0, c - 2));  // 3..8 values
    }
    x[10] = 1.0f;
    x[11] = -3.5f;
    ys.push_back(2.0f * x[0] - x[1] * x[2] + 0.5f * x[4] + 0.25f * x[7] +
                 (x[9] > 3.0f ? 1.0f : 0.0f));
    xs.push_back(std::move(x));
  }
  return Dataset::FromVectors(xs, ys).value();
}

// Serialized model bytes of fixed-seed fits. The digests pin the tree
// builder: every histogram sum, split choice and node index must come out
// the same at every pool size, so a rewrite of the builder that changes any
// of them fails here.
TEST(GradientBoostingTest, FitBytesMatchParentDigests) {
  const Dataset additive = MakeAdditiveDataset(1200, 51);
  const Dataset valid = MakeAdditiveDataset(300, 52);
  const Dataset tied = MakeTiedDataset(1500, 53);
  struct Case {
    const char* name;
    GbmParams params;
    const Dataset* train;
    const Dataset* valid;
    uint64_t digest;
  };
  std::vector<Case> cases;
  GbmParams p;
  cases.push_back({"default", p, &additive, nullptr,
                   0xfdbb6e14389a48caULL});
  p = GbmParams{};
  p.num_trees = 40;
  p.max_depth = 1;
  cases.push_back({"max_depth=1", p, &additive, nullptr,
                   0xeecb0febcbd8c2a3ULL});
  p.max_depth = 10;
  cases.push_back({"max_depth=10", p, &additive, nullptr,
                   0x31cafc9857214d03ULL});
  p = GbmParams{};
  p.num_trees = 40;
  p.min_samples_leaf = 1;
  cases.push_back({"min_samples_leaf=1", p, &additive, nullptr,
                   0x770d4b0beb93049fULL});
  p = GbmParams{};
  p.num_trees = 60;
  p.subsample = 0.8;
  p.seed = 9;
  cases.push_back({"subsample=0.8", p, &additive, nullptr,
                   0xd1f552b5bb0d3505ULL});
  p = GbmParams{};
  p.num_trees = 300;
  p.learning_rate = 0.3;
  p.early_stopping_rounds = 5;
  cases.push_back({"early_stopping", p, &additive, &valid,
                   0xc51cb3c520ab177cULL});
  p = GbmParams{};
  p.num_trees = 60;
  p.min_samples_leaf = 3;
  cases.push_back({"constant_and_tied", p, &tied, nullptr,
                   0x7de8e02b088c9a10ULL});

  for (const int threads : {1, 3, 4}) {
    common::SetGlobalThreads(threads);
    for (const Case& c : cases) {
      const uint64_t digest =
          Fnv1a(SerializedFit(c.params, *c.train, c.valid));
      EXPECT_EQ(digest, c.digest)
          << c.name << " at " << threads << " threads: 0x" << std::hex
          << digest;
    }
  }
  common::SetGlobalThreads(common::ThreadPoolSizeFromEnv());
}

}  // namespace
}  // namespace qfcard::ml
