#include "ml/gbm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ml/metrics.h"
#include "ml/serialize.h"

namespace qfcard::ml {

common::Status GradientBoosting::Fit(const Dataset& train,
                                     const Dataset* valid) {
  TruncateTrees(0);
  if (train.num_rows() == 0) {
    return common::Status::InvalidArgument("empty training set");
  }
  // Binning sorts raw values (a NaN breaks the ordering) and would code a
  // NaN left, while the tree walk sends it right; labels feed every sum.
  for (const float v : train.x.data()) {
    if (std::isnan(v)) {
      return common::Status::InvalidArgument("NaN training feature");
    }
  }
  for (const Dataset* set : {&train, valid}) {
    if (set == nullptr) continue;
    for (const float v : set->y) {
      if (!std::isfinite(v)) {
        return common::Status::InvalidArgument("non-finite training label");
      }
    }
  }
  num_features_ = train.dim();
  double sum = 0.0;
  for (const float v : train.y) sum += v;
  base_ = static_cast<float>(sum / train.num_rows());

  const BinnedFeatures binned = BinnedFeatures::Build(train.x, params_.max_bins);
  common::Rng rng(params_.seed);
  common::ThreadPool& pool = common::GlobalPool();

  std::vector<float> pred(train.y.size(), base_);
  std::vector<float> residuals(train.y.size());
  for (size_t i = 0; i < residuals.size(); ++i) {
    residuals[i] = train.y[i] - pred[i];
  }
  std::vector<float> valid_pred;
  if (valid != nullptr) valid_pred.assign(valid->y.size(), base_);

  RegressionTree::Params tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_samples_leaf = params_.min_samples_leaf;

  double best_valid_rmse = std::numeric_limits<double>::infinity();
  int best_size = 0;

  std::vector<int> rows;
  for (int t = 0; t < params_.num_trees; ++t) {
    rows.clear();
    if (params_.subsample >= 1.0) {
      rows.resize(static_cast<size_t>(train.num_rows()));
      for (int i = 0; i < train.num_rows(); ++i) rows[static_cast<size_t>(i)] = i;
    } else {
      for (int i = 0; i < train.num_rows(); ++i) {
        if (rng.Bernoulli(params_.subsample)) rows.push_back(i);
      }
      if (rows.empty()) rows.push_back(0);
    }
    RegressionTree tree;
    tree.Fit(binned, residuals, rows, tree_params);
    // Per-row updates write only their own slots.
    const float lr = static_cast<float>(params_.learning_rate);
    pool.ParallelFor(train.num_rows(), [&](int64_t row) {
      const size_t i = static_cast<size_t>(row);
      pred[i] += lr * tree.Predict(train.x.Row(static_cast<int>(row)));
      residuals[i] = train.y[i] - pred[i];
    });
    if (valid != nullptr) {
      pool.ParallelFor(valid->num_rows(), [&](int64_t row) {
        valid_pred[static_cast<size_t>(row)] +=
            lr * tree.Predict(valid->x.Row(static_cast<int>(row)));
      });
    }
    AppendTree(tree.nodes());

    if (valid != nullptr && params_.early_stopping_rounds > 0) {
      const double rmse = Rmse(valid_pred, valid->y);
      if (rmse < best_valid_rmse - 1e-9) {
        best_valid_rmse = rmse;
        best_size = num_trees();
      } else if (num_trees() - best_size >= params_.early_stopping_rounds) {
        TruncateTrees(best_size);
        break;
      }
    }
  }
  return common::Status::Ok();
}

void GradientBoosting::AppendTree(const std::vector<TreeNode>& nodes) {
  const int32_t root = static_cast<int32_t>(feature_.size());
  std::vector<int32_t> depth(nodes.size(), 0);
  int32_t tree_depth = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& node = nodes[i];
    const int32_t self = root + static_cast<int32_t>(i);
    value_.push_back(node.value);
    if (node.feature < 0) {
      feature_.push_back(0);
      threshold_.push_back(std::numeric_limits<float>::quiet_NaN());
      first_child_.push_back(self - 1);
      continue;
    }
    feature_.push_back(node.feature);
    threshold_.push_back(node.threshold);
    first_child_.push_back(root + node.left);
    // Children follow their parent, so depth[i] is final here.
    for (const int child : {node.left, node.right}) {
      int32_t& d = depth[static_cast<size_t>(child)];
      d = std::max(d, depth[i] + 1);
      tree_depth = std::max(tree_depth, d);
    }
  }
  tree_root_.push_back(root);
  tree_depth_.push_back(tree_depth);
}

void GradientBoosting::TruncateTrees(int num_trees) {
  const size_t trees = static_cast<size_t>(num_trees);
  const size_t nodes = trees < tree_root_.size()
                           ? static_cast<size_t>(tree_root_[trees])
                           : feature_.size();
  feature_.resize(nodes);
  threshold_.resize(nodes);
  first_child_.resize(nodes);
  value_.resize(nodes);
  tree_root_.resize(std::min(trees, tree_root_.size()));
  tree_depth_.resize(tree_root_.size());
}

std::vector<TreeNode> GradientBoosting::TreeNodes(int t) const {
  const size_t tree = static_cast<size_t>(t);
  const int32_t root = tree_root_[tree];
  const int32_t end = tree + 1 < tree_root_.size()
                          ? tree_root_[tree + 1]
                          : static_cast<int32_t>(feature_.size());
  std::vector<TreeNode> nodes;
  nodes.reserve(static_cast<size_t>(end - root));
  for (int32_t n = root; n < end; ++n) {
    const size_t i = static_cast<size_t>(n);
    TreeNode node;
    node.value = value_[i];
    if (first_child_[i] != n - 1) {  // internal: children follow it
      node.feature = feature_[i];
      node.threshold = threshold_[i];
      node.left = first_child_[i] - root;
      node.right = node.left + 1;
    }
    nodes.push_back(node);
  }
  return nodes;
}

void GradientBoosting::PredictBlock(const float* x, size_t stride, int rows,
                                    float* out) const {
  const int32_t* const feature = feature_.data();
  const float* const threshold = threshold_.data();
  const int32_t* const first_child = first_child_.data();
  const double learning_rate = params_.learning_rate;
  double acc[kBlockRows];
  int32_t node[kBlockRows];
  for (int r = 0; r < rows; ++r) acc[r] = base_;
  for (size_t t = 0; t < tree_root_.size(); ++t) {
    for (int r = 0; r < rows; ++r) node[r] = tree_root_[t];
    // Fixed-depth, branch-free descent; leaves absorb (see gbm.h). The
    // compare must stay IEEE: a NaN feature or threshold goes right.
    for (int32_t level = 0; level < tree_depth_[t]; ++level) {
      for (int r = 0; r < rows; ++r) {
        const int32_t n = node[r];
        const float v = x[static_cast<size_t>(r) * stride +
                          static_cast<size_t>(feature[n])];
        node[r] = first_child[n] + static_cast<int32_t>(!(v <= threshold[n]));
      }
    }
    for (int r = 0; r < rows; ++r) {
      acc[r] += learning_rate * value_[static_cast<size_t>(node[r])];
    }
  }
  for (int r = 0; r < rows; ++r) out[r] = static_cast<float>(acc[r]);
}

float GradientBoosting::Predict(const float* x) const {
  float out = 0.0f;
  PredictBlock(x, 0, 1, &out);
  return out;
}

std::vector<float> GradientBoosting::PredictBatch(const Matrix& x) const {
  std::vector<float> out(static_cast<size_t>(x.rows()));
  const int64_t blocks = (x.rows() + kBlockRows - 1) / kBlockRows;
  common::GlobalPool().ParallelFor(blocks, [&](int64_t b) {
    const int begin = static_cast<int>(b) * kBlockRows;
    PredictBlock(x.Row(begin), static_cast<size_t>(x.cols()),
                 std::min(kBlockRows, x.rows() - begin),
                 out.data() + begin);
  });
  return out;
}

size_t GradientBoosting::SizeBytes() const {
  // Section 5.7 counts a GB model as a fixed header plus sizeof(TreeNode)
  // per node, the unit of the tree builder and of the serialized form. The
  // header is the size of the model object the count was defined on (a
  // vtable pointer, 64 bytes of parameters, the base, the input dimension
  // and one tree list), so neither the layout of the compiled arrays nor
  // the parameter struct moves the reported size.
  constexpr size_t kHeaderBytes = 104;
  return kHeaderBytes + feature_.size() * sizeof(TreeNode);
}

namespace {

constexpr uint32_t kGbmMagic = 0x5147424d;  // "QGBM"

// A corrupt node list must not survive into the compiled walk, which
// follows child indices and reads x[feature] unchecked. A node is a leaf iff
// its feature is negative, and a leaf has no children. An internal node's
// children are adjacent (right == left + 1, the layout the walk needs and
// RegressionTree::Fit emits) and come after it in build order, which both
// rejects cycles and bounds the walk by the node count.
common::Status ValidateTree(const std::vector<TreeNode>& nodes,
                            int num_features) {
  const int n = static_cast<int>(nodes.size());
  if (n == 0) {
    return common::Status::InvalidArgument("serialized GB tree is empty");
  }
  for (int i = 0; i < n; ++i) {
    const TreeNode& node = nodes[static_cast<size_t>(i)];
    if (node.feature < 0) {
      if (node.left != -1 || node.right != -1) {
        return common::Status::InvalidArgument(
            "serialized GB tree has a leaf with children");
      }
      continue;
    }
    if (node.feature >= num_features) {
      return common::Status::InvalidArgument(
          "serialized GB tree references a feature out of range");
    }
    if (node.left <= i || node.left >= n - 1 || node.right != node.left + 1) {
      return common::Status::InvalidArgument(
          "serialized GB tree has a child index out of range");
    }
  }
  return common::Status::Ok();
}

}  // namespace

common::Status GradientBoosting::Serialize(std::vector<uint8_t>* out) const {
  ByteWriter writer(out);
  writer.Write(kGbmMagic);
  writer.Write(base_);
  writer.Write(params_.learning_rate);  // needed at prediction time
  writer.Write<int32_t>(num_features_);
  writer.Write<uint32_t>(static_cast<uint32_t>(num_trees()));
  for (int t = 0; t < num_trees(); ++t) writer.WriteVector(TreeNodes(t));
  return common::Status::Ok();
}

common::Status GradientBoosting::Deserialize(const std::vector<uint8_t>& data) {
  ByteReader reader(data);
  uint32_t magic = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&magic));
  if (magic != kGbmMagic) {
    return common::Status::InvalidArgument("not a serialized GB model");
  }
  float base = 0.0f;
  double learning_rate = 0.0;
  int32_t num_features = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&base));
  QFCARD_RETURN_IF_ERROR(reader.Read(&learning_rate));
  QFCARD_RETURN_IF_ERROR(reader.Read(&num_features));
  if (num_features <= 0 ||
      !(learning_rate > 0.0 && learning_rate <= 1e6)) {
    return common::Status::InvalidArgument(
        "serialized GB model has a corrupt header");
  }
  uint32_t num_trees = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&num_trees));
  // Each tree costs at least its 8-byte node-count prefix; a count claiming
  // more trees than the input can hold is corrupt (and would otherwise drive
  // a huge reserve below).
  if (num_trees > reader.remaining() / sizeof(uint64_t)) {
    return common::Status::OutOfRange(
        "serialized GB tree count exceeds remaining input");
  }
  GradientBoosting restored(params_);
  restored.base_ = base;
  restored.params_.learning_rate = learning_rate;
  restored.num_features_ = num_features;
  restored.tree_root_.reserve(num_trees);
  restored.tree_depth_.reserve(num_trees);
  for (uint32_t t = 0; t < num_trees; ++t) {
    std::vector<TreeNode> nodes;
    QFCARD_RETURN_IF_ERROR(reader.ReadVector(&nodes));
    QFCARD_RETURN_IF_ERROR(ValidateTree(nodes, num_features));
    // Node indices of the compiled arrays are int32.
    if (nodes.size() > static_cast<size_t>(
                           std::numeric_limits<int32_t>::max()) -
                           restored.feature_.size()) {
      return common::Status::OutOfRange("serialized GB model is too large");
    }
    restored.AppendTree(nodes);
  }
  *this = std::move(restored);
  return common::Status::Ok();
}

}  // namespace qfcard::ml
