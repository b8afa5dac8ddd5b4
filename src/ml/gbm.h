#ifndef QFCARD_ML_GBM_H_
#define QFCARD_ML_GBM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/tree.h"

namespace qfcard::ml {

/// Hyperparameters of GradientBoosting. Defaults are the configuration the
/// repository's grid search (grid_search.h) selects on the forest workloads.
struct GbmParams {
  int num_trees = 150;
  double learning_rate = 0.1;
  int max_depth = 6;
  int min_samples_leaf = 20;
  int max_bins = 64;
  double subsample = 1.0;   ///< row fraction per tree (stochastic GB)
  int early_stopping_rounds = 20;  ///< 0 disables; needs a valid set
  uint64_t seed = 17;
};

/// Gradient boosting with L2 loss on log-cardinality labels
/// (Section 2.2.2): \hat f(x) = sum_p lambda_p F_p(x) + c, where every F_p
/// is a histogram regression tree fit to the residuals of the preceding
/// ensemble and lambda_p is the learning rate.
///
/// RegressionTree builds each F_p; the fitted ensemble is then stored
/// compiled, as one set of flat node arrays for all trees
/// (docs/ml_stack.md). Predict and PredictBatch share one walk over them,
/// and every row sums its trees in order from base_, so both return the
/// bits the per-tree RegressionTree::Predict sum would.
class GradientBoosting : public Model {
 public:
  /// Rows PredictBatch walks through each tree in lockstep; one block is
  /// one ParallelFor index.
  static constexpr int kBlockRows = 16;

  explicit GradientBoosting(GbmParams params = {}) : params_(params) {}

  common::Status Fit(const Dataset& train, const Dataset* valid) override;
  float Predict(const float* x) const override;
  std::vector<float> PredictBatch(const Matrix& x) const override;
  size_t SizeBytes() const override;
  std::string name() const override { return "GB"; }
  common::Status Serialize(std::vector<uint8_t>* out) const override;
  common::Status Deserialize(const std::vector<uint8_t>& data) override;

  int num_trees() const { return static_cast<int>(tree_root_.size()); }
  const GbmParams& params() const { return params_; }
  /// Feature-vector length seen by Fit (and persisted by Serialize); -1
  /// before training.
  int InputDim() const override { return num_features_; }

 private:
  /// Compiles a RegressionTree node list (children after their parent,
  /// right child == left + 1) onto the end of the flat arrays.
  void AppendTree(const std::vector<TreeNode>& nodes);
  /// Keeps the first `num_trees` trees.
  void TruncateTrees(int num_trees);
  /// Tree `t` as the RegressionTree node list it was compiled from.
  std::vector<TreeNode> TreeNodes(int t) const;
  /// out[r] = prediction for the row at x + r * stride, r < rows <=
  /// kBlockRows.
  void PredictBlock(const float* x, size_t stride, int rows,
                    float* out) const;

  GbmParams params_;
  float base_ = 0.0f;
  int num_features_ = -1;

  // The compiled ensemble, one entry per node of every tree. The children
  // of an internal node n are first_child_[n] (x[feature_[n]] <=
  // threshold_[n]) and first_child_[n] + 1. A leaf has threshold NaN,
  // feature 0 and first_child == n - 1, so a walk step from a leaf lands
  // on the leaf again: every tree is walked exactly its depth in steps.
  std::vector<int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<int32_t> first_child_;
  std::vector<float> value_;
  // Per tree: the index of its root in the node arrays, and its depth.
  std::vector<int32_t> tree_root_;
  std::vector<int32_t> tree_depth_;
};

}  // namespace qfcard::ml

#endif  // QFCARD_ML_GBM_H_
