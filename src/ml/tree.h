#ifndef QFCARD_ML_TREE_H_
#define QFCARD_ML_TREE_H_

#include <cstdint>
#include <vector>

#include "ml/matrix.h"

namespace qfcard::ml {

/// Quantile-binned feature codes (LightGBM-style). Built once per training
/// set; trees find splits by scanning per-bin histograms instead of sorting.
/// Codes are stored column-major so per-feature accumulation over a node's
/// rows is cache-friendly.
class BinnedFeatures {
 public:
  /// Bins every column of `x` into at most `max_bins` quantile bins
  /// (max_bins <= 256), one column per GlobalPool().ParallelFor index. `x`
  /// must hold no NaN (GradientBoosting::Fit rejects one).
  static BinnedFeatures Build(const Matrix& x, int max_bins);

  int num_rows() const { return num_rows_; }
  int num_features() const { return num_features_; }
  int NumBins(int f) const {
    return static_cast<int>(thresholds_[static_cast<size_t>(f)].size()) + 1;
  }
  /// The codes of feature `f`, one per row.
  const uint8_t* Codes(int f) const {
    return codes_.data() +
           static_cast<size_t>(f) * static_cast<size_t>(num_rows_);
  }
  uint8_t Code(int f, int r) const { return Codes(f)[r]; }
  /// Raw threshold value of bin boundary `b` of feature `f`: rows with
  /// x[f] <= Threshold(f, b) fall in bins [0, b].
  float Threshold(int f, int b) const {
    return thresholds_[static_cast<size_t>(f)][static_cast<size_t>(b)];
  }

 private:
  int num_rows_ = 0;
  int num_features_ = 0;
  std::vector<uint8_t> codes_;
  std::vector<std::vector<float>> thresholds_;
};

/// One node of a regression tree. Leaf iff feature < 0.
struct TreeNode {
  int feature = -1;
  float threshold = 0.0f;  ///< go left iff x[feature] <= threshold
  int left = -1;
  int right = -1;
  float value = 0.0f;  ///< leaf prediction
};

/// Histogram-based regression tree: the weak learner of GradientBoosting
/// (Section 2.2.2's decision trees F_p). Split gain is variance reduction
/// (equivalently the squared-sum gain for L2 residuals). GradientBoosting
/// builds each tree with it and then stores the tree compiled; Predict
/// here is the plain walk the compiled one is tested against.
///
/// Fit grows the tree level by level: one GlobalPool().ParallelFor per
/// depth, over groups of features, histograms every splittable node of the
/// level. Each histogram sums its node's rows in range order and the
/// per-feature bests reduce in feature order, so the tree (and its node
/// numbering) is the one a serial depth-first builder emits, at every pool
/// size (docs/ml_stack.md).
class RegressionTree {
 public:
  struct Params {
    int max_depth = 6;
    int min_samples_leaf = 20;
    double min_gain = 1e-10;
  };

  /// Fits the tree to `targets` over the rows listed in `rows` (reordered in
  /// place during partitioning).
  void Fit(const BinnedFeatures& data, const std::vector<float>& targets,
           std::vector<int>& rows, const Params& params);

  /// Predicts from a raw (un-binned) feature vector.
  float Predict(const float* x) const;

  /// Nodes in build order: children after their parent, right == left + 1.
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  /// Restores a tree from its node list.
  void SetNodes(std::vector<TreeNode> nodes) { nodes_ = std::move(nodes); }

 private:
  std::vector<TreeNode> nodes_;
};

}  // namespace qfcard::ml

#endif  // QFCARD_ML_TREE_H_
