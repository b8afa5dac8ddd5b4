#include "ml/tree.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace qfcard::ml {

BinnedFeatures BinnedFeatures::Build(const Matrix& x, int max_bins) {
  max_bins = std::clamp(max_bins, 2, 256);
  BinnedFeatures out;
  out.num_rows_ = x.rows();
  out.num_features_ = x.cols();
  out.codes_.assign(
      static_cast<size_t>(x.rows()) * static_cast<size_t>(x.cols()), 0);
  out.thresholds_.resize(static_cast<size_t>(x.cols()));
  if (x.rows() == 0) return out;

  // Column f writes only thresholds_[f] and its own code column.
  common::GlobalPool().ParallelFor(x.cols(), [&](int64_t col) {
    const int f = static_cast<int>(col);
    std::vector<float> sorted(static_cast<size_t>(x.rows()));
    for (int r = 0; r < x.rows(); ++r) {
      sorted[static_cast<size_t>(r)] = x.At(r, f);
    }
    std::sort(sorted.begin(), sorted.end());
    // Candidate boundaries at quantile positions; deduplicated. A boundary
    // b means "x <= b goes left". The last distinct value never becomes a
    // boundary (nothing would go right).
    std::vector<float>& th = out.thresholds_[static_cast<size_t>(f)];
    for (int b = 1; b < max_bins; ++b) {
      const size_t pos = static_cast<size_t>(
          static_cast<double>(b) / max_bins * static_cast<double>(sorted.size() - 1));
      const float v = sorted[pos];
      if (v < sorted.back() && (th.empty() || v > th.back())) th.push_back(v);
    }
    // Assign codes by binary search over thresholds.
    uint8_t* const codes = out.codes_.data() + static_cast<size_t>(f) *
                                                   static_cast<size_t>(x.rows());
    for (int r = 0; r < x.rows(); ++r) {
      const auto it = std::lower_bound(th.begin(), th.end(), x.At(r, f));
      // bin = number of thresholds < v  (v <= th[i] -> bin i).
      codes[r] = static_cast<uint8_t>(it - th.begin());
    }
  });
  return out;
}

namespace {

// A node of the tree under construction, in creation order: level by
// level, and within a level in the order of its parents. It owns
// rows[begin, end).
struct BuildNode {
  int begin = 0;
  int end = 0;
  double sum = 0.0;
  int feature = -1;  ///< split feature; -1 while (or if it stays) a leaf
  int bin = -1;      ///< codes <= bin go left
  int left = -1;     ///< build index of the left child; the right is left + 1
};

// The best split of one node on one feature: the first bin of maximal gain
// among those whose gain exceeds min_gain; bin -1 if none does.
struct FeatureBest {
  double gain = 0.0;
  int bin = -1;
};

// Features one pool index histograms together. Their running sums are
// independent, so a row's kGroup additions overlap instead of waiting on
// one another; each feature's bins still add its rows in range order.
constexpr int kGroup = 8;

struct GroupHistograms {
  double sum[kGroup][256];
  int cnt[kGroup][256];
};

void AccumulateGroup(const uint8_t* const (&codes)[kGroup],
                     const std::vector<int>& rows,
                     const std::vector<float>& targets, int begin, int end,
                     GroupHistograms* hist) {
  for (int i = begin; i < end; ++i) {
    const int r = rows[static_cast<size_t>(i)];
    const double t = targets[static_cast<size_t>(r)];
    uint8_t c[kGroup];
    for (int j = 0; j < kGroup; ++j) c[j] = codes[j][r];
    for (int j = 0; j < kGroup; ++j) {
      hist->sum[j][c[j]] += t;
      ++hist->cnt[j][c[j]];
    }
  }
}

// Scans one feature's histogram of `node` (n rows summing to node_sum) for
// its best split.
FeatureBest ScanBins(const double* hist_sum, const int* hist_cnt, int bins,
                     int n, double node_sum,
                     const RegressionTree::Params& params) {
  FeatureBest best{params.min_gain, -1};
  const double parent_score = node_sum * node_sum / n;
  double left_sum = 0.0;
  int left_cnt = 0;
  for (int b = 0; b < bins - 1; ++b) {
    left_sum += hist_sum[b];
    left_cnt += hist_cnt[b];
    const int right_cnt = n - left_cnt;
    if (left_cnt < params.min_samples_leaf ||
        right_cnt < params.min_samples_leaf) {
      continue;
    }
    const double right_sum = node_sum - left_sum;
    const double gain = left_sum * left_sum / left_cnt +
                        right_sum * right_sum / right_cnt - parent_score;
    if (gain > best.gain) {
      best.gain = gain;
      best.bin = b;
    }
  }
  return best;
}

}  // namespace

void RegressionTree::Fit(const BinnedFeatures& data,
                         const std::vector<float>& targets,
                         std::vector<int>& rows, const Params& params) {
  nodes_.clear();
  if (rows.empty()) {
    nodes_.push_back(TreeNode{});
    return;
  }
  double root_sum = 0.0;
  for (const int r : rows) root_sum += targets[static_cast<size_t>(r)];
  std::vector<BuildNode> built{
      BuildNode{0, static_cast<int>(rows.size()), root_sum}};

  const int num_features = data.num_features();
  // Only features with two or more bins can split.
  std::vector<int> splittable;
  for (int f = 0; f < num_features; ++f) {
    if (data.NumBins(f) >= 2) splittable.push_back(f);
  }
  const int64_t groups =
      (static_cast<int64_t>(splittable.size()) + kGroup - 1) / kGroup;
  common::ThreadPool& pool = common::GlobalPool();
  std::vector<int> level;          // build indices of the splittable nodes
  std::vector<FeatureBest> best;   // [feature][index in level]
  size_t depth_begin = 0;          // first build index of the current depth
  for (int depth = 0; depth < params.max_depth; ++depth) {
    level.clear();
    for (size_t i = depth_begin; i < built.size(); ++i) {
      if (built[i].end - built[i].begin >= 2 * params.min_samples_leaf) {
        level.push_back(static_cast<int>(i));
      }
    }
    depth_begin = built.size();
    if (level.empty()) break;

    // Per (feature, node): histogram the node's rows in range order and
    // scan the bins. Rows are only read here; group g writes only the
    // slots of its own features in `best`.
    const size_t width = level.size();
    best.assign(static_cast<size_t>(num_features) * width,
                FeatureBest{params.min_gain, -1});
    pool.ParallelFor(groups, [&](int64_t g) {
      const size_t first = static_cast<size_t>(g) * kGroup;
      const int count = static_cast<int>(
          std::min<size_t>(kGroup, splittable.size() - first));
      // A short last group repeats its last feature; the copies' sums are
      // never scanned.
      int features[kGroup];
      const uint8_t* codes[kGroup];
      for (int j = 0; j < kGroup; ++j) {
        features[j] =
            splittable[first + static_cast<size_t>(std::min(j, count - 1))];
        codes[j] = data.Codes(features[j]);
      }
      GroupHistograms hist;
      for (size_t k = 0; k < width; ++k) {
        const BuildNode& node = built[static_cast<size_t>(level[k])];
        for (int j = 0; j < kGroup; ++j) {
          std::fill_n(hist.sum[j], data.NumBins(features[j]), 0.0);
          std::fill_n(hist.cnt[j], data.NumBins(features[j]), 0);
        }
        AccumulateGroup(codes, rows, targets, node.begin, node.end, &hist);
        for (int j = 0; j < count; ++j) {
          best[static_cast<size_t>(features[j]) * width + k] =
              ScanBins(hist.sum[j], hist.cnt[j], data.NumBins(features[j]),
                       node.end - node.begin, node.sum, params);
        }
      }
    });

    // Per node, serially: the first feature of maximal gain wins, which is
    // the split a scan of every (feature, bin) in order picks.
    for (size_t k = 0; k < width; ++k) {
      int best_feature = -1;
      int best_bin = -1;
      double best_gain = params.min_gain;
      for (int f = 0; f < num_features; ++f) {
        const FeatureBest& fb = best[static_cast<size_t>(f) * width + k];
        if (fb.bin >= 0 && fb.gain > best_gain) {
          best_gain = fb.gain;
          best_feature = f;
          best_bin = fb.bin;
        }
      }
      if (best_feature < 0) continue;

      // Partition the node's rows in place: codes <= best_bin go left.
      const BuildNode node = built[static_cast<size_t>(level[k])];
      const uint8_t* const codes = data.Codes(best_feature);
      int mid = node.begin;
      double left_sum = 0.0;
      for (int i = node.begin; i < node.end; ++i) {
        const int r = rows[static_cast<size_t>(i)];
        if (codes[r] <= best_bin) {
          std::swap(rows[static_cast<size_t>(i)],
                    rows[static_cast<size_t>(mid)]);
          left_sum += targets[static_cast<size_t>(r)];
          ++mid;
        }
      }
      BuildNode& parent = built[static_cast<size_t>(level[k])];
      parent.feature = best_feature;
      parent.bin = best_bin;
      parent.left = static_cast<int>(built.size());
      built.push_back(BuildNode{node.begin, mid, left_sum});
      built.push_back(BuildNode{mid, node.end, node.sum - left_sum});
    }
  }

  // Number the nodes in depth-first order, left subtree first: a node's
  // children take the next two indices when it is reached.
  nodes_.assign(1, TreeNode{});
  std::vector<std::pair<int, int>> stack{{0, 0}};  // (build index, node)
  while (!stack.empty()) {
    const auto [b, id] = stack.back();
    stack.pop_back();
    const BuildNode& node = built[static_cast<size_t>(b)];
    const double mean = node.sum / (node.end - node.begin);
    nodes_[static_cast<size_t>(id)].value = static_cast<float>(mean);
    if (node.left < 0) continue;
    const int left_id = static_cast<int>(nodes_.size());
    nodes_.resize(nodes_.size() + 2);
    TreeNode& out = nodes_[static_cast<size_t>(id)];
    out.feature = node.feature;
    out.threshold = data.Threshold(node.feature, node.bin);
    out.left = left_id;
    out.right = left_id + 1;
    stack.emplace_back(node.left + 1, left_id + 1);
    stack.emplace_back(node.left, left_id);
  }
}

float RegressionTree::Predict(const float* x) const {
  if (nodes_.empty()) return 0.0f;
  int cur = 0;
  while (nodes_[static_cast<size_t>(cur)].feature >= 0) {
    const TreeNode& node = nodes_[static_cast<size_t>(cur)];
    cur = (x[node.feature] <= node.threshold) ? node.left : node.right;
  }
  return nodes_[static_cast<size_t>(cur)].value;
}

}  // namespace qfcard::ml
