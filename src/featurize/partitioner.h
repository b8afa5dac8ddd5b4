#ifndef QFCARD_FEATURIZE_PARTITIONER_H_
#define QFCARD_FEATURIZE_PARTITIONER_H_

#include <span>
#include <string>
#include <vector>

#include "featurize/feature_schema.h"
#include "storage/table.h"

namespace qfcard::featurize {

/// One attribute's partitioning, resolved once per featurizer by
/// ResolveLayouts (conjunction.h): n_A and the attribute's inner boundaries.
/// Empty `bounds` select the paper's equi-width formula over n_A
/// partitions.
struct PartitionLayout {
  int n = 1;
  std::span<const double> bounds;

  /// Zero-based partition index of `value` within `attr`; values outside
  /// [min, max], however far, clamp to the first/last partition.
  int IndexOf(const AttributeInfo& attr, double value) const;
};

/// Maps attribute values to partition indices for Universal Conjunction /
/// Limited Disjunction Encoding (Section 3.2). The paper uses equi-width
/// partitioning; it also notes that "sophisticated partitioning techniques
/// from the field of histograms" can be plugged in. A partitioner keeps
/// ascending inner boundaries b_1 < ... < b_{k-1} per attribute name
/// (partition i covers (b_i, b_{i+1}]); every attribute without an entry,
/// and every attribute of a default-constructed partitioner, is equi-width.
/// ResolveLayouts (conjunction.h) is the one place that matches entries to
/// attributes.
class Partitioner {
 public:
  /// Extension: quantile boundaries from `table` (one column per
  /// FeatureSchema attribute), `max_partitions` targets per attribute, so
  /// every partition covers roughly the same number of rows. Helps skewed
  /// attributes, where equi-width wastes most entries on empty regions.
  static Partitioner EquiDepth(const storage::Table& table,
                               int max_partitions);

  /// Extension: v-optimal boundaries (Poosala et al.), chosen by dynamic
  /// programming to minimize the total within-bucket variance of value
  /// frequencies, so regions with uneven frequency get finer partitions.
  /// Distinct-value lists are capped at `max_candidates` pre-aggregated
  /// cells to bound the O(B * V^2) DP.
  static Partitioner VOptimal(const storage::Table& table, int max_partitions,
                              int max_candidates = 512);

  /// Rebuilds a partitioner from previously captured state (see accessors
  /// below); used by serve/ to restore a saved featurizer byte-identically.
  static Partitioner FromState(std::vector<std::string> attr_names,
                               std::vector<std::vector<double>> boundaries);

  /// True when no attribute has boundaries (pure equi-width).
  bool empty() const { return attr_names_.empty(); }

  const std::vector<std::string>& attr_names() const { return attr_names_; }
  const std::vector<std::vector<double>>& boundaries() const {
    return boundaries_;
  }

 private:
  std::vector<std::string> attr_names_;
  std::vector<std::vector<double>> boundaries_;
};

/// Attribute-specific partition budgets (Section 3.2: skewed attributes may
/// need a larger n). Columns whose most frequent value exceeds
/// `skew_threshold` of the rows get `base * boost` partitions (capped at
/// 256); all others get `base`. Feed the result into
/// ConjunctionOptions::per_attribute_partitions.
std::vector<int> SkewAwarePartitions(const storage::Table& table, int base,
                                     int boost = 2,
                                     double skew_threshold = 0.2);

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_PARTITIONER_H_
