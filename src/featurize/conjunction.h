#ifndef QFCARD_FEATURIZE_CONJUNCTION_H_
#define QFCARD_FEATURIZE_CONJUNCTION_H_

#include <memory>
#include <utility>
#include <vector>

#include "featurize/feature_schema.h"
#include "featurize/featurizer.h"
#include "featurize/partitioner.h"

namespace qfcard::featurize {

/// Configuration shared by Universal Conjunction Encoding and Limited
/// Disjunction Encoding.
struct ConjunctionOptions {
  /// The paper's n: maximum number of partitions (feature-vector entries)
  /// per attribute. The actual n_A is min(n, |domain(A)|) for integral
  /// attributes (Section 3.2).
  int max_partitions = 64;

  /// Appends the per-attribute selectivity estimate under the uniformity
  /// assumption (the gray lines of Algorithm 1). Evaluated in Table 3.
  bool append_attr_selectivity = true;

  /// When an attribute's integral domain fits in n_A entries (one entry per
  /// distinct value), encode entries exactly as 0/1 instead of 0/1/2/1
  /// (Section 3.2, last paragraph).
  bool exact_small_domains = true;

  /// Use the categorical value 1/2 for partially qualifying partitions.
  /// Disabling this (ablation) rounds partial partitions up to 1.
  bool use_half_values = true;

  /// Partition boundaries; nullptr, like a partitioner without
  /// boundaries, selects the paper's equi-width partitioning. Shared: every
  /// featurizer built from these options co-owns it, so it lives as long as
  /// the longest-lived one.
  std::shared_ptr<const Partitioner> partitioner;

  /// Optional attribute-specific partition budgets (Section 3.2: "it is
  /// easy to extend our approach to choose an attribute-specific n"). When
  /// non-empty, entry a overrides max_partitions for attribute a; the size
  /// must equal the schema's attribute count. See SkewAwarePartitions().
  std::vector<int> per_attribute_partitions;
};

/// Resolves the PartitionLayout of every attribute of `schema` under
/// `opts`: the one layout step of every partition-based featurizer
/// (ConjunctionEncoding, DisjunctionEncoding, MSCN's per-attribute QFT
/// mode).
///  - Budget: per_attribute_partitions[a] when that vector's length equals
///    the attribute count, max_partitions otherwise.
///  - Boundaries: the partitioner entry named like the attribute. A bare
///    entry `c` also matches a qualified attribute `T.c` (the names of
///    global schemas and materialized joins) when exactly one attribute of
///    `schema` ends in `.c`. An attribute without an entry is equi-width:
///    n_A = min(budget, |domain(A)|) for integral attributes.
/// The layouts' bounds point into *opts.partitioner.
std::vector<PartitionLayout> ResolveLayouts(const FeatureSchema& schema,
                                            const ConjunctionOptions& opts);

/// Universal Conjunction Encoding (Section 3.2, Algorithm 1), abbreviated
/// "conjunctive". The domain of each attribute is discretized into n_A
/// partitions; each partition owns one feature-vector entry valued 1 (all
/// values qualify), 1/2 (some qualify), or 0 (none qualify). Supports
/// arbitrarily many simple predicates per attribute connected by AND; by
/// Lemma 3.2 the encoding converges to a lossless featurization as n grows.
/// Disjunctions are rejected (use DisjunctionEncoding).
class ConjunctionEncoding : public Featurizer {
 public:
  ConjunctionEncoding(FeatureSchema schema, ConjunctionOptions opts = {})
      : ConjunctionEncoding(std::move(schema), std::move(opts),
                            /*allow_disjunctions=*/false) {}

  int dim() const override { return dim_; }
  std::string name() const override { return "conjunctive"; }
  common::Status FeaturizeInto(const query::Query& q,
                               float* out) const override;

  /// Offset of attribute `a`'s block within the feature vector.
  int AttrOffset(int a) const { return offsets_[static_cast<size_t>(a)]; }
  /// Number of partition entries n_A of attribute `a` (excluding the
  /// optional selectivity entry).
  int AttrEntries(int a) const { return layouts_[static_cast<size_t>(a)].n; }

  const ConjunctionOptions& options() const { return opts_; }
  const FeatureSchema& schema() const { return schema_; }

 protected:
  /// Resolves every attribute's partition layout once (ResolveLayouts).
  /// `allow_disjunctions` admits compound predicates with several clauses
  /// (Algorithm 2).
  ConjunctionEncoding(FeatureSchema schema, ConjunctionOptions opts,
                      bool allow_disjunctions);

 private:
  FeatureSchema schema_;
  ConjunctionOptions opts_;
  std::vector<int> offsets_;
  std::vector<PartitionLayout> layouts_;  // point into *opts_.partitioner
  int dim_ = 0;
  bool allow_disjunctions_ = false;
};

namespace internal {

/// Algorithm 2 for one attribute: encodes each clause of `cp` with
/// Algorithm 1 restricted to `attr` and merges them by entrywise maximum
/// into out[0 .. layout.n); with opts.append_attr_selectivity,
/// out[layout.n] receives the maximum clause selectivity (Algorithm 1's
/// gray lines). A predicate without clauses encodes as all-zero; a NaN
/// literal is rejected with kInvalidArgument. Shared by
/// ConjunctionEncoding, DisjunctionEncoding and the MSCN featurizer.
common::Status EncodeCompoundForAttr(const AttributeInfo& attr,
                                     const PartitionLayout& layout,
                                     const ConjunctionOptions& opts,
                                     const query::CompoundPredicate& cp,
                                     float* out);

}  // namespace internal

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_CONJUNCTION_H_
