#ifndef QFCARD_FEATURIZE_RANGE_H_
#define QFCARD_FEATURIZE_RANGE_H_

#include "featurize/feature_schema.h"
#include "featurize/featurizer.h"

namespace qfcard::featurize {

/// Range Predicate Encoding (Section 3.1), abbreviated "range". Every point
/// or range predicate is rewritten into a closed range: A = 5 becomes
/// [5, 5], A <= 5 becomes [min(A), 5], and for integral attributes A < 5
/// becomes [min(A), 4] (a small step is used for continuous attributes).
/// Each attribute occupies two entries: the normalized range endpoints
/// [lo, hi] in [0, 1]; attributes without predicates encode the full domain
/// [0, 1].
///
/// Multiple range/point predicates per attribute are intersected into one
/// closed range; not-equal predicates cannot be represented and are dropped
/// (the information loss visible in the paper's Figure 3 at three
/// predicates). Disjunctions are rejected.
class RangeEncoding : public Featurizer {
 public:
  explicit RangeEncoding(FeatureSchema schema) : schema_(std::move(schema)) {}

  int dim() const override { return 2 * schema_.num_attributes(); }
  std::string name() const override { return "range"; }
  common::Status FeaturizeInto(const query::Query& q,
                               float* out) const override;

  const FeatureSchema& schema() const { return schema_; }

 private:
  FeatureSchema schema_;
};

namespace internal {

/// Range Predicate Encoding of one conjunctive clause over `attr`: its
/// point/range predicates are intersected into one closed range, whose
/// endpoints are written to out[0] (lo) and out[1] (hi), normalized to
/// [0, 1]. Not-equal predicates are dropped. Shared by RangeEncoding and
/// the MSCN featurizer's per-attribute range mode.
void EncodeRangeForAttr(const AttributeInfo& attr,
                        const query::ConjunctiveClause& clause, float* out);

}  // namespace internal

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_RANGE_H_
