#include "featurize/range.h"

#include <algorithm>
#include <cmath>

namespace qfcard::featurize {

namespace internal {

void EncodeRangeForAttr(const AttributeInfo& attr,
                        const query::ConjunctiveClause& clause, float* out) {
  double lo = attr.min;
  double hi = attr.max;
  // Step used to close open ranges on continuous attributes (Section 3.1
  // suggests "a small step size" for decimal attributes).
  const double step =
      attr.integral ? 1.0 : std::max(attr.max - attr.min, 1e-12) * 1e-9;
  for (const query::SimplePredicate& p : clause.preds) {
    switch (p.op) {
      case query::CmpOp::kEq:
        lo = std::max(lo, p.value);
        hi = std::min(hi, p.value);
        break;
      case query::CmpOp::kGe:
        lo = std::max(lo, p.value);
        break;
      case query::CmpOp::kGt:
        lo = std::max(lo, p.value + step);
        break;
      case query::CmpOp::kLe:
        hi = std::min(hi, p.value);
        break;
      case query::CmpOp::kLt:
        hi = std::min(hi, p.value - step);
        break;
      case query::CmpOp::kNe:
        // Not representable as a closed range; dropped (lossy by design).
        break;
    }
  }
  const double denom = std::max(attr.max - attr.min, 1e-12);
  // An empty intersection (lo > hi) is encoded as a collapsed inverted
  // range, which no satisfiable query produces; the model can learn it
  // means cardinality ~0.
  out[0] = static_cast<float>(std::clamp((lo - attr.min) / denom, 0.0, 1.0));
  out[1] = static_cast<float>(std::clamp((hi - attr.min) / denom, 0.0, 1.0));
}

}  // namespace internal

common::Status RangeEncoding::FeaturizeInto(const query::Query& q,
                                            float* out) const {
  // Default: full domain for every attribute.
  for (int a = 0; a < schema_.num_attributes(); ++a) {
    out[2 * a] = 0.0f;
    out[2 * a + 1] = 1.0f;
  }
  for (const query::CompoundPredicate& cp : q.predicates) {
    QFCARD_RETURN_IF_ERROR(schema_.CheckAttr(cp.col.column));
    if (cp.disjuncts.size() != 1) {
      return common::Status::InvalidArgument(
          "Range Predicate Encoding does not support disjunctions");
    }
    internal::EncodeRangeForAttr(schema_.attr(cp.col.column), cp.disjuncts[0],
                                 out + 2 * cp.col.column);
  }
  return common::Status::Ok();
}

}  // namespace qfcard::featurize
