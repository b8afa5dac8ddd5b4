#include "featurize/singular.h"

#include <algorithm>

namespace qfcard::featurize {

common::Status SingularEncoding::FeaturizeInto(const query::Query& q,
                                               float* out) const {
  std::fill(out, out + dim(), 0.0f);
  for (const query::CompoundPredicate& cp : q.predicates) {
    QFCARD_RETURN_IF_ERROR(schema_.CheckAttr(cp.col.column));
    if (cp.disjuncts.size() != 1) {
      return common::Status::InvalidArgument(
          "Singular Predicate Encoding does not support disjunctions");
    }
    if (cp.disjuncts[0].preds.empty()) {
      return common::Status::InvalidArgument(
          "Singular Predicate Encoding needs a predicate in every clause");
    }
    // Only the first predicate per attribute fits in the encoding; further
    // predicates on the same attribute are dropped (lossy by design).
    const query::SimplePredicate& p = cp.disjuncts[0].preds[0];
    const AttributeInfo& attr = schema_.attr(cp.col.column);
    float* slot = out + 4 * cp.col.column;
    switch (p.op) {
      case query::CmpOp::kEq:
        slot[0] = 1.0f;
        break;
      case query::CmpOp::kGt:
        slot[1] = 1.0f;
        break;
      case query::CmpOp::kLt:
        slot[2] = 1.0f;
        break;
      case query::CmpOp::kGe:
        slot[0] = 1.0f;
        slot[1] = 1.0f;
        break;
      case query::CmpOp::kLe:
        slot[0] = 1.0f;
        slot[2] = 1.0f;
        break;
      case query::CmpOp::kNe:
        slot[1] = 1.0f;
        slot[2] = 1.0f;
        break;
    }
    const double denom = std::max(attr.max - attr.min, 1e-12);
    const double norm = (p.value - attr.min) / denom;
    slot[3] = static_cast<float>(std::clamp(norm, 0.0, 1.0));
  }
  return common::Status::Ok();
}

}  // namespace qfcard::featurize
