#include "featurize/join_encoding.h"

#include <algorithm>

namespace qfcard::featurize {

common::Status GlobalFeaturizer::FeaturizeInto(const query::Query& q,
                                               float* out) const {
  QFCARD_ASSIGN_OR_RETURN(const GlobalSlots slots,
                          global_.Resolve(*catalog_, q));
  // Rewrite predicates against the global attribute space.
  query::Query global;
  global.tables.push_back(query::TableRef{"<global>", "<global>"});
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    query::CompoundPredicate rebased = q.predicates[i];
    rebased.col = query::ColumnRef{0, slots.predicates[i]};
    for (query::ConjunctiveClause& clause : rebased.disjuncts) {
      for (query::SimplePredicate& p : clause.preds) {
        p.col = rebased.col;
      }
    }
    global.predicates.push_back(std::move(rebased));
  }
  QFCARD_RETURN_IF_ERROR(inner_->FeaturizeInto(global, out));

  // Table-presence bit vector (e.g. 1101 = tables 1, 2 and 4 joined).
  float* bits = out + inner_->dim();
  std::fill(bits, bits + global_.num_tables(), 0.0f);
  for (const int t : slots.tables) bits[t] = 1.0f;
  return common::Status::Ok();
}

}  // namespace qfcard::featurize
