#ifndef QFCARD_FEATURIZE_DISJUNCTION_H_
#define QFCARD_FEATURIZE_DISJUNCTION_H_

#include "featurize/conjunction.h"

namespace qfcard::featurize {

/// Limited Disjunction Encoding (Section 3.3, Algorithm 2), abbreviated
/// "complex": the first QFT designed for mixed queries (Definition 3.3),
/// i.e. conjunctions of per-attribute compound predicates where each
/// compound predicate may disjoin arbitrarily many conjunctive clauses.
///
/// Each clause of a compound predicate is featurized with Universal
/// Conjunction Encoding restricted to its attribute; the per-clause vectors
/// are merged by the entrywise maximum, capturing that additional
/// disjunctions only make a query less selective. Layout and encoding are
/// ConjunctionEncoding's, so on purely conjunctive queries the output is
/// identical (the paper relies on this for JOB-light).
class DisjunctionEncoding : public ConjunctionEncoding {
 public:
  DisjunctionEncoding(FeatureSchema schema, ConjunctionOptions opts = {})
      : ConjunctionEncoding(std::move(schema), std::move(opts),
                            /*allow_disjunctions=*/true) {}

  std::string name() const override { return "complex"; }
};

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_DISJUNCTION_H_
