#include "estimators/true_card.h"

#include "query/join_executor.h"

namespace qfcard::est {

common::StatusOr<double> TrueCardEstimator::EstimateCard(
    const query::Query& q) const {
  // Returns the raw count (possibly 0): q-error computation clamps to >= 1
  // itself, and exact counts must stay exact for consumers like the
  // IEP identity and the optimizer's cost model.
  QFCARD_ASSIGN_OR_RETURN(const int64_t count,
                          query::JoinExecutor::Count(*catalog_, q));
  return static_cast<double>(count);
}

}  // namespace qfcard::est
