#ifndef QFCARD_OPTIMIZER_PLAN_EXECUTOR_H_
#define QFCARD_OPTIMIZER_PLAN_EXECUTOR_H_

#include "optimizer/join_order.h"
#include "storage/catalog.h"

namespace qfcard::opt {

/// Result of executing one plan in the in-process engine.
struct ExecResult {
  int64_t result_rows = 0;
  double seconds = 0.0;
  /// Sum of actual intermediate join result sizes (the realized C_out).
  double intermediate_rows = 0.0;
};

/// Executes `plan` for `q` against real data on query::JoinEngine: leaves
/// are slot scans (selections pushed below the joins), every internal node
/// is a hash join that builds on its smaller input, and the root join is
/// counted rather than materialized (with GROUP BY, `result_rows` counts
/// groups; `intermediate_rows` always sums join tuples). `q` is validated
/// first. Wall time depends on the plan's true intermediate sizes, which is
/// exactly how bad cardinality estimates become bad run times (Table 4's
/// end-to-end measurement).
common::StatusOr<ExecResult> ExecutePlan(const storage::Catalog& catalog,
                                         const query::Query& q,
                                         const JoinPlan& plan);

}  // namespace qfcard::opt

#endif  // QFCARD_OPTIMIZER_PLAN_EXECUTOR_H_
