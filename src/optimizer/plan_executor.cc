#include "optimizer/plan_executor.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/exec_feedback.h"
#include "query/join_executor.h"

namespace qfcard::opt {

namespace {

using query::JoinEngine;
using query::TupleSet;

common::StatusOr<TupleSet> ExecNode(const JoinEngine& engine,
                                    const JoinPlan& plan, int node_id,
                                    double& intermediate_rows);

// Runs both inputs of join node `node` and returns them as (probe, build):
// the smaller input is built, the left one on a tie.
common::StatusOr<std::pair<TupleSet, TupleSet>> ExecInputs(
    const JoinEngine& engine, const JoinPlan& plan, const JoinPlan::Node& node,
    double& intermediate_rows) {
  QFCARD_ASSIGN_OR_RETURN(TupleSet left,
                          ExecNode(engine, plan, node.left, intermediate_rows));
  QFCARD_ASSIGN_OR_RETURN(
      TupleSet right, ExecNode(engine, plan, node.right, intermediate_rows));
  if (left.count() <= right.count()) {
    return std::make_pair(std::move(right), std::move(left));
  }
  return std::make_pair(std::move(left), std::move(right));
}

// Materializes the sub-plan at `node_id`, adding every join's size to
// `intermediate_rows`.
common::StatusOr<TupleSet> ExecNode(const JoinEngine& engine,
                                    const JoinPlan& plan, int node_id,
                                    double& intermediate_rows) {
  const JoinPlan::Node& node = plan.nodes[static_cast<size_t>(node_id)];
  if (node.table >= 0) return engine.Scan(node.table);
  QFCARD_ASSIGN_OR_RETURN(const auto inputs,
                          ExecInputs(engine, plan, node, intermediate_rows));
  QFCARD_ASSIGN_OR_RETURN(TupleSet out,
                          engine.HashJoin(inputs.first, inputs.second));
  intermediate_rows += static_cast<double>(out.count());
  return out;
}

}  // namespace

common::StatusOr<ExecResult> ExecutePlan(const storage::Catalog& catalog,
                                         const query::Query& q,
                                         const JoinPlan& plan) {
  QFCARD_ASSIGN_OR_RETURN(const JoinEngine engine,
                          JoinEngine::Open(catalog, q));
  obs::TraceSpan span("plan.execute");
  obs::ScopedTimer timer("plan.execute_seconds");
  ExecResult out;
  const JoinPlan::Node& root = plan.nodes[static_cast<size_t>(plan.root)];
  query::JoinCount count;
  if (root.table >= 0) {
    QFCARD_ASSIGN_OR_RETURN(const TupleSet rows, engine.Scan(root.table));
    QFCARD_ASSIGN_OR_RETURN(count, engine.CountResult(rows, nullptr));
  } else {
    // The root join is counted, not materialized.
    QFCARD_ASSIGN_OR_RETURN(
        const auto inputs,
        ExecInputs(engine, plan, root, out.intermediate_rows));
    QFCARD_ASSIGN_OR_RETURN(count,
                            engine.CountResult(inputs.first, &inputs.second));
    out.intermediate_rows += static_cast<double>(count.tuples);
  }
  out.result_rows = count.result;
  out.seconds = timer.Stop();
  query::PublishExecutionFeedback(q, static_cast<double>(out.result_rows));
  return out;
}

}  // namespace qfcard::opt
