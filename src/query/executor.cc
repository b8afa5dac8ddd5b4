#include "query/executor.h"

#include <algorithm>

#include "common/str_util.h"
#include "query/exec_feedback.h"

namespace qfcard::query {

namespace {

common::Status CheckSingleTable(const storage::Table& table, const Query& q) {
  if (q.tables.size() != 1 || !q.joins.empty()) {
    return common::Status::InvalidArgument(
        "Executor handles single-table queries; use JoinExecutor for joins");
  }
  for (const CompoundPredicate& cp : q.predicates) {
    if (cp.col.table != 0) {
      return common::Status::OutOfRange("predicate table out of range");
    }
  }
  for (const ColumnRef& g : q.group_by) {
    if (g.table != 0 || g.column < 0 || g.column >= table.num_columns()) {
      return common::Status::OutOfRange("GROUP BY column out of range");
    }
  }
  return common::Status::Ok();
}

// Evaluates one conjunctive clause over `rows`, keeping survivors.
void FilterClause(const storage::Table& table, const ConjunctiveClause& clause,
                  const std::vector<int32_t>& rows,
                  std::vector<int32_t>& survivors) {
  survivors.clear();
  for (const int32_t r : rows) {
    bool ok = true;
    for (const SimplePredicate& p : clause.preds) {
      if (!EvalCmp(p.op, table.column(p.col.column).Get(r), p.value)) {
        ok = false;
        break;
      }
    }
    if (ok) survivors.push_back(r);
  }
}

}  // namespace

common::StatusOr<std::vector<int32_t>> Executor::Filter(
    const storage::Table& table, const Query& q, int slot) {
  const auto in_range = [&](const ColumnRef& ref) {
    return ref.column >= 0 && ref.column < table.num_columns();
  };
  for (const CompoundPredicate& cp : q.predicates) {
    if (cp.col.table != slot) continue;
    bool ok = in_range(cp.col);
    for (const ConjunctiveClause& clause : cp.disjuncts) {
      for (const SimplePredicate& p : clause.preds) ok = ok && in_range(p.col);
    }
    if (!ok) return common::Status::OutOfRange("predicate column out of range");
  }
  std::vector<int32_t> rows(static_cast<size_t>(table.num_rows()));
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    rows[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  std::vector<int32_t> next;
  next.reserve(rows.size());
  for (const CompoundPredicate& cp : q.predicates) {
    if (cp.col.table != slot) continue;
    if (cp.disjuncts.size() == 1) {
      // Common fast path: plain conjunction.
      FilterClause(table, cp.disjuncts[0], rows, next);
    } else {
      next.clear();
      for (const int32_t r : rows) {
        if (EvalCompoundOnRow(table, r, cp)) next.push_back(r);
      }
    }
    rows.swap(next);
    if (rows.empty()) break;
  }
  return rows;
}

common::StatusOr<int64_t> Executor::Count(const storage::Table& table,
                                          const Query& q) {
  QFCARD_RETURN_IF_ERROR(CheckSingleTable(table, q));
  QFCARD_ASSIGN_OR_RETURN(const std::vector<int32_t> rows, Filter(table, q, 0));
  if (q.group_by.empty()) {
    const int64_t count = static_cast<int64_t>(rows.size());
    PublishExecutionFeedback(q, static_cast<double>(count));
    return count;
  }
  // GROUP BY: the result size is the number of distinct grouping-key
  // combinations among qualifying rows (Section 6). Keys are compared
  // exactly — counting distinct 64-bit hashes instead undercounts whenever
  // two keys collide (the fuzzer finds such collisions in practice).
  std::vector<std::vector<double>> keys;
  keys.reserve(rows.size());
  for (const int32_t r : rows) {
    std::vector<double> key;
    key.reserve(q.group_by.size());
    for (const ColumnRef& g : q.group_by) {
      key.push_back(table.column(g.column).Get(r));
    }
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const int64_t groups = static_cast<int64_t>(keys.size());
  PublishExecutionFeedback(q, static_cast<double>(groups));
  return groups;
}

}  // namespace qfcard::query
