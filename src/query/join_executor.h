#ifndef QFCARD_QUERY_JOIN_EXECUTOR_H_
#define QFCARD_QUERY_JOIN_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "query/schema_graph.h"
#include "storage/catalog.h"

namespace qfcard::query {

/// An intermediate join result: tuples of base-table row ids, flat with
/// stride = slots.size(); slots[i] is the Query::tables slot of tuple
/// position i.
struct TupleSet {
  std::vector<int> slots;
  std::vector<int32_t> rows;

  size_t stride() const { return slots.size(); }
  size_t count() const { return slots.empty() ? 0 : rows.size() / stride(); }
  /// Tuple position of `slot`, or -1 when the set does not cover it.
  int PosOf(int slot) const;
};

/// Size of a query's result, as counted at the root of its join.
struct JoinCount {
  int64_t tuples = 0;  ///< joined tuples (a plan's last intermediate size)
  int64_t result = 0;  ///< count(*): `tuples`, or with GROUP BY the groups
};

/// The in-process join engine for one query: one slot scan, one hash join
/// and one result count. JoinExecutor's left-deep folds and the optimizer's
/// bushy plan walk (opt::ExecutePlan) are thin callers of these three, so
/// validation, join keys and GROUP BY semantics live here once.
class JoinEngine {
 public:
  /// Validates `q` against `catalog` (ValidateQuery) and resolves its
  /// tables. `q` and `catalog` must outlive the engine.
  static common::StatusOr<JoinEngine> Open(const storage::Catalog& catalog,
                                           const Query& q);

  const Query& query() const { return *q_; }
  const storage::Table& table(int slot) const {
    return *tables_[static_cast<size_t>(slot)];
  }

  /// The rows of table slot `slot` that satisfy the compound predicates on
  /// that slot: selections are pushed below every join.
  common::StatusOr<TupleSet> Scan(int slot) const;

  /// Hash join on every edge of the query's joins that has one endpoint in
  /// each input: `build` is hashed on the first such edge and the others
  /// are verified per match. Output tuples are `probe`'s layout followed by
  /// `build`'s, in probe scan order and, per probe tuple, build scan order.
  /// Inputs that share no edge would be a cross product and are rejected.
  common::StatusOr<TupleSet> HashJoin(const TupleSet& probe,
                                      const TupleSet& build) const;

  /// The result count at the root: joins `probe` with `build` as HashJoin
  /// does but counts the matches instead of materializing them; with
  /// GROUP BY, `result` is the number of distinct grouping keys among them.
  /// A null `build` counts `probe`'s own tuples (a one-table plan).
  common::StatusOr<JoinCount> CountResult(const TupleSet& probe,
                                          const TupleSet* build) const;

 private:
  JoinEngine(const Query* q, std::vector<const storage::Table*> tables)
      : q_(q), tables_(std::move(tables)) {}

  const Query* q_;
  std::vector<const storage::Table*> tables_;  // per query slot
};

/// Multi-table execution: exact counts for join queries and materialization
/// of sub-schema joins for local models (Section 2.1.2 / 4.1). Both are
/// left-deep folds over JoinEngine in `q.tables` order: each step probes the
/// joined set with the first unjoined table connected to it.
class JoinExecutor {
 public:
  /// Returns the exact count(*) of the (possibly joined) query `q` against
  /// `catalog`; with GROUP BY, the number of groups. A one-table query is
  /// Executor::Count. Joins are never cross products: every table must be
  /// reachable through `q.joins`.
  static common::StatusOr<int64_t> Count(const storage::Catalog& catalog,
                                         const Query& q);

  /// Materializes the join of `table_names` along the key/foreign-key edges
  /// of `graph`. The result's columns are named `<table>.<column>` for every
  /// column of every input table, so the result can be queried as a single
  /// table by Executor. Local models train on such materializations.
  static common::StatusOr<storage::Table> Materialize(
      const storage::Catalog& catalog,
      const std::vector<std::string>& table_names, const SchemaGraph& graph);
};

}  // namespace qfcard::query

#endif  // QFCARD_QUERY_JOIN_EXECUTOR_H_
