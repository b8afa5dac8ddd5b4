#ifndef QFCARD_QUERY_EXECUTOR_H_
#define QFCARD_QUERY_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "storage/table.h"

namespace qfcard::query {

/// Single-table selection executor. Produces exact counts; serves as the
/// ground-truth oracle that labels training/test queries (the paper's
/// "query -> cardinality" function for fixed data).
class Executor {
 public:
  /// Returns the row ids of `table`, the table of slot `slot` of `q`, that
  /// satisfy the compound predicates on that slot, in ascending order;
  /// predicates on other slots are ignored. Joins push their selections
  /// down through it. Column-at-a-time: each simple predicate is one
  /// branch-free compaction of the surviving row ids.
  static common::StatusOr<std::vector<int32_t>> Filter(
      const storage::Table& table, const Query& q, int slot);

  /// Returns count(*) of `q` over `table`. If the query has a GROUP BY
  /// clause, returns the number of groups (the result size of the grouped
  /// count query, per Section 6).
  static common::StatusOr<int64_t> Count(const storage::Table& table,
                                         const Query& q);
};

/// Returns the number of distinct keys in `keys`, a row-major buffer of
/// `keys.size() / width` keys of `width` values each. Keys are compared
/// exactly (operator== per value), never by hash: counting distinct 64-bit
/// hashes undercounts whenever two keys collide. This is the GROUP BY
/// result size of Executor::Count and JoinEngine::CountResult.
int64_t CountDistinctKeys(const std::vector<double>& keys, size_t width);

}  // namespace qfcard::query

#endif  // QFCARD_QUERY_EXECUTOR_H_
