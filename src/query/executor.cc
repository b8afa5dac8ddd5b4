#include "query/executor.h"

#include <algorithm>
#include <functional>
#include <numeric>

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

// Writes to `out` the rows of `in[0, n)` whose value in `col` satisfies
// `cmp(value, literal)`, in order, and returns how many. Branch-free: every
// row is written and the cursor advances by the comparison's result. `out`
// may be `in`, compacting in place.
template <typename Cmp>
size_t CompactWhere(const double* col, double literal, Cmp cmp,
                    const int32_t* in, size_t n, int32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t r = in[i];
    out[k] = r;
    k += cmp(col[r], literal) ? 1 : 0;
  }
  return k;
}

// Writes to `out` the rows of `in[0, n)` that satisfy `p` and returns how
// many, with the comparison semantics of EvalCmp (NaN fails every operator
// but <>).
size_t CompactPredicate(const storage::Table& table, const SimplePredicate& p,
                        const int32_t* in, size_t n, int32_t* out) {
  const double* col = table.column(p.col.column).data().data();
  switch (p.op) {
    case CmpOp::kEq:
      return CompactWhere(col, p.value, std::equal_to<double>(), in, n, out);
    case CmpOp::kNe:
      return CompactWhere(col, p.value, std::not_equal_to<double>(), in, n,
                          out);
    case CmpOp::kLt:
      return CompactWhere(col, p.value, std::less<double>(), in, n, out);
    case CmpOp::kLe:
      return CompactWhere(col, p.value, std::less_equal<double>(), in, n, out);
    case CmpOp::kGt:
      return CompactWhere(col, p.value, std::greater<double>(), in, n, out);
    case CmpOp::kGe:
      return CompactWhere(col, p.value, std::greater_equal<double>(), in, n,
                          out);
  }
  return 0;
}

// Writes to `out` the rows of `in[0, n)` that satisfy every predicate of
// `clause` and returns how many: the first predicate reads `in`, the rest
// narrow `out` in place. `out` may be `in`.
size_t CompactClause(const storage::Table& table,
                     const ConjunctiveClause& clause, const int32_t* in,
                     size_t n, int32_t* out) {
  if (clause.preds.empty()) {
    if (out != in) std::copy(in, in + n, out);
    return n;
  }
  for (const SimplePredicate& p : clause.preds) {
    n = CompactPredicate(table, p, in, n, out);
    in = out;
  }
  return n;
}

// Per-call scratch of a multi-clause compound: the candidates no earlier
// clause accepted, one clause's survivors among them, and an accepted mark
// per table row (all zero between compounds).
struct DisjunctionScratch {
  std::vector<int32_t> pending;
  std::vector<int32_t> clause_rows;
  std::vector<uint8_t> accepted;
};

// Keeps the rows of `rows` that satisfy any clause of `cp`. Each clause is
// evaluated only on the candidates that no earlier clause accepted; `rows`
// is then compacted by the accepted marks, so it stays in ascending order.
void CompactDisjunction(const storage::Table& table,
                        const CompoundPredicate& cp, DisjunctionScratch& s,
                        std::vector<int32_t>& rows) {
  if (s.accepted.empty()) {
    s.accepted.assign(static_cast<size_t>(table.num_rows()), 0);
  }
  s.pending = rows;
  s.clause_rows.resize(rows.size());
  size_t pending = rows.size();
  for (size_t c = 0; c < cp.disjuncts.size() && pending > 0; ++c) {
    const size_t n = CompactClause(table, cp.disjuncts[c], s.pending.data(),
                                   pending, s.clause_rows.data());
    for (size_t i = 0; i < n; ++i) {
      s.accepted[static_cast<size_t>(s.clause_rows[i])] = 1;
    }
    if (c + 1 == cp.disjuncts.size()) break;
    size_t k = 0;
    for (size_t i = 0; i < pending; ++i) {
      const int32_t r = s.pending[i];
      s.pending[k] = r;
      k += 1 - s.accepted[static_cast<size_t>(r)];
    }
    pending = k;
  }
  size_t k = 0;
  for (const int32_t r : rows) {
    const size_t i = static_cast<size_t>(r);
    rows[k] = r;
    k += s.accepted[i];
    s.accepted[i] = 0;
  }
  rows.resize(k);
}

}  // namespace

int64_t CountDistinctKeys(const std::vector<double>& keys, size_t width) {
  if (width == 0 || keys.empty()) return 0;
  const size_t n = keys.size() / width;
  const auto key = [&](size_t i) { return keys.data() + i * width; };
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(key(a), key(a) + width, key(b),
                                        key(b) + width);
  });
  int64_t distinct = 1;
  for (size_t i = 1; i < n; ++i) {
    const bool repeat =
        std::equal(key(order[i]), key(order[i]) + width, key(order[i - 1]));
    distinct += repeat ? 0 : 1;
  }
  return distinct;
}

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
  std::iota(rows.begin(), rows.end(), 0);
  // Conjunctions narrow the rows before any disjunction runs: the result is
  // the same, and each disjunction then visits fewer candidates per clause.
  DisjunctionScratch scratch;
  for (const bool disjunctive : {false, true}) {
    for (const CompoundPredicate& cp : q.predicates) {
      if (cp.col.table != slot || rows.empty()) continue;
      if ((cp.disjuncts.size() != 1) != disjunctive) continue;
      if (disjunctive) {
        CompactDisjunction(table, cp, scratch, rows);
      } else {
        rows.resize(CompactClause(table, cp.disjuncts[0], rows.data(),
                                  rows.size(), rows.data()));
      }
    }
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
  // combinations among qualifying rows (Section 6).
  const size_t width = q.group_by.size();
  std::vector<double> keys(rows.size() * width);
  for (size_t g = 0; g < width; ++g) {
    const double* col = table.column(q.group_by[g].column).data().data();
    for (size_t i = 0; i < rows.size(); ++i) keys[i * width + g] = col[rows[i]];
  }
  const int64_t groups = CountDistinctKeys(keys, width);
  PublishExecutionFeedback(q, static_cast<double>(groups));
  return groups;
}

}  // namespace qfcard::query
