#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
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

// Sets bits [lo, hi) of `bits`.
void SetBits(uint64_t* bits, size_t lo, size_t hi) {
  for (; lo < hi && lo % 64 != 0; ++lo) {
    bits[lo / 64] |= uint64_t{1} << (lo % 64);
  }
  for (; lo + 64 <= hi; lo += 64) bits[lo / 64] = ~uint64_t{0};
  for (; lo < hi; ++lo) bits[lo / 64] |= uint64_t{1} << (lo % 64);
}

bool TestBit(const uint64_t* bits, uint32_t code) {
  return ((bits[code / 64] >> (code % 64)) & 1) != 0;
}

// ORs into `bits` the codes (ColumnStats::codes) of the rows that satisfy
// every predicate of `clause`, with the semantics of EvalCmp. Each operator
// but <> bounds one code interval by binary search over the ascending
// distinct values; a <> literal removes at most one code (`holes` is
// scratch). A NaN row, code `distinct`, satisfies only <>, and a NaN literal
// fails every operator but <>, which every row passes.
void AddClause(const storage::ColumnStats& stats,
               const ConjunctiveClause& clause, std::vector<size_t>& holes,
               uint64_t* bits) {
  const std::vector<double>& values = stats.values;
  const auto first_not_below = [&](double v) {
    return static_cast<size_t>(
        std::lower_bound(values.begin(), values.end(), v) - values.begin());
  };
  const auto first_above = [&](double v) {
    return static_cast<size_t>(
        std::upper_bound(values.begin(), values.end(), v) - values.begin());
  };
  size_t lo = 0;
  size_t hi = values.size();
  bool nan_row = true;
  holes.clear();
  for (const SimplePredicate& p : clause.preds) {
    if (p.op == CmpOp::kNe) {
      const size_t c = first_not_below(p.value);
      if (c < values.size() && values[c] == p.value) holes.push_back(c);
      continue;
    }
    nan_row = false;
    if (std::isnan(p.value)) {
      hi = 0;
      continue;
    }
    switch (p.op) {
      case CmpOp::kEq:
        lo = std::max(lo, first_not_below(p.value));
        hi = std::min(hi, first_above(p.value));
        break;
      case CmpOp::kLt:
        hi = std::min(hi, first_not_below(p.value));
        break;
      case CmpOp::kLe:
        hi = std::min(hi, first_above(p.value));
        break;
      case CmpOp::kGt:
        lo = std::max(lo, first_above(p.value));
        break;
      case CmpOp::kGe:
        lo = std::max(lo, first_not_below(p.value));
        break;
      case CmpOp::kNe:
        break;
    }
  }
  std::sort(holes.begin(), holes.end());
  for (const size_t h : holes) {
    if (h < lo || h >= hi) continue;
    SetBits(bits, lo, h);
    lo = h + 1;
  }
  SetBits(bits, lo, hi);
  if (nan_row) SetBits(bits, values.size(), values.size() + 1);
}

// One compound on one slot: its column's row codes, its accepted codes as
// a bitmap of distinct + 1 bits at `word` of the shared bitmap buffer, and
// the exact number of rows it accepts.
struct CompoundScan {
  const uint32_t* codes;
  size_t word;
  int64_t rows;
};

// The exact number of rows whose code is set in `bits`.
int64_t CountRows(const storage::ColumnStats& stats, const uint64_t* bits) {
  const size_t distinct = stats.values.size();
  int64_t rows = 0;
  for (size_t w = 0; w <= distinct / 64; ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      const size_t c = w * 64 + static_cast<size_t>(std::countr_zero(word));
      rows += c < distinct ? stats.counts[c] : stats.nan_rows;
    }
  }
  return rows;
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
  for (const CompoundPredicate& cp : q.predicates) {
    if (cp.col.table != slot) continue;
    for (const ConjunctiveClause& clause : cp.disjuncts) {
      for (const SimplePredicate& p : clause.preds) {
        if (!(p.col == cp.col)) {
          return common::Status::InvalidArgument(
              "compound predicate mixes attributes; not a mixed query "
              "(Definition 3.3)");
        }
      }
    }
  }
  // Each compound becomes a bitmap over its column's value codes, counted
  // exactly from the value counts.
  std::vector<CompoundScan> scans;
  std::vector<uint64_t> bits;
  std::vector<size_t> holes;
  for (const CompoundPredicate& cp : q.predicates) {
    if (cp.col.table != slot) continue;
    const storage::ColumnStats& stats = table.column(cp.col.column).GetStats();
    const size_t word = bits.size();
    bits.resize(word + stats.values.size() / 64 + 1);
    for (const ConjunctiveClause& clause : cp.disjuncts) {
      AddClause(stats, clause, holes, bits.data() + word);
    }
    scans.push_back(CompoundScan{stats.codes.data(), word,
                                 CountRows(stats, bits.data() + word)});
  }
  // The most selective compound runs first and the later ones narrow its
  // rows in place. AND commutes and every pass keeps the row order, so the
  // ids come out ascending whatever the order.
  std::stable_sort(scans.begin(), scans.end(),
                   [](const CompoundScan& a, const CompoundScan& b) {
                     return a.rows < b.rows;
                   });
  const int64_t n = table.num_rows();
  std::vector<int32_t> rows;
  if (scans.empty() || scans.front().rows == n) {
    rows.resize(static_cast<size_t>(n));
    std::iota(rows.begin(), rows.end(), 0);
    return rows;
  }
  if (scans.front().rows == 0) return rows;
  // Branch-free compaction: every row is written and the cursor advances by
  // its bit, so the first pass writes at most its exact count plus one.
  size_t k = 0;
  {
    const CompoundScan& s = scans.front();
    const uint64_t* set = bits.data() + s.word;
    rows.resize(static_cast<size_t>(s.rows) + 1);
    for (int32_t r = 0; r < n; ++r) {
      rows[k] = r;
      k += TestBit(set, s.codes[r]) ? 1 : 0;
    }
  }
  for (size_t i = 1; i < scans.size() && k > 0; ++i) {
    const CompoundScan& s = scans[i];
    if (s.rows == n) break;  // this compound and every later one accept all
    const uint64_t* set = bits.data() + s.word;
    const size_t m = k;
    k = 0;
    for (size_t j = 0; j < m; ++j) {
      const int32_t r = rows[j];
      rows[k] = r;
      k += TestBit(set, s.codes[r]) ? 1 : 0;
    }
  }
  rows.resize(k);
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
