#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/random.h"
#include "gtest/gtest.h"
#include "optimizer/plan_executor.h"
#include "query/join_executor.h"
#include "query/schema_graph.h"
#include "test_util.h"
#include "testing/reference_eval.h"
#include "workload/forest.h"
#include "workload/query_gen.h"
#include "workload/strings.h"

namespace qfcard::query {
namespace {

using testutil::AddCompound;
using testutil::AddPredicate;
using testutil::IntColumn;
using testutil::SingleTableQuery;
using testutil::SmallTable;

// Brute-force reference: the row ids of `slot`'s table satisfying every
// compound on that slot, by a per-row EvalCompoundOnRow loop.
std::vector<int32_t> RowLoopFilter(const storage::Table& t, const Query& q,
                                   int slot) {
  std::vector<int32_t> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    bool ok = true;
    for (const CompoundPredicate& cp : q.predicates) {
      if (cp.col.table == slot && !EvalCompoundOnRow(t, r, cp)) ok = false;
    }
    if (ok) rows.push_back(static_cast<int32_t>(r));
  }
  return rows;
}

TEST(ExecutorTest, EmptyPredicateListCountsAllRows) {
  const storage::Table t = SmallTable();
  const Query q = SingleTableQuery("small");
  ASSERT_TRUE(Executor::Count(t, q).ok());
  EXPECT_EQ(Executor::Count(t, q).value(), 10);
}

TEST(ExecutorTest, SimpleRange) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{CmpOp::kGe, 3}, {CmpOp::kLe, 7}}});
  EXPECT_EQ(Executor::Count(t, q).value(), 5);
}

TEST(ExecutorTest, DisjunctionAcrossClauses) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{CmpOp::kLe, 1}}, {{CmpOp::kGe, 9}}});
  EXPECT_EQ(Executor::Count(t, q).value(), 3);  // {0,1,9}
}

TEST(ExecutorTest, MultiAttributeConjunction) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  AddPredicate(q, 0, CmpOp::kGe, 2);
  AddPredicate(q, 1, CmpOp::kLt, 70);  // b < 70 -> a < 7
  EXPECT_EQ(Executor::Count(t, q).value(), 5);  // a in {2..6}
}

TEST(ExecutorTest, RejectsJoinQueries) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  q.tables.push_back(TableRef{"other", "other"});
  EXPECT_EQ(Executor::Count(t, q).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, RejectsOutOfRangeColumns) {
  const storage::Table t = SmallTable();  // 2 columns
  Query grouped = SingleTableQuery("small");
  grouped.group_by.push_back(ColumnRef{0, 7});
  EXPECT_EQ(Executor::Count(t, grouped).status().code(),
            common::StatusCode::kOutOfRange);
  // A simple predicate's own column is range-checked too, before the
  // Definition 3.3 check that it names its compound's column.
  Query filtered = SingleTableQuery("small");
  AddCompound(filtered, 0, {{{CmpOp::kEq, 4}}});
  filtered.predicates[0].disjuncts[0].preds[0].col.column = 7;
  EXPECT_EQ(Executor::Count(t, filtered).status().code(),
            common::StatusCode::kOutOfRange);
}

TEST(ExecutorTest, RejectsPredicateOnAnotherColumnThanItsCompound) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{CmpOp::kGe, 2}}, {{CmpOp::kEq, 40}}});
  q.predicates[0].disjuncts[1].preds[0].col.column = 1;  // b = 40
  const auto rows_or = Executor::Filter(t, q, 0);
  EXPECT_EQ(rows_or.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(rows_or.status().message().find("Definition 3.3"),
            std::string::npos)
      << rows_or.status();
  EXPECT_EQ(Executor::Count(t, q).status().code(),
            common::StatusCode::kInvalidArgument);
  // Slot 1's compounds are not checked when filtering slot 0.
  q.predicates[0].col.table = 1;
  for (ConjunctiveClause& clause : q.predicates[0].disjuncts) {
    for (SimplePredicate& p : clause.preds) p.col.table = 1;
  }
  EXPECT_EQ(Executor::Filter(t, q, 0).value().size(), 10u);
}

TEST(ExecutorTest, FilterReturnsRowIds) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{CmpOp::kEq, 4}}});
  const auto rows_or = Executor::Filter(t, q, 0);
  ASSERT_TRUE(rows_or.ok());
  ASSERT_EQ(rows_or.value().size(), 1u);
  EXPECT_EQ(rows_or.value()[0], 4);
}

TEST(ExecutorTest, FilterAppliesOnlyItsSlotsPredicates) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  q.tables.push_back(TableRef{"small", "other"});
  AddCompound(q, 0, {{{CmpOp::kLe, 1}}});  // slot 0: a <= 1
  CompoundPredicate cp;
  cp.col = ColumnRef{1, 0};  // slot 1: a >= 8
  cp.disjuncts.push_back(
      ConjunctiveClause{{SimplePredicate{cp.col, CmpOp::kGe, 8}}});
  q.predicates.push_back(cp);
  EXPECT_EQ(Executor::Filter(t, q, 0).value(), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(Executor::Filter(t, q, 1).value(), (std::vector<int32_t>{8, 9}));
}

TEST(ExecutorTest, GroupByCountsGroups) {
  storage::Table t("t");
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("g", {1, 1, 2, 2, 3, 3})));
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("v", {5, 6, 7, 8, 9, 10})));
  Query q = SingleTableQuery("t");
  AddPredicate(q, 1, CmpOp::kLe, 8);  // rows 0..3 -> groups {1,2}
  q.group_by.push_back(ColumnRef{0, 0});
  EXPECT_EQ(Executor::Count(t, q).value(), 2);
}

// Property test: executor agrees with per-row brute force on randomized
// mixed queries over a randomized table.
class ExecutorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFuzzTest, MatchesNaiveEvaluation) {
  common::Rng rng(GetParam());
  storage::Table t("fuzz");
  const int64_t rows = 500;
  for (int c = 0; c < 4; ++c) {
    std::vector<double> values;
    values.reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      values.push_back(static_cast<double>(rng.UniformInt(0, 30)));
    }
    QFCARD_CHECK_OK(
        t.AddColumn(IntColumn("c" + std::to_string(c), values)));
  }
  for (int iter = 0; iter < 20; ++iter) {
    Query q = SingleTableQuery("fuzz");
    const int n_attrs = static_cast<int>(rng.UniformInt(1, 4));
    const std::vector<int> attrs = rng.SampleWithoutReplacement(4, n_attrs);
    for (const int a : attrs) {
      const int n_clauses = static_cast<int>(rng.UniformInt(1, 3));
      std::vector<std::vector<std::pair<CmpOp, double>>> clauses;
      for (int cl = 0; cl < n_clauses; ++cl) {
        const int n_preds = static_cast<int>(rng.UniformInt(1, 3));
        std::vector<std::pair<CmpOp, double>> preds;
        for (int p = 0; p < n_preds; ++p) {
          const CmpOp op = static_cast<CmpOp>(rng.UniformInt(0, 5));
          preds.push_back({op, static_cast<double>(rng.UniformInt(0, 30))});
        }
        clauses.push_back(std::move(preds));
      }
      AddCompound(q, a, clauses);
    }
    const auto count_or = Executor::Count(t, q);
    ASSERT_TRUE(count_or.ok()) << count_or.status();
    EXPECT_EQ(count_or.value(),
              static_cast<int64_t>(RowLoopFilter(t, q, 0).size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Selection-vector filter, differential
// ---------------------------------------------------------------------------

// Filter must equal the row loop (same ids, ascending) and Count must equal
// both the row loop and testing::ReferenceCount.
void ExpectFilterMatchesReferences(const storage::Table& t, const Query& q) {
  const auto rows_or = Executor::Filter(t, q, 0);
  ASSERT_TRUE(rows_or.ok()) << rows_or.status();
  const std::vector<int32_t> want = RowLoopFilter(t, q, 0);
  EXPECT_EQ(rows_or.value(), want);
  const auto count_or = Executor::Count(t, q);
  ASSERT_TRUE(count_or.ok()) << count_or.status();
  const auto ref_or = testing::ReferenceCount(t, q);
  ASSERT_TRUE(ref_or.ok()) << ref_or.status();
  EXPECT_EQ(count_or.value(), ref_or.value());
  if (q.group_by.empty()) {
    EXPECT_EQ(count_or.value(), static_cast<int64_t>(want.size()));
  }
}

// Integer column c0 in [0, 20], float column c1 in [-5, 5] with about one
// NaN in eight rows, and integer column c2 in [0, 3].
storage::Table NanTable(common::Rng& rng, int64_t rows) {
  std::vector<double> c0, c1, c2;
  for (int64_t r = 0; r < rows; ++r) {
    c0.push_back(static_cast<double>(rng.UniformInt(0, 20)));
    c1.push_back(rng.UniformInt(0, 7) == 0
                     ? std::numeric_limits<double>::quiet_NaN()
                     : 0.5 * static_cast<double>(rng.UniformInt(-10, 10)));
    c2.push_back(static_cast<double>(rng.UniformInt(0, 3)));
  }
  storage::Table t("nan");
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("c0", c0)));
  QFCARD_CHECK_OK(t.AddColumn(testutil::FloatColumn("c1", c1)));
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("c2", c2)));
  return t;
}

// A random compound of one to four clauses on `col` over all six operators.
// A literal is +inf, -inf, 100 (above every value) or a value of the column.
CompoundPredicate RandomCompound(common::Rng& rng, const storage::Table& t,
                                 int col) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CompoundPredicate cp;
  cp.col = ColumnRef{0, col};
  const int n_clauses = static_cast<int>(rng.UniformInt(1, 4));
  for (int c = 0; c < n_clauses; ++c) {
    ConjunctiveClause clause;
    const int n_preds = static_cast<int>(rng.UniformInt(1, 3));
    for (int p = 0; p < n_preds; ++p) {
      const CmpOp op = static_cast<CmpOp>(rng.UniformInt(0, 5));
      double literal = 0.0;
      switch (rng.UniformInt(0, 4)) {
        case 0:
          literal = kInf;
          break;
        case 1:
          literal = -kInf;
          break;
        case 2:
          literal = 100.0;
          break;
        default:
          literal = t.column(col).Get(rng.UniformInt(0, t.num_rows() - 1));
          if (std::isnan(literal)) literal = 0.5;  // NaN literals are rejected
      }
      clause.preds.push_back(SimplePredicate{cp.col, op, literal});
    }
    cp.disjuncts.push_back(std::move(clause));
  }
  return cp;
}

class FilterDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterDifferentialTest, AllOperatorsNanValuesAndInfiniteLiterals) {
  common::Rng rng(GetParam());
  const storage::Table t = NanTable(rng, 300);
  for (int iter = 0; iter < 60; ++iter) {
    Query q = SingleTableQuery("nan");
    const int n_attrs = static_cast<int>(rng.UniformInt(1, 3));
    for (const int col : rng.SampleWithoutReplacement(3, n_attrs)) {
      q.predicates.push_back(RandomCompound(rng, t, col));
    }
    // Grouping keys stay NaN-free: NaN has no exact-equality group.
    if (rng.UniformInt(0, 2) == 0) q.group_by.push_back(ColumnRef{0, 0});
    if (rng.UniformInt(0, 2) == 0) q.group_by.push_back(ColumnRef{0, 2});
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ExpectFilterMatchesReferences(t, q);
  }
}

TEST_P(FilterDifferentialTest, GeneratedMixedInListAndLikeQueries) {
  common::Rng rng(GetParam());
  workload::ForestOptions fopts;
  fopts.num_rows = 2000;
  fopts.num_attributes = 6;
  fopts.seed = GetParam();
  const storage::Table forest = workload::MakeForestTable(fopts);
  workload::StringsOptions sopts;
  sopts.num_rows = 2000;
  sopts.seed = GetParam();
  const storage::Table items = workload::MakeStringsTable(sopts);

  workload::PredicateGenOptions mixed = workload::MixedWorkloadOptions(5);
  mixed.max_group_by_attrs = 2;
  workload::PredicateGenOptions in_list = workload::MixedWorkloadOptions(5);
  in_list.in_list_prob = 0.6;
  workload::PredicateGenOptions like = workload::MixedWorkloadOptions(4);
  like.like_prob = 0.7;
  like.in_list_prob = 0.2;
  for (const auto& [table, opts] :
       {std::pair{&forest, mixed}, std::pair{&forest, in_list},
        std::pair{&items, like}}) {
    for (const Query& q :
         workload::GeneratePredicateWorkload(*table, 60, opts, rng)) {
      ExpectFilterMatchesReferences(*table, q);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(FilterEdgeCaseTest, EmptyTable) {
  storage::Table t("nan");
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("c0", {})));
  Query q = SingleTableQuery("nan");
  AddCompound(q, 0, {{{CmpOp::kGe, 1}}, {{CmpOp::kNe, 3}, {CmpOp::kLt, 9}}});
  ExpectFilterMatchesReferences(t, q);
  EXPECT_TRUE(Executor::Filter(t, q, 0).value().empty());
  q.group_by.push_back(ColumnRef{0, 0});
  EXPECT_EQ(Executor::Count(t, q).value(), 0);
}

TEST(FilterEdgeCaseTest, CompoundAcceptingEveryRow) {
  common::Rng rng(9);
  const storage::Table t = NanTable(rng, 200);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Every value of c0 is < 10 or >= 10; every value is > -inf; a clause
  // without predicates accepts every row, NaN included.
  Query split = SingleTableQuery("nan");
  AddCompound(split, 0, {{{CmpOp::kLt, 10}}, {{CmpOp::kGe, 10}}});
  AddCompound(split, 2, {{{CmpOp::kGt, -kInf}}});
  Query empty_clause = SingleTableQuery("nan");
  AddCompound(empty_clause, 1, {{{CmpOp::kEq, 100}}, {}});
  for (const Query& q : {split, empty_clause}) {
    ExpectFilterMatchesReferences(t, q);
    EXPECT_EQ(Executor::Count(t, q).value(), t.num_rows());
  }
}

TEST(FilterEdgeCaseTest, NonZeroSlotReturnsAscendingRowIds) {
  common::Rng rng(17);
  const storage::Table t = NanTable(rng, 400);
  for (int iter = 0; iter < 40; ++iter) {
    Query q;
    q.tables.push_back(TableRef{"other", "other"});
    q.tables.push_back(TableRef{"nan", "nan"});
    // A predicate on slot 0 that would empty slot 1's scan if applied.
    AddPredicate(q, 0, CmpOp::kGt, 1e9);
    const int n_attrs = static_cast<int>(rng.UniformInt(1, 3));
    for (const int col : rng.SampleWithoutReplacement(3, n_attrs)) {
      CompoundPredicate cp = RandomCompound(rng, t, col);
      cp.col.table = 1;
      for (ConjunctiveClause& clause : cp.disjuncts) {
        for (SimplePredicate& p : clause.preds) p.col.table = 1;
      }
      q.predicates.push_back(std::move(cp));
    }
    const auto rows_or = Executor::Filter(t, q, 1);
    ASSERT_TRUE(rows_or.ok()) << rows_or.status();
    const std::vector<int32_t>& rows = rows_or.value();
    EXPECT_EQ(rows, RowLoopFilter(t, q, 1));
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                               std::less_equal<int32_t>()));
  }
}

// A float column holding both infinities, a NaN and signed zeros.
storage::Table InfiniteTable() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  storage::Table t("nan");
  QFCARD_CHECK_OK(t.AddColumn(testutil::FloatColumn(
      "c0", {kInf, 1.5, -kInf, nan, 0.0, -0.0, kInf, 1.5, -2.0})));
  return t;
}

TEST(FilterEdgeCaseTest, NanLiteralUnderEveryOperator) {
  common::Rng rng(5);
  const storage::Table t = NanTable(rng, 200);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int op = 0; op < 6; ++op) {
    const CmpOp cmp = static_cast<CmpOp>(op);
    SCOPED_TRACE(CmpOpToString(cmp));
    for (int col = 0; col < 3; ++col) {
      Query alone = SingleTableQuery("nan");
      AddCompound(alone, col, {{{cmp, nan}}});
      ExpectFilterMatchesReferences(t, alone);
      // NaN passes only <>, so only then does it leave the row set whole.
      EXPECT_EQ(Executor::Count(t, alone).value(),
                cmp == CmpOp::kNe ? t.num_rows() : 0);
      Query mixed = SingleTableQuery("nan");
      AddCompound(mixed, col,
                  {{{cmp, nan}, {CmpOp::kGe, 0}}, {{CmpOp::kLt, -1}}});
      ExpectFilterMatchesReferences(t, mixed);
    }
  }
}

TEST(FilterEdgeCaseTest, InfiniteLiteralsOnInfiniteValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const storage::Table t = InfiniteTable();
  for (int op = 0; op < 6; ++op) {
    const CmpOp cmp = static_cast<CmpOp>(op);
    for (const double literal : {kInf, -kInf, 0.0, -0.0, 1.5}) {
      SCOPED_TRACE(std::string(CmpOpToString(cmp)) + " " +
                   std::to_string(literal));
      Query q = SingleTableQuery("nan");
      AddCompound(q, 0, {{{cmp, literal}}});
      ExpectFilterMatchesReferences(t, q);
      Query range = SingleTableQuery("nan");
      AddCompound(range, 0,
                  {{{cmp, literal}, {CmpOp::kNe, kInf}},
                   {{CmpOp::kEq, -kInf}}});
      ExpectFilterMatchesReferences(t, range);
    }
  }
}

TEST(FilterEdgeCaseTest, EmptyClauseAndCompoundWithoutClauses) {
  common::Rng rng(11);
  const storage::Table t = NanTable(rng, 200);
  // The clause without predicates accepts every row, NaN rows included.
  Query empty_clause = SingleTableQuery("nan");
  AddCompound(empty_clause, 1, {{}});
  ExpectFilterMatchesReferences(t, empty_clause);
  EXPECT_EQ(Executor::Count(t, empty_clause).value(), t.num_rows());
  // A compound without clauses accepts no row.
  Query no_clauses = SingleTableQuery("nan");
  AddCompound(no_clauses, 0, {{{CmpOp::kGe, 3}}});
  AddCompound(no_clauses, 1, {});
  ExpectFilterMatchesReferences(t, no_clauses);
  EXPECT_TRUE(Executor::Filter(t, no_clauses, 0).value().empty());
}

TEST(FilterEdgeCaseTest, TwoCompoundsOnOneColumn) {
  common::Rng rng(13);
  const storage::Table t = NanTable(rng, 300);
  for (int col = 0; col < 3; ++col) {
    for (int iter = 0; iter < 20; ++iter) {
      Query q = SingleTableQuery("nan");
      q.predicates.push_back(RandomCompound(rng, t, col));
      q.predicates.push_back(RandomCompound(rng, t, col));
      ExpectFilterMatchesReferences(t, q);
    }
  }
  // c0 in [3, 10] and c0 in [8, 20]: the two compounds meet in [8, 10].
  Query overlap = SingleTableQuery("nan");
  AddCompound(overlap, 0, {{{CmpOp::kGe, 3}, {CmpOp::kLe, 10}}});
  AddCompound(overlap, 0, {{{CmpOp::kGe, 8}}});
  ExpectFilterMatchesReferences(t, overlap);
  const std::vector<int32_t> rows = Executor::Filter(t, overlap, 0).value();
  for (const int32_t r : rows) {
    EXPECT_GE(t.column(0).Get(r), 8);
    EXPECT_LE(t.column(0).Get(r), 10);
  }
}

TEST(FilterEdgeCaseTest, PermutedCompoundsGiveTheSameAscendingRows) {
  common::Rng rng(19);
  const storage::Table t = NanTable(rng, 400);
  for (int iter = 0; iter < 40; ++iter) {
    Query q = SingleTableQuery("nan");
    const int n_compounds = static_cast<int>(rng.UniformInt(2, 4));
    for (int c = 0; c < n_compounds; ++c) {
      q.predicates.push_back(
          RandomCompound(rng, t, static_cast<int>(rng.UniformInt(0, 2))));
    }
    const std::vector<int32_t> rows = Executor::Filter(t, q, 0).value();
    EXPECT_EQ(rows, RowLoopFilter(t, q, 0));
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                               std::less_equal<int32_t>()));
    std::vector<size_t> order(q.predicates.size());
    std::iota(order.begin(), order.end(), size_t{0});
    while (std::next_permutation(order.begin(), order.end())) {
      Query permuted = q;
      for (size_t i = 0; i < order.size(); ++i) {
        permuted.predicates[i] = q.predicates[order[i]];
      }
      EXPECT_EQ(Executor::Filter(t, permuted, 0).value(), rows);
    }
  }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// orders(id, cust_id, amount) -> customers(id, region)
storage::Catalog MakeJoinCatalog() {
  storage::Catalog cat;
  storage::Table customers("customers");
  QFCARD_CHECK_OK(customers.AddColumn(IntColumn("id", {0, 1, 2})));
  QFCARD_CHECK_OK(customers.AddColumn(IntColumn("region", {10, 20, 10})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(customers)));

  storage::Table orders("orders");
  QFCARD_CHECK_OK(
      orders.AddColumn(IntColumn("id", {0, 1, 2, 3, 4, 5})));
  QFCARD_CHECK_OK(
      orders.AddColumn(IntColumn("cust_id", {0, 0, 1, 1, 2, 9})));
  QFCARD_CHECK_OK(
      orders.AddColumn(IntColumn("amount", {5, 15, 25, 35, 45, 55})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(orders)));
  return cat;
}

SchemaGraph MakeJoinGraph() {
  SchemaGraph g;
  g.AddEdge(FkEdge{"orders", "cust_id", "customers", "id"});
  return g;
}

Query MakeJoinQuery() {
  Query q;
  q.tables.push_back(TableRef{"orders", "orders"});
  q.tables.push_back(TableRef{"customers", "customers"});
  q.joins.push_back(JoinPredicate{ColumnRef{0, 1}, ColumnRef{1, 0}});
  return q;
}

TEST(JoinExecutorTest, PlainJoinCount) {
  const storage::Catalog cat = MakeJoinCatalog();
  const Query q = MakeJoinQuery();
  // orders rows with cust_id in {0,1,2} = 5 (cust_id 9 dangles).
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), 5);
}

TEST(JoinExecutorTest, JoinWithSelections) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q = MakeJoinQuery();
  // region = 10 keeps customers {0, 2}; orders for those: {0,1} and {4}.
  CompoundPredicate cp;
  cp.col = ColumnRef{1, 1};
  ConjunctiveClause clause;
  clause.preds.push_back(SimplePredicate{cp.col, CmpOp::kEq, 10});
  cp.disjuncts.push_back(clause);
  q.predicates.push_back(cp);
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), 3);
}

TEST(JoinExecutorTest, SelectionsOnBothSides) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q = MakeJoinQuery();
  CompoundPredicate region;
  region.col = ColumnRef{1, 1};
  ConjunctiveClause rc;
  rc.preds.push_back(SimplePredicate{region.col, CmpOp::kEq, 10});
  region.disjuncts.push_back(rc);
  q.predicates.push_back(region);
  CompoundPredicate amount;
  amount.col = ColumnRef{0, 2};
  ConjunctiveClause ac;
  ac.preds.push_back(SimplePredicate{amount.col, CmpOp::kGt, 10});
  amount.disjuncts.push_back(ac);
  q.predicates.push_back(amount);
  // Qualifying: order1(cust0, 15), order4(cust2, 45).
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), 2);
}

TEST(JoinExecutorTest, SingleTableFallback) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q;
  q.tables.push_back(TableRef{"orders", "orders"});
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), 6);
}

// A plan whose root joins leaf slot 0 with leaf slot 1, or a lone leaf.
opt::JoinPlan TwoLeafPlan() {
  opt::JoinPlan plan;
  plan.nodes.resize(3);
  plan.nodes[0].table = 0;
  plan.nodes[1].table = 1;
  plan.nodes[2].left = 0;
  plan.nodes[2].right = 1;
  plan.root = 2;
  return plan;
}

opt::JoinPlan LeafPlan() {
  opt::JoinPlan plan;
  plan.nodes.resize(1);
  plan.nodes[0].table = 0;
  plan.root = 0;
  return plan;
}

TEST(JoinExecutorTest, OneTableGroupByCountsGroups) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q;
  q.tables.push_back(TableRef{"orders", "orders"});
  q.group_by.push_back(ColumnRef{0, 1});  // cust_id in {0, 1, 2, 9}
  const auto ref = testing::ReferenceJoinCount(cat, q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(ref.value(), 4);
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), ref.value());
  const auto exec = opt::ExecutePlan(cat, q, LeafPlan());
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec.value().result_rows, ref.value());
}

TEST(JoinExecutorTest, JoinGroupByCountsGroupsNotTuples) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q = MakeJoinQuery();
  q.group_by.push_back(ColumnRef{1, 1});  // customers.region in {10, 20}
  const auto ref = testing::ReferenceJoinCount(cat, q);
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(ref.value(), 2);
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), ref.value());
  const auto exec = opt::ExecutePlan(cat, q, TwoLeafPlan());
  ASSERT_TRUE(exec.ok()) << exec.status();
  EXPECT_EQ(exec.value().result_rows, ref.value());
  // The realized C_out still sums join tuples: 5 orders find a customer.
  EXPECT_DOUBLE_EQ(exec.value().intermediate_rows, 5.0);
}

TEST(JoinExecutorTest, PlanWithOutOfRangeJoinColumnRejected) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q = MakeJoinQuery();
  q.joins[0].left.column = 7;  // orders has 3 columns
  EXPECT_EQ(JoinExecutor::Count(cat, q).status().code(),
            common::StatusCode::kOutOfRange);
  EXPECT_EQ(opt::ExecutePlan(cat, q, TwoLeafPlan()).status().code(),
            common::StatusCode::kOutOfRange);
}

TEST(JoinExecutorTest, MaterializeProducesJoinedTable) {
  const storage::Catalog cat = MakeJoinCatalog();
  const SchemaGraph graph = MakeJoinGraph();
  const auto mat_or =
      JoinExecutor::Materialize(cat, {"orders", "customers"}, graph);
  ASSERT_TRUE(mat_or.ok()) << mat_or.status();
  const storage::Table& mat = mat_or.value();
  EXPECT_EQ(mat.num_rows(), 5);
  EXPECT_EQ(mat.num_columns(), 5);
  ASSERT_TRUE(mat.ColumnIndex("orders.amount").ok());
  ASSERT_TRUE(mat.ColumnIndex("customers.region").ok());
  // Count over the materialization matches the join count with selections.
  Query local;
  local.tables.push_back(TableRef{mat.name(), mat.name()});
  const int region_col = mat.ColumnIndex("customers.region").value();
  testutil::AddPredicate(local, region_col, CmpOp::kEq, 10);
  EXPECT_EQ(Executor::Count(mat, local).value(), 3);
}

// Fuzz: three-table joins with random FK values and random selections,
// checked against a brute-force triple nested loop.
class JoinFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinFuzzTest, MatchesNestedLoopReference) {
  common::Rng rng(GetParam());
  storage::Catalog cat;
  // dim(id, x), fact(dim_id, y), extra(dim_id, z): two satellites around dim.
  const int64_t n_dim = 20;
  {
    storage::Table dim("dim");
    std::vector<double> id;
    std::vector<double> x;
    for (int64_t i = 0; i < n_dim; ++i) {
      id.push_back(static_cast<double>(i));
      x.push_back(static_cast<double>(rng.UniformInt(0, 9)));
    }
    QFCARD_CHECK_OK(dim.AddColumn(IntColumn("id", id)));
    QFCARD_CHECK_OK(dim.AddColumn(IntColumn("x", x)));
    QFCARD_CHECK_OK(cat.AddTable(std::move(dim)));
  }
  for (const char* name : {"fact", "extra"}) {
    storage::Table t(name);
    std::vector<double> fk;
    std::vector<double> payload;
    const int64_t rows = rng.UniformInt(30, 80);
    for (int64_t i = 0; i < rows; ++i) {
      // Some dangling FKs on purpose.
      fk.push_back(static_cast<double>(rng.UniformInt(0, n_dim + 4)));
      payload.push_back(static_cast<double>(rng.UniformInt(0, 9)));
    }
    QFCARD_CHECK_OK(t.AddColumn(IntColumn("dim_id", fk)));
    QFCARD_CHECK_OK(t.AddColumn(IntColumn(name[0] == 'f' ? "y" : "z", payload)));
    QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
  }
  const storage::Table& dim = *cat.GetTable("dim").value();
  const storage::Table& fact = *cat.GetTable("fact").value();
  const storage::Table& extra = *cat.GetTable("extra").value();

  for (int iter = 0; iter < 10; ++iter) {
    Query q;
    q.tables.push_back(TableRef{"dim", "dim"});
    q.tables.push_back(TableRef{"fact", "fact"});
    q.tables.push_back(TableRef{"extra", "extra"});
    q.joins.push_back(JoinPredicate{ColumnRef{1, 0}, ColumnRef{0, 0}});
    q.joins.push_back(JoinPredicate{ColumnRef{2, 0}, ColumnRef{0, 0}});
    // Random selections on x / y / z.
    const auto maybe_pred = [&](int slot, int col) {
      if (!rng.Bernoulli(0.7)) return;
      CompoundPredicate cp;
      cp.col = ColumnRef{slot, col};
      ConjunctiveClause clause;
      clause.preds.push_back(SimplePredicate{
          cp.col, static_cast<CmpOp>(rng.UniformInt(0, 5)),
          static_cast<double>(rng.UniformInt(0, 9))});
      cp.disjuncts.push_back(clause);
      q.predicates.push_back(cp);
    };
    maybe_pred(0, 1);
    maybe_pred(1, 1);
    maybe_pred(2, 1);

    // Brute force.
    int64_t expected = 0;
    for (int64_t d = 0; d < dim.num_rows(); ++d) {
      bool dim_ok = true;
      for (const CompoundPredicate& cp : q.predicates) {
        if (cp.col.table == 0 && !EvalCompoundOnRow(dim, d, cp)) dim_ok = false;
      }
      if (!dim_ok) continue;
      for (int64_t f = 0; f < fact.num_rows(); ++f) {
        if (fact.column(0).Get(f) != dim.column(0).Get(d)) continue;
        bool fact_ok = true;
        for (const CompoundPredicate& cp : q.predicates) {
          if (cp.col.table == 1 && !EvalCompoundOnRow(fact, f, cp)) {
            fact_ok = false;
          }
        }
        if (!fact_ok) continue;
        for (int64_t e = 0; e < extra.num_rows(); ++e) {
          if (extra.column(0).Get(e) != dim.column(0).Get(d)) continue;
          bool extra_ok = true;
          for (const CompoundPredicate& cp : q.predicates) {
            if (cp.col.table == 2 && !EvalCompoundOnRow(extra, e, cp)) {
              extra_ok = false;
            }
          }
          if (extra_ok) ++expected;
        }
      }
    }
    const auto count_or = JoinExecutor::Count(cat, q);
    ASSERT_TRUE(count_or.ok()) << count_or.status();
    EXPECT_EQ(count_or.value(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzzTest,
                         ::testing::Values(11u, 12u, 13u, 14u));

TEST(SchemaGraphTest, ConnectivityAndEnumeration) {
  SchemaGraph g;
  g.AddEdge(FkEdge{"b", "a_id", "a", "id"});
  g.AddEdge(FkEdge{"c", "a_id", "a", "id"});
  EXPECT_TRUE(g.IsConnected({"a", "b"}));
  EXPECT_TRUE(g.IsConnected({"a", "b", "c"}));
  EXPECT_FALSE(g.IsConnected({"b", "c"}));
  EXPECT_TRUE(g.IsConnected({"b"}));
  const auto subs = g.EnumerateSubSchemas({"a", "b", "c"}, 2, 3);
  // {a,b}, {a,c}, {a,b,c} are connected; {b,c} is not.
  EXPECT_EQ(subs.size(), 3u);
}

TEST(SchemaGraphTest, PopulateJoinsBuildsPredicates) {
  const storage::Catalog cat = MakeJoinCatalog();
  const SchemaGraph graph = MakeJoinGraph();
  Query q;
  q.tables.push_back(TableRef{"customers", "customers"});
  q.tables.push_back(TableRef{"orders", "orders"});
  ASSERT_TRUE(graph.PopulateJoins(cat, q).ok());
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), 5);
}

TEST(SchemaGraphTest, PopulateJoinsRejectsDisconnectedTables) {
  const storage::Catalog cat = MakeJoinCatalog();
  SchemaGraph empty_graph;
  Query q;
  q.tables.push_back(TableRef{"orders", "orders"});
  q.tables.push_back(TableRef{"customers", "customers"});
  EXPECT_EQ(empty_graph.PopulateJoins(cat, q).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(JoinExecutorTest, DisconnectedJoinGraphRejected) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q;
  q.tables.push_back(TableRef{"orders", "orders"});
  q.tables.push_back(TableRef{"customers", "customers"});
  // No join predicates: a cross product, which the executor refuses.
  EXPECT_EQ(JoinExecutor::Count(cat, q).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(JoinExecutorTest, EmptySelectionShortCircuits) {
  const storage::Catalog cat = MakeJoinCatalog();
  Query q = MakeJoinQuery();
  CompoundPredicate cp;
  cp.col = ColumnRef{0, 2};  // orders.amount
  ConjunctiveClause clause;
  clause.preds.push_back(SimplePredicate{cp.col, CmpOp::kGt, 1e9});
  cp.disjuncts.push_back(clause);
  q.predicates.push_back(cp);
  EXPECT_EQ(JoinExecutor::Count(cat, q).value(), 0);
}

TEST(SchemaGraphTest, SubSchemaKeyIsOrderInvariant) {
  EXPECT_EQ(SubSchemaKey({"b", "a"}), SubSchemaKey({"a", "b"}));
  EXPECT_EQ(SubSchemaKey({"a", "b"}), "a+b");
}

}  // namespace
}  // namespace qfcard::query
