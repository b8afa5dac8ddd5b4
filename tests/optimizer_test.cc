#include "optimizer/join_order.h"

#include <cmath>
#include <map>

#include "common/random.h"
#include "estimators/true_card.h"
#include "gtest/gtest.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan_executor.h"
#include "query/join_executor.h"
#include "test_util.h"
#include "workload/imdb.h"

namespace qfcard::opt {
namespace {

using testutil::IntColumn;

// Chain schema: a -- b -- c with very different intermediate sizes.
//   a(id): 4 rows; b(a_id, c_id): 8 rows; c(id): 2 rows.
storage::Catalog MakeChainCatalog() {
  storage::Catalog cat;
  storage::Table a("a");
  QFCARD_CHECK_OK(a.AddColumn(IntColumn("id", {0, 1, 2, 3})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(a)));
  storage::Table b("b");
  QFCARD_CHECK_OK(
      b.AddColumn(IntColumn("a_id", {0, 0, 1, 1, 2, 2, 3, 3})));
  QFCARD_CHECK_OK(b.AddColumn(IntColumn("c_id", {0, 1, 0, 1, 0, 1, 0, 1})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(b)));
  storage::Table c("c");
  QFCARD_CHECK_OK(c.AddColumn(IntColumn("id", {0, 1})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(c)));
  return cat;
}

query::Query MakeChainQuery() {
  query::Query q;
  q.tables.push_back(query::TableRef{"a", "a"});
  q.tables.push_back(query::TableRef{"b", "b"});
  q.tables.push_back(query::TableRef{"c", "c"});
  // b.a_id = a.id ; b.c_id = c.id
  q.joins.push_back(
      query::JoinPredicate{query::ColumnRef{1, 0}, query::ColumnRef{0, 0}});
  q.joins.push_back(
      query::JoinPredicate{query::ColumnRef{1, 1}, query::ColumnRef{2, 0}});
  return q;
}

TEST(InducedSubQueryTest, ProjectsTablesJoinsAndPredicates) {
  query::Query q = MakeChainQuery();
  testutil::AddCompound(q, 0, {{{query::CmpOp::kGe, 1}}});  // on a.id, slot 0
  const auto sub_or = InducedSubQuery(q, 0b011);  // {a, b}
  ASSERT_TRUE(sub_or.ok());
  const query::Query& sub = sub_or.value();
  ASSERT_EQ(sub.tables.size(), 2u);
  EXPECT_EQ(sub.tables[0].name, "a");
  EXPECT_EQ(sub.tables[1].name, "b");
  ASSERT_EQ(sub.joins.size(), 1u);  // only a--b retained
  ASSERT_EQ(sub.predicates.size(), 1u);
  EXPECT_EQ(sub.predicates[0].col.table, 0);
}

TEST(InducedSubQueryTest, EmptyMaskRejected) {
  EXPECT_FALSE(InducedSubQuery(MakeChainQuery(), 0).ok());
}

TEST(JoinOrderOptimizerTest, PicksCheapSideFirst) {
  const query::Query q = MakeChainQuery();
  // Synthetic cardinalities: joining a⋈b first is expensive (1000), b⋈c
  // first is cheap (10); the full join is 100 either way.
  const SubsetCardFn card_of =
      [&](uint32_t mask) -> common::StatusOr<double> {
    static const std::map<uint32_t, double> cards{
        {0b001, 4},   {0b010, 8},    {0b100, 2},
        {0b011, 1000}, {0b110, 10},  {0b111, 100},
    };
    const auto it = cards.find(mask);
    if (it == cards.end()) {
      return common::Status::InvalidArgument("unexpected mask");
    }
    return it->second;
  };
  const auto plan_or = JoinOrderOptimizer::Optimize(q, card_of);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status();
  const JoinPlan& plan = plan_or.value();
  // Best plan: (b ⋈ c) ⋈ a with C_out = 10 + 100.
  EXPECT_DOUBLE_EQ(PlanCostCout(plan), 110.0);
  // The root joins {b,c} with a; the inner join must not contain 'a'.
  const JoinPlan::Node& root = plan.nodes[static_cast<size_t>(plan.root)];
  const uint32_t inner_mask =
      plan.nodes[static_cast<size_t>(root.left)].table >= 0
          ? plan.nodes[static_cast<size_t>(root.right)].mask
          : plan.nodes[static_cast<size_t>(root.left)].mask;
  EXPECT_EQ(inner_mask, 0b110u);
}

TEST(JoinOrderOptimizerTest, DisconnectedGraphRejected) {
  query::Query q = MakeChainQuery();
  q.joins.clear();  // no join predicates at all
  const SubsetCardFn card_of = [](uint32_t) -> common::StatusOr<double> {
    return 1.0;
  };
  EXPECT_FALSE(JoinOrderOptimizer::Optimize(q, card_of).ok());
}

TEST(JoinOrderOptimizerTest, SingleTablePlan) {
  query::Query q;
  q.tables.push_back(query::TableRef{"a", "a"});
  const SubsetCardFn card_of = [](uint32_t) -> common::StatusOr<double> {
    return 4.0;
  };
  const auto plan_or = JoinOrderOptimizer::Optimize(q, card_of);
  ASSERT_TRUE(plan_or.ok());
  EXPECT_DOUBLE_EQ(PlanCostCout(plan_or.value()), 0.0);  // no joins
}

TEST(CostModelTest, HashCostCountsInputsAndOutput) {
  JoinPlan plan;
  plan.nodes.push_back(JoinPlan::Node{-1, -1, 0, 0b01, 10});
  plan.nodes.push_back(JoinPlan::Node{-1, -1, 1, 0b10, 20});
  plan.nodes.push_back(JoinPlan::Node{0, 1, -1, 0b11, 5});
  plan.root = 2;
  EXPECT_DOUBLE_EQ(PlanCost(plan, CostModelKind::kCout), 5.0);
  EXPECT_DOUBLE_EQ(PlanCost(plan, CostModelKind::kHash), 35.0);
}

TEST(CostModelTest, ReannotateReplacesEstimates) {
  JoinPlan plan;
  plan.nodes.push_back(JoinPlan::Node{-1, -1, 0, 0b01, 10});
  plan.nodes.push_back(JoinPlan::Node{-1, -1, 1, 0b10, 20});
  plan.nodes.push_back(JoinPlan::Node{0, 1, -1, 0b11, 999});
  plan.root = 2;
  const SubsetCardFn card_of = [](uint32_t mask) -> common::StatusOr<double> {
    return mask == 0b11 ? 7.0 : 1.0;
  };
  const auto re_or = ReannotatePlan(plan, card_of);
  ASSERT_TRUE(re_or.ok());
  EXPECT_DOUBLE_EQ(PlanCostCout(re_or.value()), 7.0);
}

// Builds a random valid bushy plan over the query's tables (joining only
// connected pieces) and returns its C_out under `card_of`. Used to verify
// DP optimality: no random plan may beat the optimizer.
common::StatusOr<double> RandomPlanCost(const query::Query& q,
                                        const SubsetCardFn& card_of,
                                        common::Rng& rng) {
  struct Piece {
    uint32_t mask;
    double rows;
  };
  std::vector<Piece> pieces;
  for (size_t t = 0; t < q.tables.size(); ++t) {
    const uint32_t mask = 1u << t;
    QFCARD_ASSIGN_OR_RETURN(const double rows, card_of(mask));
    pieces.push_back({mask, rows});
  }
  const auto connected = [&](uint32_t a, uint32_t b) {
    for (const query::JoinPredicate& j : q.joins) {
      const uint32_t m = (1u << j.left.table) | (1u << j.right.table);
      if ((m & a) != 0 && (m & b) != 0 && (m & a) != m && (m & b) != m) {
        return true;
      }
    }
    return false;
  };
  double cost = 0.0;
  int guard = 0;
  while (pieces.size() > 1 && ++guard < 1000) {
    const size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pieces.size()) - 1));
    const size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pieces.size()) - 1));
    if (i == j || !connected(pieces[i].mask, pieces[j].mask)) continue;
    const uint32_t merged = pieces[i].mask | pieces[j].mask;
    QFCARD_ASSIGN_OR_RETURN(const double rows, card_of(merged));
    cost += rows;
    pieces[std::min(i, j)] = {merged, rows};
    pieces.erase(pieces.begin() + static_cast<long>(std::max(i, j)));
  }
  if (pieces.size() != 1) {
    return common::Status::Internal("random plan construction stuck");
  }
  return cost;
}

class DpOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DpOptimalityTest, NoRandomPlanBeatsTheOptimizer) {
  common::Rng rng(GetParam());
  // 4-table chain a - b - c - d with random subset cardinalities.
  query::Query q;
  for (const char* name : {"a", "b", "c", "d"}) {
    q.tables.push_back(query::TableRef{name, name});
  }
  for (int t = 0; t + 1 < 4; ++t) {
    q.joins.push_back(query::JoinPredicate{query::ColumnRef{t, 0},
                                           query::ColumnRef{t + 1, 0}});
  }
  std::map<uint32_t, double> cards;
  for (uint32_t mask = 1; mask < 16; ++mask) {
    cards[mask] = std::floor(rng.Uniform(1, 1000));
  }
  const SubsetCardFn card_of = [&](uint32_t mask) -> common::StatusOr<double> {
    return cards.at(mask);
  };
  const auto plan_or = JoinOrderOptimizer::Optimize(q, card_of);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status();
  const double dp_cost = PlanCostCout(plan_or.value());
  for (int iter = 0; iter < 30; ++iter) {
    const auto random_or = RandomPlanCost(q, card_of, rng);
    ASSERT_TRUE(random_or.ok());
    EXPECT_GE(random_or.value(), dp_cost - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpOptimalityTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(PlanExecutorTest, ResultMatchesJoinExecutor) {
  const storage::Catalog cat = MakeChainCatalog();
  query::Query q = MakeChainQuery();
  testutil::AddCompound(q, 0, {{{query::CmpOp::kGe, 1}}});  // a.id >= 1
  const est::TrueCardEstimator oracle(&cat);
  const SubsetCardFn card_of =
      [&](uint32_t mask) -> common::StatusOr<double> {
    QFCARD_ASSIGN_OR_RETURN(const query::Query sub, InducedSubQuery(q, mask));
    return oracle.EstimateCard(sub);
  };
  const auto plan_or = JoinOrderOptimizer::Optimize(q, card_of);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status();
  const auto exec_or = ExecutePlan(cat, q, plan_or.value());
  ASSERT_TRUE(exec_or.ok()) << exec_or.status();
  EXPECT_EQ(exec_or.value().result_rows,
            query::JoinExecutor::Count(cat, q).value());
  EXPECT_GE(exec_or.value().seconds, 0.0);
  EXPECT_GT(exec_or.value().intermediate_rows, 0.0);
}

TEST(PlanExecutorTest, TrueCostOptimalPlanNotWorseThanAlternatives) {
  // With true cardinalities the optimizer's plan has minimal realized
  // C_out among all DP-explored plans (sanity of the DP itself).
  const storage::Catalog cat = MakeChainCatalog();
  const query::Query q = MakeChainQuery();
  const est::TrueCardEstimator oracle(&cat);
  const SubsetCardFn card_of =
      [&](uint32_t mask) -> common::StatusOr<double> {
    QFCARD_ASSIGN_OR_RETURN(const query::Query sub, InducedSubQuery(q, mask));
    return oracle.EstimateCard(sub);
  };
  const auto plan_or = JoinOrderOptimizer::Optimize(q, card_of);
  ASSERT_TRUE(plan_or.ok());
  const auto exec_or = ExecutePlan(cat, q, plan_or.value());
  ASSERT_TRUE(exec_or.ok());
  // Realized intermediate rows equal the estimated C_out because the
  // estimates are exact.
  EXPECT_DOUBLE_EQ(exec_or.value().intermediate_rows,
                   PlanCostCout(plan_or.value()));
}


// ---- Join engine characterization goldens ----------------------------------

// FNV-1a over a byte range, chained through `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

// Join counts, materialized sub-schema joins (row order included: local
// training draws literals by row index) and executed optimizer plans over a
// fixed IMDb instance. Any change to a join result, a materialized row order
// or a plan's realized intermediate sizes moves one of these digests; a
// refactor of the engine must leave every one untouched.
TEST(JoinEngineGoldenTest, ImdbDigests) {
  workload::ImdbOptions io;
  io.num_titles = 500;
  io.seed = 21;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(io);
  common::Rng rng(2121);
  workload::JobLightOptions jo;
  jo.count = 40;
  jo.min_tables = 2;
  jo.max_tables = 4;
  const std::vector<query::Query> queries =
      workload::MakeJobLightWorkload(db, jo, rng);
  ASSERT_FALSE(queries.empty());

  uint64_t count_h = kFnvBasis;
  for (const query::Query& q : queries) {
    const auto count_or = query::JoinExecutor::Count(db.catalog, q);
    ASSERT_TRUE(count_or.ok()) << count_or.status();
    const int64_t count = count_or.value();
    count_h = Fnv1a(count_h, &count, sizeof(count));
  }

  uint64_t mat_h = kFnvBasis;
  const std::vector<std::vector<std::string>> subs =
      db.graph.EnumerateSubSchemas(
          db.table_names, 1, static_cast<int>(db.table_names.size()));
  for (const std::vector<std::string>& sub : subs) {
    const auto mat_or = query::JoinExecutor::Materialize(db.catalog, sub,
                                                         db.graph);
    ASSERT_TRUE(mat_or.ok()) << mat_or.status();
    const storage::Table& mat = mat_or.value();
    const int64_t rows = mat.num_rows();
    mat_h = Fnv1a(mat_h, &rows, sizeof(rows));
    for (int c = 0; c < mat.num_columns(); ++c) {
      const storage::Column& col = mat.column(c);
      mat_h = Fnv1a(mat_h, col.name().data(), col.name().size());
      mat_h = Fnv1a(mat_h, col.data().data(),
                    col.data().size() * sizeof(double));
    }
  }

  const est::TrueCardEstimator oracle(&db.catalog);
  uint64_t plan_h = kFnvBasis;
  for (const query::Query& q : queries) {
    const SubsetCardFn card_of =
        [&](uint32_t mask) -> common::StatusOr<double> {
      QFCARD_ASSIGN_OR_RETURN(const query::Query sub,
                              InducedSubQuery(q, mask));
      return oracle.EstimateCard(sub);
    };
    const auto plan_or = JoinOrderOptimizer::Optimize(q, card_of);
    ASSERT_TRUE(plan_or.ok()) << plan_or.status();
    const auto exec_or = ExecutePlan(db.catalog, q, plan_or.value());
    ASSERT_TRUE(exec_or.ok()) << exec_or.status();
    const int64_t result = exec_or.value().result_rows;
    const double intermediate = exec_or.value().intermediate_rows;
    plan_h = Fnv1a(plan_h, &result, sizeof(result));
    plan_h = Fnv1a(plan_h, &intermediate, sizeof(intermediate));
  }

  EXPECT_EQ(subs.size(), 37u);  // title with any satellites, or one satellite
  EXPECT_EQ(count_h, 0x26714ce2ca4a6845ULL) << std::hex << count_h;
  EXPECT_EQ(mat_h, 0xf8c5f8c336617569ULL) << std::hex << mat_h;
  EXPECT_EQ(plan_h, 0xd75f55d561e720d3ULL) << std::hex << plan_h;
}

}  // namespace
}  // namespace qfcard::opt
