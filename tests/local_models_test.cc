#include "estimators/local_models.h"

#include "common/random.h"
#include "gtest/gtest.h"
#include "ml/gbm.h"
#include "ml/metrics.h"
#include "query/executor.h"
#include "query/join_executor.h"
#include "test_util.h"
#include "workload/imdb.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"

namespace qfcard::est {
namespace {

class LocalModelsTest : public ::testing::Test {
 protected:
  LocalModelsTest() {
    workload::ImdbOptions opts;
    opts.num_titles = 1500;
    opts.seed = 41;
    db_ = workload::MakeImdbDatabase(opts);
  }

  FeaturizerFactory ConjFactory() {
    return [](featurize::FeatureSchema schema) {
      featurize::ConjunctionOptions copts;
      copts.max_partitions = 16;
      return std::make_unique<featurize::ConjunctionEncoding>(
          std::move(schema), copts);
    };
  }

  ModelFactory GbmFactory() {
    return []() {
      ml::GbmParams params;
      params.num_trees = 60;
      params.max_depth = 5;
      return std::make_unique<ml::GradientBoosting>(params);
    };
  }

  workload::ImdbDatabase db_;
};

TEST_F(LocalModelsTest, MaterializeIsCachedAndNamed) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  const auto mat_or = models.GetOrMaterialize({"title", "cast_info"});
  ASSERT_TRUE(mat_or.ok()) << mat_or.status();
  const storage::Table* first = mat_or.value();
  EXPECT_GT(first->num_rows(), 0);
  ASSERT_TRUE(first->ColumnIndex("title.production_year").ok());
  ASSERT_TRUE(first->ColumnIndex("cast_info.role_id").ok());
  // Second call returns the cached table.
  EXPECT_EQ(models.GetOrMaterialize({"cast_info", "title"}).value(), first);
}

TEST_F(LocalModelsTest, RewriteToLocalPreservesCardinality) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  const auto mat_or = models.GetOrMaterialize({"title", "movie_keyword"});
  ASSERT_TRUE(mat_or.ok());
  const storage::Table& mat = *mat_or.value();

  // Catalog-level join query with predicates on both tables.
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  q.tables.push_back(query::TableRef{"movie_keyword", "movie_keyword"});
  QFCARD_CHECK_OK(db_.graph.PopulateJoins(db_.catalog, q));
  const storage::Table& title = *db_.catalog.GetTable("title").value();
  const int year = title.ColumnIndex("production_year").value();
  testutil::AddCompound(q, year,
                        {{{query::CmpOp::kGe, 1990}, {query::CmpOp::kLe, 2010}}});

  const auto local_or = models.RewriteToLocal(q);
  ASSERT_TRUE(local_or.ok()) << local_or.status();
  const int64_t local_count =
      query::Executor::Count(mat, local_or.value()).value();
  const int64_t join_count =
      query::JoinExecutor::Count(db_.catalog, q).value();
  EXPECT_EQ(local_count, join_count);
}

// A predicate naming a table slot or column the query does not have is
// rejected, not read out of bounds.
TEST_F(LocalModelsTest, RewriteToLocalRejectsOutOfRangeSlotAndColumn) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  ASSERT_TRUE(models.GetOrMaterialize({"title", "movie_keyword"}).ok());
  query::Query base;
  base.tables.push_back(query::TableRef{"title", "title"});
  base.tables.push_back(query::TableRef{"movie_keyword", "movie_keyword"});
  QFCARD_CHECK_OK(db_.graph.PopulateJoins(db_.catalog, base));
  for (const query::ColumnRef bad :
       {query::ColumnRef{2, 0}, query::ColumnRef{-1, 0},
        query::ColumnRef{0, 999}, query::ColumnRef{1, -1}}) {
    query::Query q = base;
    testutil::AddPredicate(q, 0, query::CmpOp::kGe, 1990);
    q.predicates.back().col = bad;
    EXPECT_EQ(models.RewriteToLocal(q).status().code(),
              common::StatusCode::kOutOfRange)
        << bad.table << "." << bad.column;
  }
}

TEST_F(LocalModelsTest, EstimateRequiresTrainedModel) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  ASSERT_TRUE(models.GetOrMaterialize({"title", "cast_info"}).ok());
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  q.tables.push_back(query::TableRef{"cast_info", "cast_info"});
  QFCARD_CHECK_OK(db_.graph.PopulateJoins(db_.catalog, q));
  EXPECT_EQ(models.EstimateCard(q).status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST_F(LocalModelsTest, UnknownSubSchemaIsNotFound) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  EXPECT_EQ(models.EstimateCard(q).status().code(),
            common::StatusCode::kNotFound);
}

TEST_F(LocalModelsTest, HasModelReflectsTrainingState) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  EXPECT_FALSE(models.HasModel({"title"}));
  ASSERT_TRUE(models.GetOrMaterialize({"title"}).ok());
  // Materialized but untrained.
  EXPECT_FALSE(models.HasModel({"title"}));
}

TEST_F(LocalModelsTest, HybridUsesExactModelWhenAvailable) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  const std::vector<std::string> tables{"title"};
  const storage::Table& mat = *models.GetOrMaterialize(tables).value();
  common::Rng rng(81);
  workload::PredicateGenOptions gen;
  gen.max_attrs = 2;
  gen.allowed_attrs = {mat.ColumnIndex("title.production_year").value()};
  const std::vector<query::Query> qs =
      workload::GeneratePredicateWorkload(mat, 300, gen, rng);
  const auto labeled = workload::LabelOnTable(mat, qs, true).value();
  std::vector<query::Query> queries;
  std::vector<double> cards;
  for (const auto& lq : labeled) {
    queries.push_back(lq.query);
    cards.push_back(lq.card);
  }
  ASSERT_TRUE(models.TrainSubSchema(tables, queries, cards, 0.1, 83).ok());
  const auto pg_or = PostgresStyleEstimator::Build(&db_.catalog);
  ASSERT_TRUE(pg_or.ok());
  const HybridEstimator hybrid(&models, &pg_or.value());
  // Single-table query over title: hybrid must equal the local model
  // exactly (layer 1, no synopsis scaling).
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  const storage::Table& title = *db_.catalog.GetTable("title").value();
  testutil::AddCompound(
      q, title.ColumnIndex("production_year").value(),
      {{{query::CmpOp::kGe, 1990}, {query::CmpOp::kLe, 2005}}});
  EXPECT_DOUBLE_EQ(hybrid.EstimateCard(q).value(),
                   models.EstimateCard(q).value());
}

TEST_F(LocalModelsTest, HybridFallsBackThroughLayers) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  const auto pg_or = PostgresStyleEstimator::Build(&db_.catalog);
  ASSERT_TRUE(pg_or.ok());
  const HybridEstimator hybrid(&models, &pg_or.value());

  // Layer 3: no models at all -> pure synopses estimate.
  query::Query join_q;
  join_q.tables.push_back(query::TableRef{"title", "title"});
  join_q.tables.push_back(query::TableRef{"cast_info", "cast_info"});
  QFCARD_CHECK_OK(db_.graph.PopulateJoins(db_.catalog, join_q));
  const double pg_est = pg_or.value().EstimateCard(join_q).value();
  EXPECT_DOUBLE_EQ(hybrid.EstimateCard(join_q).value(), pg_est);

  // Train a single-table model for title; the 2-table query should now use
  // it as the learned core, scaled by the synopses join factor.
  const std::vector<std::string> title_only{"title"};
  const storage::Table& mat = *models.GetOrMaterialize(title_only).value();
  common::Rng rng(61);
  workload::PredicateGenOptions gen;
  gen.max_attrs = 2;
  gen.allowed_attrs = {
      mat.ColumnIndex("title.production_year").value(),
      mat.ColumnIndex("title.kind_id").value(),
  };
  const std::vector<query::Query> qs =
      workload::GeneratePredicateWorkload(mat, 400, gen, rng);
  const auto labeled = workload::LabelOnTable(mat, qs, true).value();
  std::vector<query::Query> queries;
  std::vector<double> cards;
  for (const auto& lq : labeled) {
    queries.push_back(lq.query);
    cards.push_back(lq.card);
  }
  ASSERT_TRUE(models.TrainSubSchema(title_only, queries, cards, 0.1, 63).ok());
  EXPECT_TRUE(models.HasModel(title_only));

  // Layer 2: add a title predicate; the hybrid estimate must differ from
  // the pure synopses estimate (the learned core kicks in) and stay finite.
  const storage::Table& title = *db_.catalog.GetTable("title").value();
  testutil::AddCompound(
      join_q, title.ColumnIndex("production_year").value(),
      {{{query::CmpOp::kGe, 1995}, {query::CmpOp::kLe, 2010}}});
  const auto hybrid_or = hybrid.EstimateCard(join_q);
  ASSERT_TRUE(hybrid_or.ok()) << hybrid_or.status();
  EXPECT_GE(hybrid_or.value(), 1.0);
  const double truth = static_cast<double>(
      query::JoinExecutor::Count(db_.catalog, join_q).value());
  EXPECT_LT(ml::QError(truth, hybrid_or.value()), 50.0);
}

TEST_F(LocalModelsTest, TrainedModelEstimatesJoinQueries) {
  LocalModelSet models(&db_.catalog, &db_.graph, ConjFactory(), GbmFactory());
  const std::vector<std::string> tables{"title", "movie_info_idx"};
  const auto mat_or = models.GetOrMaterialize(tables);
  ASSERT_TRUE(mat_or.ok());
  const storage::Table& mat = *mat_or.value();

  // Train on selection queries over the materialized join.
  common::Rng rng(43);
  workload::PredicateGenOptions gen;
  gen.max_attrs = 3;
  gen.max_not_equals = 1;
  // Restrict to non-key attributes.
  for (const char* name :
       {"title.production_year", "title.kind_id", "movie_info_idx.rating"}) {
    gen.allowed_attrs.push_back(mat.ColumnIndex(name).value());
  }
  const std::vector<query::Query> queries =
      workload::GeneratePredicateWorkload(mat, 600, gen, rng);
  const auto labeled_or = workload::LabelOnTable(mat, queries, true);
  ASSERT_TRUE(labeled_or.ok());
  std::vector<query::Query> qs;
  std::vector<double> cards;
  for (const auto& lq : labeled_or.value()) {
    qs.push_back(lq.query);
    cards.push_back(lq.card);
  }
  ASSERT_TRUE(models.TrainSubSchema(tables, qs, cards, 0.1, 45).ok());
  EXPECT_EQ(models.num_models(), 1);
  EXPECT_GT(models.SizeBytes(), 0u);

  // Catalog-level join query routed through the local model.
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  q.tables.push_back(query::TableRef{"movie_info_idx", "movie_info_idx"});
  QFCARD_CHECK_OK(db_.graph.PopulateJoins(db_.catalog, q));
  const storage::Table& title = *db_.catalog.GetTable("title").value();
  testutil::AddCompound(
      q, title.ColumnIndex("production_year").value(),
      {{{query::CmpOp::kGe, 1980}, {query::CmpOp::kLe, 2015}}});
  const auto est_or = models.EstimateCard(q);
  ASSERT_TRUE(est_or.ok()) << est_or.status();
  const double truth =
      static_cast<double>(query::JoinExecutor::Count(db_.catalog, q).value());
  // Trained on this sub-schema's distribution: the estimate must be sane.
  EXPECT_LT(ml::QError(truth, est_or.value()), 10.0);
}

}  // namespace
}  // namespace qfcard::est
