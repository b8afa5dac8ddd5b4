#include "estimators/postgres.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/random.h"
#include "estimators/iep.h"
#include "estimators/ml_estimator.h"
#include "estimators/sampling.h"
#include "estimators/true_card.h"
#include "featurize/conjunction.h"
#include "featurize/range.h"
#include "gtest/gtest.h"
#include "ml/gbm.h"
#include "ml/metrics.h"
#include "query/executor.h"
#include "test_util.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"

namespace qfcard::est {
namespace {

using query::CmpOp;
using testutil::AddCompound;
using testutil::AddPredicate;
using testutil::IntColumn;
using testutil::SingleTableQuery;

// Two independent uniform columns: independence + uniformity hold, so the
// Postgres-style estimator should be nearly exact.
storage::Catalog MakeUniformCatalog(int64_t rows, uint64_t seed) {
  common::Rng rng(seed);
  storage::Catalog cat;
  storage::Table t("uni");
  std::vector<double> a;
  std::vector<double> b;
  for (int64_t r = 0; r < rows; ++r) {
    a.push_back(static_cast<double>(rng.UniformInt(0, 99)));
    b.push_back(static_cast<double>(rng.UniformInt(0, 99)));
  }
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("a", a)));
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("b", b)));
  QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
  return cat;
}

TEST(ColumnSynopsisTest, FractionLeApproximatesCdf) {
  const storage::Catalog cat = MakeUniformCatalog(20000, 3);
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  ASSERT_TRUE(est_or.ok());
  const ColumnSynopsis& s = est_or.value().synopsis(0, 0);
  EXPECT_NEAR(s.FractionLe(49), 0.5, 0.03);
  EXPECT_NEAR(s.FractionLe(24), 0.25, 0.03);
  EXPECT_DOUBLE_EQ(s.FractionLe(-1), 0.0);
  EXPECT_DOUBLE_EQ(s.FractionLe(1000), 1.0);
}

TEST(ColumnSynopsisTest, FractionEqUsesMcvAndNdv) {
  storage::Catalog cat;
  storage::Table t("skew");
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(7);
  for (int i = 0; i < 100; ++i) values.push_back(i % 50);
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("x", values)));
  QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  ASSERT_TRUE(est_or.ok());
  const ColumnSynopsis& s = est_or.value().synopsis(0, 0);
  // The heavy hitter is in the MCV list with its exact frequency.
  EXPECT_NEAR(s.FractionEq(7), 0.9 + 2.0 / 1000.0, 0.01);
  EXPECT_DOUBLE_EQ(s.FractionEq(-5), 0.0);
}

TEST(PostgresEstimatorTest, NearExactOnIndependentUniformData) {
  const storage::Catalog cat = MakeUniformCatalog(20000, 5);
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  ASSERT_TRUE(est_or.ok());
  const storage::Table& t = *cat.GetTable("uni").value();

  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kGe, 20}, {CmpOp::kLe, 59}}});
  AddCompound(q, 1, {{{CmpOp::kLe, 49}}});
  const double est = est_or.value().EstimateCard(q).value();
  const double truth =
      static_cast<double>(query::Executor::Count(t, q).value());
  EXPECT_LT(ml::QError(truth, est), 1.2);
}

TEST(PostgresEstimatorTest, OrSelectivityCombination) {
  const storage::Catalog cat = MakeUniformCatalog(20000, 7);
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  ASSERT_TRUE(est_or.ok());
  const storage::Table& t = *cat.GetTable("uni").value();
  query::Query q = SingleTableQuery("uni");
  // a <= 9 OR a >= 90: two disjoint ~10% slices -> ~19% via s1+s2-s1*s2.
  AddCompound(q, 0, {{{CmpOp::kLe, 9}}, {{CmpOp::kGe, 90}}});
  const double est = est_or.value().EstimateCard(q).value();
  const double truth =
      static_cast<double>(query::Executor::Count(t, q).value());
  EXPECT_LT(ml::QError(truth, est), 1.25);
}

TEST(PostgresEstimatorTest, IndependenceAssumptionFailsOnCorrelation) {
  // Perfectly correlated columns: b == a. True count of (a<=49 AND b<=49)
  // is 50%, the independence estimate is 25%.
  common::Rng rng(9);
  storage::Catalog cat;
  storage::Table t("corr");
  std::vector<double> a;
  for (int64_t r = 0; r < 10000; ++r) {
    a.push_back(static_cast<double>(rng.UniformInt(0, 99)));
  }
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("a", a)));
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("b", a)));
  QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  ASSERT_TRUE(est_or.ok());
  query::Query q = SingleTableQuery("corr");
  AddCompound(q, 0, {{{CmpOp::kLe, 49}}});
  AddCompound(q, 1, {{{CmpOp::kLe, 49}}});
  const double est = est_or.value().EstimateCard(q).value();
  EXPECT_NEAR(est / 10000.0, 0.25, 0.03);  // the estimator multiplies
}

TEST(PostgresEstimatorTest, JoinUsesSystemRFormula) {
  // fact (6 rows) references dim (3 distinct keys): |join| = 6*3/max(3,3).
  storage::Catalog cat;
  storage::Table dim("dim");
  QFCARD_CHECK_OK(dim.AddColumn(IntColumn("id", {0, 1, 2})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(dim)));
  storage::Table fact("fact");
  QFCARD_CHECK_OK(fact.AddColumn(IntColumn("dim_id", {0, 0, 1, 1, 2, 2})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(fact)));
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  ASSERT_TRUE(est_or.ok());
  query::Query q;
  q.tables.push_back(query::TableRef{"fact", "fact"});
  q.tables.push_back(query::TableRef{"dim", "dim"});
  q.joins.push_back(
      query::JoinPredicate{query::ColumnRef{0, 0}, query::ColumnRef{1, 0}});
  EXPECT_NEAR(est_or.value().EstimateCard(q).value(), 6.0, 1e-9);
}

// The synopsis as BuildSynopsis computed it from a value -> count map plus
// a second sorted copy: MCVs are the most frequent values (ties broken by
// std::sort over the ascending-value sequence), then the equi-depth bounds.
ColumnSynopsis MapReferenceSynopsis(const std::vector<double>& values,
                                    const PostgresOptions& options) {
  ColumnSynopsis s;
  std::map<double, int64_t> freq;
  for (const double v : values) ++freq[v];
  std::vector<std::pair<int64_t, double>> by_count;
  for (const auto& [v, c] : freq) by_count.push_back({c, v});
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const size_t n_mcv =
      std::min(static_cast<size_t>(options.mcv_entries), by_count.size());
  for (size_t i = 0; i < n_mcv; ++i) {
    const double f = static_cast<double>(by_count[i].first) /
                     static_cast<double>(values.size());
    s.mcv.push_back({by_count[i].second, f});
    s.mcv_total_freq += f;
  }
  std::sort(s.mcv.begin(), s.mcv.end());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const int buckets = std::max(1, options.histogram_buckets);
  s.hist_bounds.push_back(sorted.front());
  for (int b = 1; b <= buckets; ++b) {
    const size_t pos = static_cast<size_t>(
        static_cast<double>(b) / buckets *
        static_cast<double>(sorted.size() - 1));
    s.hist_bounds.push_back(sorted[pos]);
  }
  return s;
}

TEST(PostgresEstimatorTest, SynopsisMatchesMapReferenceOnTies) {
  common::Rng rng(41);
  std::vector<std::vector<double>> columns;
  // 60 distinct values with only four distinct counts, so the MCV cut at
  // 20 entries falls inside a run of tied counts.
  columns.emplace_back();
  for (int v = 0; v < 60; ++v) {
    for (int k = 0; k < 3 + v % 4; ++k) columns.back().push_back(v);
  }
  rng.Shuffle(columns.back());
  // Skewed fractional values: a few heavy hitters and a long tail.
  columns.emplace_back();
  for (int r = 0; r < 4000; ++r) {
    const int64_t u = rng.UniformInt(0, 99);
    columns.back().push_back(u < 50 ? 0.25 * static_cast<double>(u % 5)
                                    : static_cast<double>(u) / 7.0);
  }
  columns.push_back({7, 7, 7, 7, 7});  // one value
  columns.push_back({-3.5});           // one row
  for (const PostgresOptions& options :
       {PostgresOptions{}, PostgresOptions{7, 3}}) {
    // One table per column: the columns differ in length.
    storage::Catalog cat;
    for (size_t c = 0; c < columns.size(); ++c) {
      storage::Table t("ties" + std::to_string(c));
      storage::Column col("v", storage::ColumnType::kFloat64);
      col.AppendBatch(columns[c]);
      QFCARD_CHECK_OK(t.AddColumn(std::move(col)));
      QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
    }
    const auto est_or = PostgresStyleEstimator::Build(&cat, options);
    ASSERT_TRUE(est_or.ok());
    for (int c = 0; c < static_cast<int>(columns.size()); ++c) {
      const ColumnSynopsis& got = est_or.value().synopsis(c, 0);
      const ColumnSynopsis want =
          MapReferenceSynopsis(columns[static_cast<size_t>(c)], options);
      EXPECT_EQ(got.mcv, want.mcv) << "column " << c;
      EXPECT_EQ(got.mcv_total_freq, want.mcv_total_freq) << "column " << c;
      EXPECT_EQ(got.hist_bounds, want.hist_bounds) << "column " << c;
    }
  }
}

TEST(PostgresEstimatorTest, NotEqualReducesRangeSelectivity) {
  const storage::Catalog cat = MakeUniformCatalog(20000, 11);
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  query::Query with_ne = SingleTableQuery("uni");
  AddCompound(with_ne, 0,
              {{{CmpOp::kGe, 10}, {CmpOp::kLe, 19}, {CmpOp::kNe, 15}}});
  query::Query without_ne = SingleTableQuery("uni");
  AddCompound(without_ne, 0, {{{CmpOp::kGe, 10}, {CmpOp::kLe, 19}}});
  EXPECT_LT(est_or.value().EstimateCard(with_ne).value(),
            est_or.value().EstimateCard(without_ne).value());
}

TEST(PostgresEstimatorTest, GroupByBoundedByNdvProduct) {
  const storage::Catalog cat = MakeUniformCatalog(20000, 12);
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  ASSERT_TRUE(est_or.ok());
  // Grouping by column a (100 distinct values) with no predicates: the
  // estimate must cap at ~100 groups rather than 20000 rows.
  query::Query q = SingleTableQuery("uni");
  q.group_by.push_back(query::ColumnRef{0, 0});
  const double est = est_or.value().EstimateCard(q).value();
  EXPECT_LE(est, 101.0);
  EXPECT_GE(est, 50.0);
}

TEST(PostgresEstimatorTest, RangeSelectivityMonotoneInWidth) {
  const storage::Catalog cat = MakeUniformCatalog(20000, 14);
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  double prev = 0.0;
  for (const double hi : {10.0, 30.0, 60.0, 99.0}) {
    query::Query q = SingleTableQuery("uni");
    AddCompound(q, 0, {{{CmpOp::kGe, 0}, {CmpOp::kLe, hi}}});
    const double est = est_or.value().EstimateCard(q).value();
    EXPECT_GE(est, prev);
    prev = est;
  }
}

TEST(PostgresEstimatorTest, SizeBytesIsSmall) {
  const storage::Catalog cat = MakeUniformCatalog(5000, 13);
  const auto est_or = PostgresStyleEstimator::Build(&cat);
  EXPECT_GT(est_or.value().SizeBytes(), 0u);
  EXPECT_LT(est_or.value().SizeBytes(), 100000u);
}

TEST(TrueCardEstimatorTest, MatchesExecutor) {
  const storage::Catalog cat = MakeUniformCatalog(2000, 15);
  const TrueCardEstimator oracle(&cat);
  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kLe, 30}}});
  const storage::Table& t = *cat.GetTable("uni").value();
  EXPECT_DOUBLE_EQ(
      oracle.EstimateCard(q).value(),
      static_cast<double>(query::Executor::Count(t, q).value()));
}

TEST(SamplingEstimatorTest, ApproximatelyUnbiased) {
  const storage::Catalog cat = MakeUniformCatalog(50000, 17);
  const SamplingEstimator sampler(&cat, 0.02, 19);
  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kLe, 49}}});  // ~50% selectivity
  double sum = 0.0;
  const int repeats = 20;
  for (int i = 0; i < repeats; ++i) {
    sum += sampler.EstimateCard(q).value();
  }
  EXPECT_NEAR(sum / repeats / 50000.0, 0.5, 0.05);
}

TEST(SamplingEstimatorTest, SelectivePredicatesHaveHeavyTail) {
  // A predicate matching ~5 rows is often missed entirely by a 0.1% sample
  // (estimate 1), the failure mode Figure 4 shows.
  const storage::Catalog cat = MakeUniformCatalog(5000, 21);
  const SamplingEstimator sampler(&cat, 0.001, 23);
  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kEq, 7}}});
  AddCompound(q, 1, {{{CmpOp::kLe, 4}}});
  int misses = 0;
  for (int i = 0; i < 30; ++i) {
    if (sampler.EstimateCard(q).value() <= 1.0) ++misses;
  }
  EXPECT_GT(misses, 15);
}

TEST(SamplingEstimatorTest, JoinsUnimplemented) {
  const storage::Catalog cat = MakeUniformCatalog(100, 25);
  const SamplingEstimator sampler(&cat, 0.1, 27);
  query::Query q = SingleTableQuery("uni");
  q.tables.push_back(query::TableRef{"uni2", "uni2"});
  EXPECT_EQ(sampler.EstimateCard(q).status().code(),
            common::StatusCode::kUnimplemented);
}

TEST(MlEstimatorTest, TrainRejectsLengthMismatch) {
  const storage::Catalog cat = MakeUniformCatalog(100, 71);
  const storage::Table& t = *cat.GetTable("uni").value();
  MlEstimator estimator(
      std::make_unique<featurize::RangeEncoding>(
          featurize::FeatureSchema::FromTable(t)),
      std::make_unique<ml::GradientBoosting>());
  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kLe, 50}}});
  EXPECT_EQ(estimator.Train({q}, {1.0, 2.0}, 0.0, 1).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(IepEstimatorTest, ExactInnerGivesExactDisjunctions) {
  // Inclusion-exclusion over the true-cardinality oracle must reproduce the
  // exact count of any mixed query (the IEP identity itself).
  const storage::Catalog cat = MakeUniformCatalog(3000, 51);
  const storage::Table& t = *cat.GetTable("uni").value();
  const TrueCardEstimator oracle(&cat);
  const IepEstimator iep(&oracle, /*max_terms=*/8);
  common::Rng rng(53);
  for (int iter = 0; iter < 15; ++iter) {
    query::Query q = SingleTableQuery("uni");
    for (int a = 0; a < 2; ++a) {
      std::vector<std::vector<std::pair<CmpOp, double>>> clauses;
      const int n_clauses = static_cast<int>(rng.UniformInt(1, 2));
      for (int c = 0; c < n_clauses; ++c) {
        double lo = static_cast<double>(rng.UniformInt(0, 99));
        double hi = static_cast<double>(rng.UniformInt(0, 99));
        if (lo > hi) std::swap(lo, hi);
        clauses.push_back({{CmpOp::kGe, lo}, {CmpOp::kLe, hi}});
      }
      AddCompound(q, a, clauses);
    }
    const double truth = static_cast<double>(
        query::Executor::Count(t, q).value());
    const auto est_or = iep.EstimateCard(q);
    ASSERT_TRUE(est_or.ok()) << est_or.status();
    EXPECT_NEAR(est_or.value(), std::max(truth, 1.0), 1e-6);
  }
}

TEST(IepEstimatorTest, SubqueryCountIsExponential) {
  const storage::Catalog cat = MakeUniformCatalog(500, 55);
  const TrueCardEstimator oracle(&cat);
  const IepEstimator iep(&oracle, /*max_terms=*/8);
  // 2 attributes x 2 clauses each = 4 DNF terms -> 2^4 - 1 = 15 subqueries.
  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kLe, 20}}, {{CmpOp::kGe, 80}}});
  AddCompound(q, 1, {{{CmpOp::kLe, 30}}, {{CmpOp::kGe, 70}}});
  ASSERT_TRUE(iep.EstimateCard(q).ok());
  const auto expansion = iep.Expansion(q);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  EXPECT_EQ(expansion.value().dnf_terms, 4);
  EXPECT_EQ(expansion.value().subqueries, 15);
}

TEST(IepEstimatorTest, RejectsBlowUp) {
  const storage::Catalog cat = MakeUniformCatalog(500, 57);
  const TrueCardEstimator oracle(&cat);
  const IepEstimator iep(&oracle, /*max_terms=*/3);
  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kLe, 20}}, {{CmpOp::kGe, 80}}});
  AddCompound(q, 1, {{{CmpOp::kLe, 30}}, {{CmpOp::kGe, 70}}});
  EXPECT_EQ(iep.EstimateCard(q).status().code(),
            common::StatusCode::kOutOfRange);
  EXPECT_EQ(iep.Expansion(q).status().code(), common::StatusCode::kOutOfRange);
}

TEST(IepEstimatorTest, ConjunctiveFastPath) {
  const storage::Catalog cat = MakeUniformCatalog(500, 59);
  const TrueCardEstimator oracle(&cat);
  const IepEstimator iep(&oracle, 8);
  query::Query q = SingleTableQuery("uni");
  AddCompound(q, 0, {{{CmpOp::kLe, 50}}});
  ASSERT_TRUE(iep.EstimateCard(q).ok());
  const auto expansion = iep.Expansion(q);
  ASSERT_TRUE(expansion.ok()) << expansion.status();
  EXPECT_EQ(expansion.value().dnf_terms, 1);
  EXPECT_EQ(expansion.value().subqueries, 1);
}

TEST(MlEstimatorTest, TrainsAndEstimates) {
  const storage::Catalog cat = MakeUniformCatalog(5000, 29);
  const storage::Table& t = *cat.GetTable("uni").value();
  common::Rng rng(31);
  workload::PredicateGenOptions gen;
  gen.max_attrs = 2;
  gen.max_not_equals = 2;
  const std::vector<query::Query> queries =
      workload::GeneratePredicateWorkload(t, 800, gen, rng);
  const auto labeled_or = workload::LabelOnTable(t, queries, true);
  ASSERT_TRUE(labeled_or.ok());
  std::vector<query::Query> qs;
  std::vector<double> cards;
  for (const auto& lq : labeled_or.value()) {
    qs.push_back(lq.query);
    cards.push_back(lq.card);
  }
  featurize::ConjunctionOptions copts;
  copts.max_partitions = 16;
  ml::GbmParams gbm;
  gbm.num_trees = 60;
  MlEstimator estimator(
      std::make_unique<featurize::ConjunctionEncoding>(
          featurize::FeatureSchema::FromTable(t), copts),
      std::make_unique<ml::GradientBoosting>(gbm));
  ASSERT_TRUE(estimator.Train(qs, cards, 0.1, 33).ok());
  EXPECT_GT(estimator.SizeBytes(), 0u);
  EXPECT_EQ(estimator.name(), "GB+conjunctive");

  // In-sample estimates should be decent.
  double mean_q = 0.0;
  for (size_t i = 0; i < qs.size(); ++i) {
    mean_q += ml::QError(cards[i], estimator.EstimateCard(qs[i]).value());
  }
  mean_q /= static_cast<double>(qs.size());
  EXPECT_LT(mean_q, 3.0);
}

}  // namespace
}  // namespace qfcard::est
