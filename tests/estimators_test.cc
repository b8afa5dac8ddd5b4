#include "estimators/postgres.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "estimators/iep.h"
#include "estimators/ml_estimator.h"
#include "estimators/sampling.h"
#include "estimators/true_card.h"
#include "featurize/conjunction.h"
#include "featurize/partitioner.h"
#include "featurize/range.h"
#include "gtest/gtest.h"
#include "ml/gbm.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "test_util.h"
#include "workload/forest.h"
#include "workload/imdb.h"
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

// NaN rows hold no value: they dilute the MCV frequencies (a fraction of
// all rows) and stay out of the histogram, min, max and distinct count.
TEST(ColumnSynopsisTest, NanRowsStayOutOfTheSummaries) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  storage::Catalog cat;
  storage::Table t("f");
  QFCARD_CHECK_OK(t.AddColumn(
      testutil::FloatColumn("x", {nan, 1.0, 2.0, nan, 2.0, 3.0, nan, 2.0})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
  PostgresOptions options;
  options.histogram_buckets = 2;
  const ColumnSynopsis s =
      PostgresStyleEstimator::Build(&cat, options).value().synopsis(0, 0);
  EXPECT_EQ(s.rows, 8);
  EXPECT_EQ(s.distinct, 3);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 3.0);
  EXPECT_EQ(s.hist_bounds, (std::vector<double>{1.0, 2.0, 3.0}));
  ASSERT_EQ(s.mcv.size(), 3u);
  EXPECT_EQ(s.mcv[1], std::make_pair(2.0, 3.0 / 8.0));
  EXPECT_DOUBLE_EQ(s.mcv_total_freq, 5.0 / 8.0);
}

// Route factories build one estimator per feature space over the same
// catalog; every build after the first reads the cached column counts.
TEST(PostgresEstimatorTest, BuildsShareOneCountPassPerColumn) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const obs::Counter* computed =
      obs::MetricsRegistry::Global().CounterNamed("storage.stats.computed");
  const storage::Catalog cat = MakeUniformCatalog(2000, 9);
  const uint64_t before = computed->Value();
  const int64_t* counts = nullptr;
  for (int i = 0; i < 31; ++i) {
    const PostgresStyleEstimator pg =
        PostgresStyleEstimator::Build(&cat).value();
    EXPECT_EQ(pg.synopsis(0, 0).distinct, 100);
    const int64_t* now = cat.table(0).column(0).GetStats().counts.data();
    if (counts == nullptr) counts = now;
    EXPECT_EQ(now, counts) << "build " << i << " recounted the column";
  }
  EXPECT_EQ(computed->Value() - before, 2u);  // two columns, one pass each
  obs::SetMetricsEnabled(metrics_were_enabled);
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

// ---- Statistics goldens ----------------------------------------------------

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

template <typename T>
uint64_t HashValue(uint64_t h, const T& v) {
  return Fnv1a(h, &v, sizeof(v));
}

template <typename T>
uint64_t HashVector(uint64_t h, const std::vector<T>& v) {
  h = HashValue(h, v.size());
  return Fnv1a(h, v.data(), v.size() * sizeof(T));
}

uint64_t DigestColumnStats(uint64_t h, const storage::Column& col) {
  const storage::ColumnStats& stats = col.GetStats();
  h = HashValue(h, stats.min);
  h = HashValue(h, stats.max);
  h = HashValue(h, stats.distinct);
  return HashValue(h, stats.rows);
}

uint64_t DigestSynopsis(uint64_t h, const ColumnSynopsis& s) {
  h = HashVector(h, s.hist_bounds);
  h = HashValue(h, s.mcv.size());
  for (const auto& [value, freq] : s.mcv) {
    h = HashValue(h, value);
    h = HashValue(h, freq);
  }
  h = HashValue(h, s.mcv_total_freq);
  h = HashValue(h, s.distinct);
  h = HashValue(h, s.rows);
  h = HashValue(h, s.min);
  h = HashValue(h, s.max);
  return HashValue(h, s.integral);
}

uint64_t DigestPartitioner(uint64_t h, const featurize::Partitioner& p) {
  for (size_t a = 0; a < p.attr_names().size(); ++a) {
    h = Fnv1a(h, p.attr_names()[a].data(), p.attr_names()[a].size());
    h = HashVector(h, p.boundaries()[a]);
  }
  return h;
}

// Every statistic derived from a catalog's column values: the column stats,
// the Postgres-style synopses at the default and a small option set, the
// equi-depth and v-optimal boundaries and the skew-aware budgets. One
// digest per output kind, so a change names the output it moved.
std::vector<std::pair<std::string, uint64_t>> DigestStatistics(
    const std::string& instance, const storage::Catalog& catalog) {
  PostgresOptions small;
  small.histogram_buckets = 4;
  small.mcv_entries = 3;
  const PostgresStyleEstimator pg =
      PostgresStyleEstimator::Build(&catalog).value();
  const PostgresStyleEstimator pg_small =
      PostgresStyleEstimator::Build(&catalog, small).value();
  uint64_t stats_h = kFnvBasis;
  uint64_t synopsis_h = kFnvBasis;
  uint64_t synopsis_small_h = kFnvBasis;
  uint64_t equi_depth_h = kFnvBasis;
  uint64_t v_optimal_h = kFnvBasis;
  uint64_t budgets_h = kFnvBasis;
  for (int t = 0; t < catalog.num_tables(); ++t) {
    const storage::Table& table = catalog.table(t);
    for (int c = 0; c < table.num_columns(); ++c) {
      stats_h = DigestColumnStats(stats_h, table.column(c));
      synopsis_h = DigestSynopsis(synopsis_h, pg.synopsis(t, c));
      synopsis_small_h =
          DigestSynopsis(synopsis_small_h, pg_small.synopsis(t, c));
    }
    for (const int parts : {4, 16}) {
      equi_depth_h = DigestPartitioner(
          equi_depth_h, featurize::Partitioner::EquiDepth(table, parts));
    }
    v_optimal_h = DigestPartitioner(
        v_optimal_h, featurize::Partitioner::VOptimal(table, 16));
    v_optimal_h = DigestPartitioner(
        v_optimal_h, featurize::Partitioner::VOptimal(table, 4, 6));
    budgets_h = HashVector(budgets_h, featurize::SkewAwarePartitions(table, 8));
    budgets_h =
        HashVector(budgets_h, featurize::SkewAwarePartitions(table, 16, 4));
  }
  return {{instance + "/stats", stats_h},
          {instance + "/synopsis", synopsis_h},
          {instance + "/synopsis-small", synopsis_small_h},
          {instance + "/equi-depth", equi_depth_h},
          {instance + "/v-optimal", v_optimal_h},
          {instance + "/budgets", budgets_h}};
}

storage::Catalog OneColumnCatalog(storage::Column col) {
  storage::Table table("hand");
  QFCARD_CHECK_OK(table.AddColumn(std::move(col)));
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(std::move(table)));
  return catalog;
}

// Hand-built edge cases: heavy repeats, one value, no rows, dictionary
// codes and a column where -0.0 and 0.0 (equal, with different bits) mix.
std::vector<std::pair<std::string, storage::Catalog>> HandBuiltCatalogs() {
  std::vector<std::pair<std::string, storage::Catalog>> out;
  std::vector<double> repeats;
  for (int i = 0; i < 40; ++i) repeats.push_back((i * i) % 7 == 0 ? 3 : i % 5);
  out.emplace_back("repeats", OneColumnCatalog(IntColumn("r", repeats)));
  out.emplace_back("one-value",
                   OneColumnCatalog(IntColumn("o", std::vector<double>(9, 4))));
  out.emplace_back("empty", OneColumnCatalog(IntColumn("e", {})));
  {
    const std::vector<std::string> words = {"pear", "apple", "fig", "apple",
                                            "kiwi", "fig",   "apple", "date"};
    storage::Dictionary dict = storage::Dictionary::FromValues(words);
    storage::Column col("s", storage::ColumnType::kDictString);
    for (const std::string& w : words) {
      col.Append(static_cast<double>(dict.Code(w).value()));
    }
    col.SetDictionary(std::move(dict));
    out.emplace_back("dict-string", OneColumnCatalog(std::move(col)));
  }
  out.emplace_back(
      "signed-zero",
      OneColumnCatalog(testutil::FloatColumn(
          "z", {0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 0.0, -0.0, 1.5, 0.0, -0.0})));
  return out;
}

// Any change to how a column's values are counted or summarized moves one
// of these digests; a change of how they are computed must leave every one
// untouched.
TEST(StatisticsGoldenTest, CatalogDigests) {
  std::vector<std::pair<std::string, uint64_t>> got;
  const auto add = [&got](const std::string& instance,
                          const storage::Catalog& catalog) {
    for (auto& entry : DigestStatistics(instance, catalog)) {
      got.push_back(std::move(entry));
    }
  };
  {
    storage::Catalog forest;
    QFCARD_CHECK_OK(
        forest.AddTable(workload::MakeForestTable(workload::ForestOptions{})));
    add("forest", forest);
  }
  {
    workload::ImdbOptions io;
    io.num_titles = 500;
    io.seed = 21;
    add("imdb", workload::MakeImdbDatabase(io).catalog);
  }
  for (const auto& [name, catalog] : HandBuiltCatalogs()) add(name, catalog);

  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"forest/stats", 0xc9ef36a73cbc28abULL},
      {"forest/synopsis", 0xfa059a1dc5909e3bULL},
      {"forest/synopsis-small", 0xcfb790a0be83dc76ULL},
      {"forest/equi-depth", 0x81e1f68397a061a7ULL},
      {"forest/v-optimal", 0xd99673d930654514ULL},
      {"forest/budgets", 0x37122986ae0f026dULL},
      {"imdb/stats", 0xc72ef700240ddb8eULL},
      {"imdb/synopsis", 0x37645b03bc05cc51ULL},
      {"imdb/synopsis-small", 0x6b007e318da41f2aULL},
      {"imdb/equi-depth", 0x699f8d77858b91fcULL},
      {"imdb/v-optimal", 0xea0905edd1ba6ac3ULL},
      {"imdb/budgets", 0x308f88c05dffdae5ULL},
      {"repeats/stats", 0xa2fa9ccf372f1e38ULL},
      {"repeats/synopsis", 0xd6f05b24d72b55f6ULL},
      {"repeats/synopsis-small", 0x057e3d79230981d6ULL},
      {"repeats/equi-depth", 0x891de14615e3c063ULL},
      {"repeats/v-optimal", 0x7d273bb6471c6659ULL},
      {"repeats/budgets", 0x3efa78d25c6119a5ULL},
      {"one-value/stats", 0xdc43779d8600b50dULL},
      {"one-value/synopsis", 0x3a7b7f3bf642fbf8ULL},
      {"one-value/synopsis-small", 0xee9e2931c91a4518ULL},
      {"one-value/equi-depth", 0x7f7471b524dc9151ULL},
      {"one-value/v-optimal", 0xc37b1b9caf432543ULL},
      {"one-value/budgets", 0x3efa78d25c6119a5ULL},
      {"empty/stats", 0x0c8210784d8af5a5ULL},
      {"empty/synopsis", 0x971ced6043ea677fULL},
      {"empty/synopsis-small", 0x971ced6043ea677fULL},
      {"empty/equi-depth", 0xdb94fe4cc6f8c13fULL},
      {"empty/v-optimal", 0xdb94fe4cc6f8c13fULL},
      {"empty/budgets", 0xc809890199a4fc6dULL},
      {"dict-string/stats", 0xc3a1bbadd945da18ULL},
      {"dict-string/synopsis", 0x55e9818a2df2592bULL},
      {"dict-string/synopsis-small", 0x5b5b98355c755f29ULL},
      {"dict-string/equi-depth", 0x1f48e60fe8ce0eecULL},
      {"dict-string/v-optimal", 0xc20dd14665521da6ULL},
      {"dict-string/budgets", 0x3efa78d25c6119a5ULL},
      {"signed-zero/stats", 0x2eaa41fd92866cc8ULL},
      // A histogram or equi-depth bound that falls in the zero run holds the
      // run's representative, its first zero in row order (0.0 here).
      {"signed-zero/synopsis", 0xdfd9b67591554e3fULL},
      {"signed-zero/synopsis-small", 0x6df0d3f8b7f3dfcfULL},
      {"signed-zero/equi-depth", 0xb802b42b82af6424ULL},
      {"signed-zero/v-optimal", 0x6cf4bf2a6e1c61adULL},
      {"signed-zero/budgets", 0x3efa78d25c6119a5ULL},
  };
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second)
        << got[i].first << ": 0x" << std::hex << got[i].second << "ULL";
  }
}

}  // namespace
}  // namespace qfcard::est
