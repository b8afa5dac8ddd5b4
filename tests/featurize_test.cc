#include "featurize/feature_schema.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>

#include "common/random.h"
#include "featurize/disjunction.h"
#include "featurize/extensions.h"
#include "featurize/join_encoding.h"
#include "featurize/mscn_featurizer.h"
#include "featurize/partitioner.h"
#include "featurize/range.h"
#include "featurize/singular.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/forest.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace qfcard::featurize {
namespace {

using query::CmpOp;
using testutil::AddCompound;
using testutil::AddPredicate;
using testutil::SingleTableQuery;
using testutil::SmallTable;

// Schema of the paper's Section 3.2 example: A in [-9, 50], B in [0, 115],
// C in {1, 2}; all integral.
FeatureSchema PaperSchema() {
  std::vector<AttributeInfo> attrs(3);
  attrs[0] = AttributeInfo{"A", -9, 50, true, 60};
  attrs[1] = AttributeInfo{"B", 0, 115, true, 116};
  attrs[2] = AttributeInfo{"C", 1, 2, true, 2};
  return FeatureSchema(std::move(attrs));
}

TEST(FeatureSchemaTest, FromTableUsesStats) {
  const storage::Table t = SmallTable();
  const FeatureSchema schema = FeatureSchema::FromTable(t);
  ASSERT_EQ(schema.num_attributes(), 2);
  EXPECT_EQ(schema.attr(0).name, "a");
  EXPECT_EQ(schema.attr(0).min, 0);
  EXPECT_EQ(schema.attr(0).max, 9);
  EXPECT_TRUE(schema.attr(0).integral);
  EXPECT_EQ(schema.attr(1).max, 90);
}

TEST(FeatureSchemaTest, DomainSize) {
  EXPECT_DOUBLE_EQ((AttributeInfo{"x", 0, 9, true, 10}).DomainSize(), 10.0);
  EXPECT_DOUBLE_EQ((AttributeInfo{"x", 0.0, 2.5, false, 0}).DomainSize(), 2.5);
  EXPECT_DOUBLE_EQ((AttributeInfo{"x", 5, 5, true, 1}).DomainSize(), 1.0);
}

// The layout ResolveLayouts gives `attr` alone under budget `n` and
// `part`'s boundaries (null: equi-width). Its bounds point into *part.
PartitionLayout LayoutOf(const std::shared_ptr<const Partitioner>& part,
                         const AttributeInfo& attr, int n) {
  ConjunctionOptions opts;
  opts.max_partitions = n;
  opts.partitioner = part;
  return ResolveLayouts(FeatureSchema({attr}), opts)[0];
}

TEST(EquiWidthPartitionerTest, PaperIndexFormula) {
  // Section 3.2: A in [-9, 50], n = 12 -> value 7 maps to index
  // floor((7 - (-9)) / (50 - (-9) + 1) * 12) = floor(3.2) = 3.
  const AttributeInfo a{"A", -9, 50, true, 60};
  const PartitionLayout layout = LayoutOf(nullptr, a, 12);
  EXPECT_EQ(layout.n, 12);
  EXPECT_EQ(layout.IndexOf(a, 7), 3);
  EXPECT_EQ(layout.IndexOf(a, -9), 0);
  EXPECT_EQ(layout.IndexOf(a, 50), 11);
}

TEST(EquiWidthPartitionerTest, SmallDomainShrinksToDomain) {
  const AttributeInfo c{"C", 1, 2, true, 2};
  const PartitionLayout layout = LayoutOf(nullptr, c, 12);
  EXPECT_EQ(layout.n, 2);
  EXPECT_EQ(layout.IndexOf(c, 1), 0);
  EXPECT_EQ(layout.IndexOf(c, 2), 1);
}

TEST(EquiWidthPartitionerTest, ClampsOutOfDomainValues) {
  const AttributeInfo a{"A", 0, 9, true, 10};
  const PartitionLayout layout = LayoutOf(nullptr, a, 5);
  EXPECT_EQ(layout.IndexOf(a, -100), 0);
  EXPECT_EQ(layout.IndexOf(a, 100), 4);
}

TEST(EquiWidthPartitionerTest, ContinuousDomain) {
  const AttributeInfo x{"x", 0.0, 1.0, false, 0};
  const PartitionLayout layout = LayoutOf(nullptr, x, 4);
  EXPECT_EQ(layout.n, 4);
  EXPECT_EQ(layout.IndexOf(x, 0.0), 0);
  EXPECT_EQ(layout.IndexOf(x, 0.49), 1);
  EXPECT_EQ(layout.IndexOf(x, 1.0), 3);  // max value lands in last partition
}

// Literals whose partition index does not fit in an int, and infinities,
// clamp like any other out-of-domain value.
TEST(EquiWidthPartitionerTest, ClampsFarOutOfDomainValues) {
  const AttributeInfo b{"B", 0, 115, true, 116};
  const PartitionLayout layout = LayoutOf(nullptr, b, 12);
  for (const double v : {1e11, 1e15, HUGE_VAL}) {
    EXPECT_EQ(layout.IndexOf(b, v), 11) << v;
    EXPECT_EQ(layout.IndexOf(b, -v), 0) << -v;
  }
}

TEST(EquiDepthPartitionerTest, BalancesSkewedData) {
  storage::Table t("t");
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(1);
  for (int i = 0; i < 100; ++i) values.push_back(i + 2);
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("x", values)));
  const auto part =
      std::make_shared<const Partitioner>(Partitioner::EquiDepth(t, 8));
  const FeatureSchema schema = FeatureSchema::FromTable(t);
  const PartitionLayout layout = LayoutOf(part, schema.attr(0), 8);
  // The spike at 1 collapses many quantiles; far fewer than 8 partitions.
  EXPECT_LT(layout.n, 8);
  EXPECT_GE(layout.n, 2);
  // Index is monotone in the value.
  int prev = -1;
  for (const double v : {1.0, 2.0, 50.0, 101.0}) {
    const int idx = layout.IndexOf(schema.attr(0), v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(VOptimalPartitionerTest, IsolatesFrequencySpikes) {
  // A huge spike at one value should get its own partition boundary.
  storage::Table t("t");
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(10);
  for (int i = 0; i < 100; ++i) values.push_back(i % 20);
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("x", values)));
  const auto part =
      std::make_shared<const Partitioner>(Partitioner::VOptimal(t, 4));
  const FeatureSchema schema = FeatureSchema::FromTable(t);
  const AttributeInfo& attr = schema.attr(0);
  const PartitionLayout layout = LayoutOf(part, attr, 4);
  EXPECT_LE(layout.n, 4);
  EXPECT_GE(layout.n, 2);
  // The spike value must not share its partition with every other value:
  // some value below and some above 10 land in different partitions than
  // at least one other probe.
  int distinct_partitions = 1;
  int prev = layout.IndexOf(attr, 0);
  for (const double v : {5.0, 9.0, 10.0, 11.0, 19.0}) {
    const int idx = layout.IndexOf(attr, v);
    EXPECT_GE(idx, prev);  // monotone
    if (idx != prev) ++distinct_partitions;
    prev = idx;
  }
  EXPECT_GE(distinct_partitions, 2);
}

TEST(VOptimalPartitionerTest, MonotoneAndInRange) {
  common::Rng rng(123);
  storage::Table t("t");
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<double>(rng.Zipf(200, 1.2)));
  }
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("x", values)));
  const auto part =
      std::make_shared<const Partitioner>(Partitioner::VOptimal(t, 16));
  const FeatureSchema schema = FeatureSchema::FromTable(t);
  const AttributeInfo& attr = schema.attr(0);
  const PartitionLayout layout = LayoutOf(part, attr, 16);
  EXPECT_LE(layout.n, 16);
  int prev = -1;
  for (double v = attr.min; v <= attr.max; v += 1.0) {
    const int idx = layout.IndexOf(attr, v);
    EXPECT_GE(idx, prev);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, layout.n);
    prev = idx;
  }
}

TEST(VOptimalPartitionerTest, UnknownAttributeFallsBackToEquiWidth) {
  storage::Table t("t");
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("x", {1, 2, 3})));
  const auto part =
      std::make_shared<const Partitioner>(Partitioner::VOptimal(t, 8));
  const AttributeInfo other{"unrelated", 0, 99, true, 100};
  EXPECT_EQ(LayoutOf(part, other, 8).n, LayoutOf(nullptr, other, 8).n);
  EXPECT_EQ(LayoutOf(part, other, 8).IndexOf(other, 50),
            LayoutOf(nullptr, other, 8).IndexOf(other, 50));
}

// NaN rows hold no value, so the partitioners place boundaries among the
// other rows only; an all-NaN column is like an empty one.
TEST(PartitionerNanTest, NanRowsHoldNoValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  storage::Table t("t");
  QFCARD_CHECK_OK(t.AddColumn(testutil::FloatColumn(
      "x", {nan, 4.0, 1.0, nan, 2.0, nan, 3.0, nan, nan, 1.0})));
  QFCARD_CHECK_OK(
      t.AddColumn(testutil::FloatColumn("n", std::vector<double>(10, nan))));
  const Partitioner depth = Partitioner::EquiDepth(t, 4);
  EXPECT_EQ(depth.boundaries()[0], (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(depth.boundaries()[1].empty());
  const Partitioner vopt = Partitioner::VOptimal(t, 4);
  for (const double b : vopt.boundaries()[0]) EXPECT_FALSE(std::isnan(b));
  EXPECT_TRUE(vopt.boundaries()[1].empty());
  // The top value holds 2 of 10 rows (NaN rows count in the denominator).
  EXPECT_EQ(SkewAwarePartitions(t, 8, 2, 0.15), (std::vector<int>{16, 8}));
  EXPECT_EQ(SkewAwarePartitions(t, 8, 2, 0.25), (std::vector<int>{8, 8}));
}

// ---------------------------------------------------------------------------
// Singular Predicate Encoding
// ---------------------------------------------------------------------------

TEST(SingularEncodingTest, LayoutMatchesPaperExample) {
  // Section 2.1.1: m = 3, query A > 5 AND B = 7 (A in [-9,50], B in [0,115]).
  const SingularEncoding enc(PaperSchema());
  ASSERT_EQ(enc.dim(), 12);
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kGt, 5);
  AddPredicate(q, 1, CmpOp::kEq, 7);
  const auto vec_or = enc.Featurize(q);
  ASSERT_TRUE(vec_or.ok()) << vec_or.status();
  const std::vector<float>& v = vec_or.value();
  // A: op bits {=,>,<} = 010, literal (5+9)/59.
  EXPECT_EQ(v[0], 0.0f);
  EXPECT_EQ(v[1], 1.0f);
  EXPECT_EQ(v[2], 0.0f);
  EXPECT_NEAR(v[3], 14.0 / 59.0, 1e-6);
  // B: 100, 7/115.
  EXPECT_EQ(v[4], 1.0f);
  EXPECT_EQ(v[5], 0.0f);
  EXPECT_EQ(v[6], 0.0f);
  EXPECT_NEAR(v[7], 7.0 / 115.0, 1e-6);
  // C: no predicate -> all zero.
  for (int i = 8; i < 12; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], 0.0f);
}

TEST(SingularEncodingTest, CompoundOpsSetTwoBits) {
  const SingularEncoding enc(PaperSchema());
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kGe, 0);
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_EQ(v[0], 1.0f);  // =
  EXPECT_EQ(v[1], 1.0f);  // >
  EXPECT_EQ(v[2], 0.0f);
}

TEST(SingularEncodingTest, DropsSecondPredicatePerAttribute) {
  const SingularEncoding enc(PaperSchema());
  query::Query q1 = SingleTableQuery("t");
  AddCompound(q1, 0, {{{CmpOp::kGe, 10}, {CmpOp::kLe, 40}}});
  query::Query q2 = SingleTableQuery("t");
  AddCompound(q2, 0, {{{CmpOp::kGe, 10}, {CmpOp::kLe, 20}}});
  // Information loss: both queries share a feature vector (only >= 10 kept).
  EXPECT_EQ(enc.Featurize(q1).value(), enc.Featurize(q2).value());
}

TEST(SingularEncodingTest, RejectsDisjunctions) {
  const SingularEncoding enc(PaperSchema());
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0, {{{CmpOp::kLe, 0}}, {{CmpOp::kGe, 40}}});
  EXPECT_EQ(enc.Featurize(q).status().code(),
            common::StatusCode::kInvalidArgument);
}

// A hand-built clause without predicates has no literal to encode.
TEST(SingularEncodingTest, RejectsEmptyClause) {
  const SingularEncoding enc(PaperSchema());
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0, std::vector<std::vector<std::pair<CmpOp, double>>>(1));
  EXPECT_EQ(enc.Featurize(q).status().code(),
            common::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Range Predicate Encoding
// ---------------------------------------------------------------------------

TEST(RangeEncodingTest, NoPredicateIsFullDomain) {
  const RangeEncoding enc(PaperSchema());
  ASSERT_EQ(enc.dim(), 6);
  const query::Query q = SingleTableQuery("t");
  const std::vector<float> v = enc.Featurize(q).value();
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(v[static_cast<size_t>(2 * a)], 0.0f);
    EXPECT_EQ(v[static_cast<size_t>(2 * a + 1)], 1.0f);
  }
}

TEST(RangeEncodingTest, ClosedRangeNormalized) {
  const RangeEncoding enc(PaperSchema());
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 1, {{{CmpOp::kGe, 23}, {CmpOp::kLe, 92}}});
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_NEAR(v[2], 23.0 / 115.0, 1e-6);
  EXPECT_NEAR(v[3], 92.0 / 115.0, 1e-6);
}

TEST(RangeEncodingTest, EqualityCollapsesToPoint) {
  const RangeEncoding enc(PaperSchema());
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kEq, 5);
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_NEAR(v[0], 14.0 / 59.0, 1e-6);
  EXPECT_FLOAT_EQ(v[0], v[1]);
}

TEST(RangeEncodingTest, OpenRangesCloseWithIntegralStep) {
  // A < 5 on an integral domain equals [min(A), 4] (Section 3.1).
  const RangeEncoding enc(PaperSchema());
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kLt, 5);
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_EQ(v[0], 0.0f);
  EXPECT_NEAR(v[1], 13.0 / 59.0, 1e-6);
}

TEST(RangeEncodingTest, NotEqualIsDropped) {
  const RangeEncoding enc(PaperSchema());
  query::Query q1 = SingleTableQuery("t");
  AddCompound(q1, 0, {{{CmpOp::kGe, 0}, {CmpOp::kLe, 20}, {CmpOp::kNe, 10}}});
  query::Query q2 = SingleTableQuery("t");
  AddCompound(q2, 0, {{{CmpOp::kGe, 0}, {CmpOp::kLe, 20}}});
  EXPECT_EQ(enc.Featurize(q1).value(), enc.Featurize(q2).value());
}

TEST(RangeEncodingTest, MultipleRangesIntersect) {
  const RangeEncoding enc(PaperSchema());
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0, {{{CmpOp::kGe, 0},
                      {CmpOp::kGe, 10},
                      {CmpOp::kLe, 45},
                      {CmpOp::kLe, 30}}});
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_NEAR(v[0], 19.0 / 59.0, 1e-6);  // lo = 10
  EXPECT_NEAR(v[1], 39.0 / 59.0, 1e-6);  // hi = 30
}

// ---------------------------------------------------------------------------
// Decorators and global encodings
// ---------------------------------------------------------------------------

TEST(GroupByAppendTest, SetsGroupingBits) {
  auto inner = std::make_unique<RangeEncoding>(PaperSchema());
  const int inner_dim = inner->dim();
  const GroupByAppendFeaturizer enc(std::move(inner), 3);
  ASSERT_EQ(enc.dim(), inner_dim + 3);
  query::Query q = SingleTableQuery("t");
  q.group_by.push_back(query::ColumnRef{0, 1});
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_EQ(v[static_cast<size_t>(inner_dim + 0)], 0.0f);
  EXPECT_EQ(v[static_cast<size_t>(inner_dim + 1)], 1.0f);
  EXPECT_EQ(v[static_cast<size_t>(inner_dim + 2)], 0.0f);
}

TEST(FactoryTest, MakesAllKinds) {
  for (const QftKind kind : {QftKind::kSimple, QftKind::kRange,
                             QftKind::kConjunctive, QftKind::kComplex}) {
    const auto f = MakeFeaturizer(kind, PaperSchema());
    ASSERT_NE(f, nullptr);
    EXPECT_GT(f->dim(), 0);
    EXPECT_STREQ(f->name().c_str(), QftKindToString(kind));
  }
}

TEST(GlobalFeaturizerTest, AppendsTableBitmap) {
  workload::ImdbOptions opts;
  opts.num_titles = 200;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(opts);
  const GlobalFeatureSchema global =
      GlobalFeatureSchema::FromCatalog(db.catalog);
  auto inner = std::make_unique<RangeEncoding>(global.schema());
  const int inner_dim = inner->dim();
  const GlobalFeaturizer enc(&db.catalog, global, std::move(inner));
  ASSERT_EQ(enc.dim(), inner_dim + db.catalog.num_tables());

  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  q.tables.push_back(query::TableRef{"cast_info", "cast_info"});
  QFCARD_CHECK_OK(db.graph.PopulateJoins(db.catalog, q));
  const std::vector<float> v = enc.Featurize(q).value();
  const int title_idx = db.catalog.TableIndex("title").value();
  const int ci_idx = db.catalog.TableIndex("cast_info").value();
  const int mi_idx = db.catalog.TableIndex("movie_info").value();
  EXPECT_EQ(v[static_cast<size_t>(inner_dim + title_idx)], 1.0f);
  EXPECT_EQ(v[static_cast<size_t>(inner_dim + ci_idx)], 1.0f);
  EXPECT_EQ(v[static_cast<size_t>(inner_dim + mi_idx)], 0.0f);
}

TEST(GlobalFeaturizerTest, PredicatesMapToGlobalAttributeSlots) {
  // Two tiny tables; a predicate on the second table must land in the
  // second table's block of the global conjunction encoding.
  storage::Catalog cat;
  storage::Table a("a");
  QFCARD_CHECK_OK(a.AddColumn(testutil::IntColumn("x", {0, 1, 2, 3})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(a)));
  storage::Table b("b");
  QFCARD_CHECK_OK(b.AddColumn(testutil::IntColumn("y", {0, 1, 2, 3})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(b)));

  const GlobalFeatureSchema global = GlobalFeatureSchema::FromCatalog(cat);
  ASSERT_EQ(global.schema().num_attributes(), 2);
  EXPECT_EQ(global.schema().attr(0).name, "a.x");
  EXPECT_EQ(global.schema().attr(1).name, "b.y");
  EXPECT_EQ(global.GlobalIndex(1, 0).value(), 1);

  ConjunctionOptions opts;
  opts.max_partitions = 4;
  opts.append_attr_selectivity = false;
  const GlobalFeaturizer enc(
      &cat, global,
      std::make_unique<ConjunctionEncoding>(global.schema(), opts));
  // Query over only table b, with b.y = 2.
  query::Query q;
  q.tables.push_back(query::TableRef{"b", "b"});
  testutil::AddPredicate(q, 0, CmpOp::kEq, 2);
  const std::vector<float> v = enc.Featurize(q).value();
  // Block 0 (a.x, 4 entries, untouched) all ones.
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 1.0f);
  // Block 1 (b.y): exact small-domain equality keeps only entry 2.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(v[static_cast<size_t>(4 + i)], i == 2 ? 1.0f : 0.0f);
  }
  // Table bitmap: only b set.
  EXPECT_FLOAT_EQ(v[8], 0.0f);
  EXPECT_FLOAT_EQ(v[9], 1.0f);
}

TEST(MscnFeaturizerTest, SetShapes) {
  workload::ImdbOptions opts;
  opts.num_titles = 200;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(opts);
  const MscnFeaturizer feat(&db.catalog, &db.graph,
                            MscnFeaturizer::PredMode::kPerPredicate);
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  q.tables.push_back(query::TableRef{"movie_keyword", "movie_keyword"});
  QFCARD_CHECK_OK(db.graph.PopulateJoins(db.catalog, q));
  // Two predicates on one attribute -> two per-predicate vectors.
  const storage::Table& title = *db.catalog.GetTable("title").value();
  const int year = title.ColumnIndex("production_year").value();
  testutil::AddCompound(q, year, {{{CmpOp::kGe, 1990}, {CmpOp::kLe, 2000}}});
  const auto sample_or = feat.Featurize(q);
  ASSERT_TRUE(sample_or.ok()) << sample_or.status();
  const MscnSample& s = sample_or.value();
  EXPECT_EQ(s.table_vecs.size(), 2u);
  EXPECT_EQ(s.join_vecs.size(), 1u);
  EXPECT_EQ(s.pred_vecs.size(), 2u);
  EXPECT_EQ(static_cast<int>(s.pred_vecs[0].size()), feat.pred_dim());
}

TEST(MscnFeaturizerTest, PerAttributeModeMergesPredicates) {
  workload::ImdbOptions opts;
  opts.num_titles = 200;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(opts);
  ConjunctionOptions copts;
  copts.max_partitions = 8;
  const MscnFeaturizer feat(&db.catalog, &db.graph,
                            MscnFeaturizer::PredMode::kPerAttributeQft, copts);
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  const storage::Table& title = *db.catalog.GetTable("title").value();
  const int year = title.ColumnIndex("production_year").value();
  testutil::AddCompound(q, year, {{{CmpOp::kGe, 1990}, {CmpOp::kLe, 2000}}});
  const MscnSample s = feat.Featurize(q).value();
  EXPECT_EQ(s.pred_vecs.size(), 1u);  // one vector per attribute
  EXPECT_TRUE(s.join_vecs.empty());
}

TEST(MscnFeaturizerTest, PerPredicateModeRejectsDisjunctions) {
  workload::ImdbOptions opts;
  opts.num_titles = 200;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(opts);
  const MscnFeaturizer feat(&db.catalog, &db.graph,
                            MscnFeaturizer::PredMode::kPerPredicate);
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  const storage::Table& title = *db.catalog.GetTable("title").value();
  const int year = title.ColumnIndex("production_year").value();
  testutil::AddCompound(q, year,
                        {{{CmpOp::kLe, 1950}}, {{CmpOp::kGe, 2000}}});
  EXPECT_EQ(feat.Featurize(q).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(MscnFeaturizerTest, UnknownJoinEdgeIsNotFound) {
  workload::ImdbOptions opts;
  opts.num_titles = 100;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(opts);
  query::SchemaGraph empty_graph;  // featurizer knows no edges
  const MscnFeaturizer feat(&db.catalog, &empty_graph,
                            MscnFeaturizer::PredMode::kPerPredicate);
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  q.tables.push_back(query::TableRef{"cast_info", "cast_info"});
  QFCARD_CHECK_OK(db.graph.PopulateJoins(db.catalog, q));
  EXPECT_EQ(feat.Featurize(q).status().code(),
            common::StatusCode::kNotFound);
}

TEST(GroupByAppendTest, RejectsOutOfRangeGroupingAttribute) {
  auto inner = std::make_unique<RangeEncoding>(FeatureSchema(
      {std::vector<AttributeInfo>{AttributeInfo{"x", 0, 9, true, 10}}}));
  const GroupByAppendFeaturizer enc(std::move(inner), 1);
  query::Query q = testutil::SingleTableQuery("t");
  q.group_by.push_back(query::ColumnRef{0, 5});
  EXPECT_EQ(enc.Featurize(q).status().code(),
            common::StatusCode::kOutOfRange);
}

TEST(MscnFeaturizerTest, PerAttributeRangeMode) {
  workload::ImdbOptions opts;
  opts.num_titles = 200;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(opts);
  const MscnFeaturizer feat(&db.catalog, &db.graph,
                            MscnFeaturizer::PredMode::kPerAttributeRange);
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  const storage::Table& title = *db.catalog.GetTable("title").value();
  const int year = title.ColumnIndex("production_year").value();
  testutil::AddCompound(q, year, {{{CmpOp::kGe, 1990}, {CmpOp::kLe, 2000}}});
  const MscnSample s = feat.Featurize(q).value();
  ASSERT_EQ(s.pred_vecs.size(), 1u);
  const GlobalFeatureSchema global = GlobalFeatureSchema::FromCatalog(db.catalog);
  const int num_attrs = global.schema().num_attributes();
  const float lo = s.pred_vecs[0][static_cast<size_t>(num_attrs)];
  const float hi = s.pred_vecs[0][static_cast<size_t>(num_attrs) + 1];
  EXPECT_GT(hi, lo);
  EXPECT_GE(lo, 0.0f);
  EXPECT_LE(hi, 1.0f);
  // Disjunctions are rejected in this mode.
  query::Query disj;
  disj.tables.push_back(query::TableRef{"title", "title"});
  testutil::AddCompound(disj, year, {{{CmpOp::kLe, 1950}}, {{CmpOp::kGe, 2000}}});
  EXPECT_FALSE(feat.Featurize(disj).ok());
}

TEST(MscnFeaturizerTest, PerAttributeModeSupportsDisjunctions) {
  workload::ImdbOptions opts;
  opts.num_titles = 200;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(opts);
  const MscnFeaturizer feat(&db.catalog, &db.graph,
                            MscnFeaturizer::PredMode::kPerAttributeQft);
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  const storage::Table& title = *db.catalog.GetTable("title").value();
  const int year = title.ColumnIndex("production_year").value();
  testutil::AddCompound(q, year,
                        {{{CmpOp::kLe, 1950}}, {{CmpOp::kGe, 2000}}});
  EXPECT_TRUE(feat.Featurize(q).ok());
}

std::shared_ptr<const Partitioner> GoldenEquiDepth(const storage::Table& t,
                                                   int n) {
  return std::make_shared<const Partitioner>(Partitioner::EquiDepth(t, n));
}

std::shared_ptr<const Partitioner> GoldenVOptimal(const storage::Table& t,
                                                  int n) {
  return std::make_shared<const Partitioner>(Partitioner::VOptimal(t, n));
}

// ---------------------------------------------------------------------------
// Golden digests: every QFT over a fixed seeded forest workload
// ---------------------------------------------------------------------------

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

uint64_t HashStatus(uint64_t h, const common::Status& s) {
  const int code = static_cast<int>(s.code());
  return Fnv1a(h, &code, sizeof(code));
}

// Feature bytes of every query, or the status code of a rejected one.
uint64_t DigestFeatures(uint64_t h, const Featurizer& f,
                        const std::vector<query::Query>& queries) {
  std::vector<float> out(static_cast<size_t>(f.dim()));
  for (const query::Query& q : queries) {
    std::fill(out.begin(), out.end(), 0.0f);
    const common::Status s = f.FeaturizeInto(q, out.data());
    h = s.ok() ? Fnv1a(h, out.data(), out.size() * sizeof(float))
               : HashStatus(h, s);
  }
  return h;
}

uint64_t DigestSets(uint64_t h, const std::vector<std::vector<float>>& set) {
  const size_t n = set.size();
  h = Fnv1a(h, &n, sizeof(n));
  for (const std::vector<float>& v : set) {
    h = Fnv1a(h, v.data(), v.size() * sizeof(float));
  }
  return h;
}

uint64_t DigestMscn(uint64_t h, const MscnFeaturizer& f,
                    const std::vector<query::Query>& queries) {
  for (const query::Query& q : queries) {
    const common::StatusOr<MscnSample> s = f.Featurize(q);
    if (!s.ok()) {
      h = HashStatus(h, s.status());
      continue;
    }
    h = DigestSets(h, s.value().table_vecs);
    h = DigestSets(h, s.value().join_vecs);
    h = DigestSets(h, s.value().pred_vecs);
  }
  return h;
}

// The forest generator's integral columns plus one continuous column, so
// both branches of the equi-width index formula are covered.
storage::Table GoldenForest() {
  workload::ForestOptions fo;
  fo.num_rows = 3000;
  fo.num_attributes = 8;
  fo.seed = 11;
  storage::Table t = workload::MakeForestTable(fo);
  std::vector<double> cont;
  const storage::Column& a1 = t.column(0);
  for (size_t r = 0; r < a1.data().size(); ++r) {
    cont.push_back(a1.data()[r] * 0.37 + 0.01 * static_cast<double>(r % 7));
  }
  QFCARD_CHECK_OK(t.AddColumn(testutil::FloatColumn("X", std::move(cont))));
  return t;
}

// The first `count` columns of `t`.
storage::Table FirstColumns(const storage::Table& t, int count) {
  storage::Table out(t.name());
  for (int c = 0; c < count; ++c) {
    const storage::Column& col = t.column(c);
    storage::Column copy(col.name(), col.type());
    copy.AppendBatch(col.data());
    QFCARD_CHECK_OK(out.AddColumn(std::move(copy)));
  }
  return out;
}

// The option variants every partition-based digest runs through.
std::vector<ConjunctionOptions> GoldenVariants(const storage::Table& forest) {
  std::vector<ConjunctionOptions> variants(7);
  variants[1].max_partitions = 8;
  variants[2].append_attr_selectivity = false;
  variants[3].exact_small_domains = false;
  variants[4].use_half_values = false;
  variants[5].max_partitions = 16;
  variants[5].append_attr_selectivity = false;
  variants[5].exact_small_domains = false;
  variants[5].use_half_values = false;
  variants[6].max_partitions = 16;
  variants[6].per_attribute_partitions = SkewAwarePartitions(forest, 16, 4);
  return variants;
}

// Any change to a QFT, a partitioner or an option's effect moves one of
// these digests; a pure refactor must leave every one untouched.
TEST(FeaturizeGoldenTest, ForestWorkloadDigests) {
  const storage::Table forest = GoldenForest();
  const FeatureSchema schema = FeatureSchema::FromTable(forest);
  common::Rng rng(20);
  const std::vector<query::Query> conj = workload::GeneratePredicateWorkload(
      forest, 150, workload::ConjunctiveWorkloadOptions(6), rng);
  workload::PredicateGenOptions mixed_opts = workload::MixedWorkloadOptions(6);
  mixed_opts.in_list_prob = 0.2;
  const std::vector<query::Query> mixed =
      workload::GeneratePredicateWorkload(forest, 150, mixed_opts, rng);

  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(GoldenForest()));

  // Equi-depth covers only the first half of the columns, so the other half
  // exercises the equi-width fallback for attributes without boundaries.
  // MSCN's global attributes are qualified ("forest.A1"); the bare entries
  // match them because each column name occurs in one table only.
  using Named = std::pair<std::string, std::shared_ptr<const Partitioner>>;
  const std::vector<Named> parts = {
      {"equi-width", nullptr},
      {"equi-depth",
       GoldenEquiDepth(FirstColumns(forest, forest.num_columns() / 2), 16)},
      {"v-optimal", GoldenVOptimal(forest, 16)}};
  const std::vector<ConjunctionOptions> variants = GoldenVariants(forest);

  std::vector<std::pair<std::string, uint64_t>> got;
  got.emplace_back("simple",
                   DigestFeatures(kFnvBasis, SingularEncoding(schema), mixed));
  got.emplace_back("range",
                   DigestFeatures(kFnvBasis, RangeEncoding(schema), mixed));
  for (const auto mode : {MscnFeaturizer::PredMode::kPerPredicate,
                          MscnFeaturizer::PredMode::kPerAttributeRange}) {
    const MscnFeaturizer f(&catalog, nullptr, mode);
    uint64_t h = DigestMscn(kFnvBasis, f, conj);
    got.emplace_back(mode == MscnFeaturizer::PredMode::kPerPredicate
                         ? "mscn-pred"
                         : "mscn-range",
                     DigestMscn(h, f, mixed));
  }
  for (const auto& [pname, partitioner] : parts) {
    uint64_t conj_h = kFnvBasis;
    uint64_t comp_h = kFnvBasis;
    uint64_t mscn_h = kFnvBasis;
    for (ConjunctionOptions opts : variants) {
      opts.partitioner = partitioner;
      conj_h = DigestFeatures(conj_h, ConjunctionEncoding(schema, opts), conj);
      const DisjunctionEncoding comp(schema, opts);
      comp_h = DigestFeatures(DigestFeatures(comp_h, comp, conj), comp, mixed);
      const MscnFeaturizer mscn(&catalog, nullptr,
                                MscnFeaturizer::PredMode::kPerAttributeQft,
                                opts);
      mscn_h = DigestMscn(DigestMscn(mscn_h, mscn, conj), mscn, mixed);
    }
    got.emplace_back("conjunctive/" + pname, conj_h);
    got.emplace_back("complex/" + pname, comp_h);
    got.emplace_back("mscn-qft/" + pname, mscn_h);
  }

  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"simple", 0x40efd54ed7aa9063ULL},
      {"range", 0x850ce77d50a8cffcULL},
      {"mscn-pred", 0x63dc388ed2b63f9cULL},
      {"mscn-range", 0xba0067e279d81832ULL},
      {"conjunctive/equi-width", 0xa13a82458d2dac98ULL},
      {"complex/equi-width", 0x200a904cf5037717ULL},
      {"mscn-qft/equi-width", 0x177ea174815fdfcaULL},
      {"conjunctive/equi-depth", 0x9f22058fcad93f78ULL},
      {"complex/equi-depth", 0x657a4a8c197030a7ULL},
      {"mscn-qft/equi-depth", 0x01f309edc5f92297ULL},
      {"conjunctive/v-optimal", 0x886c01e7000d807cULL},
      {"complex/v-optimal", 0x4091a2147df6776aULL},
      {"mscn-qft/v-optimal", 0xb9ee03669aea3813ULL},
  };
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second)
        << got[i].first << ": 0x" << std::hex << got[i].second << "ULL";
  }
}

// ---------------------------------------------------------------------------
// One layout step and one slot resolution for the global featurizers
// ---------------------------------------------------------------------------

// Over a one-table catalog, MSCN's per-attribute QFT mode and the global
// table-bitmap adapter reproduce the local encodings exactly: they resolve
// layouts through the same step, so bare-named histogram boundaries and
// per-attribute budgets reach them too.
TEST(OneLayoutStepTest, GlobalFeaturizersMatchLocalEncodings) {
  const storage::Table forest = GoldenForest();
  const FeatureSchema schema = FeatureSchema::FromTable(forest);
  const int num_attrs = schema.num_attributes();
  common::Rng rng(21);
  const std::vector<query::Query> conj = workload::GeneratePredicateWorkload(
      forest, 60, workload::ConjunctiveWorkloadOptions(6), rng);
  const std::vector<query::Query> mixed = workload::GeneratePredicateWorkload(
      forest, 60, workload::MixedWorkloadOptions(6), rng);
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(GoldenForest()));
  const GlobalFeatureSchema global = GlobalFeatureSchema::FromCatalog(catalog);

  std::vector<ConjunctionOptions> variants = GoldenVariants(forest);
  // The golden budgets only boost two columns whose small domains cap n_A
  // anyway; these differ from max_partitions on every wide attribute.
  ConjunctionOptions& varied = variants.emplace_back();
  for (int a = 0; a < num_attrs; ++a) {
    varied.per_attribute_partitions.push_back(4 + 4 * a);
  }
  for (const std::shared_ptr<const Partitioner>& partitioner :
       {std::shared_ptr<const Partitioner>(), GoldenEquiDepth(forest, 16),
        GoldenVOptimal(forest, 16)}) {
    for (ConjunctionOptions opts : variants) {
      opts.partitioner = partitioner;
      const int sel = opts.append_attr_selectivity ? 1 : 0;
      const DisjunctionEncoding local(schema, opts);
      const MscnFeaturizer mscn(&catalog, nullptr,
                                MscnFeaturizer::PredMode::kPerAttributeQft,
                                opts);
      int max_block = 0;
      for (int a = 0; a < num_attrs; ++a) {
        max_block = std::max(max_block, local.AttrEntries(a) + sel);
      }
      ASSERT_EQ(mscn.pred_dim(), num_attrs + max_block);
      // Each MSCN predicate vector is [one-hot a | block of a, zero-padded].
      for (const query::Query& q : mixed) {
        const MscnSample sample = mscn.Featurize(q).value();
        ASSERT_EQ(sample.pred_vecs.size(), q.predicates.size());
        for (size_t i = 0; i < q.predicates.size(); ++i) {
          query::Query one = q;
          one.predicates = {q.predicates[i]};
          const std::vector<float> block = local.Featurize(one).value();
          const int a = q.predicates[i].col.column;
          std::vector<float> want(static_cast<size_t>(mscn.pred_dim()), 0.0f);
          want[static_cast<size_t>(a)] = 1.0f;
          std::copy_n(block.begin() + local.AttrOffset(a),
                      local.AttrEntries(a) + sel, want.begin() + num_attrs);
          ASSERT_EQ(sample.pred_vecs[i], want);
        }
      }
      // The global adapter is the local encoding plus the table bit.
      const ConjunctionEncoding local_conj(schema, opts);
      const GlobalFeaturizer global_conj(
          &catalog, global,
          std::make_unique<ConjunctionEncoding>(global.schema(), opts));
      const GlobalFeaturizer global_comp(
          &catalog, global,
          std::make_unique<DisjunctionEncoding>(global.schema(), opts));
      for (const auto& [global_enc, local_enc, queries] :
           {std::tuple<const Featurizer*, const Featurizer*,
                       const std::vector<query::Query>*>{&global_conj,
                                                         &local_conj, &conj},
            {&global_comp, &local, &mixed}}) {
        for (const query::Query& q : *queries) {
          std::vector<float> want = local_enc->Featurize(q).value();
          want.push_back(1.0f);
          ASSERT_EQ(global_enc->Featurize(q).value(), want);
        }
      }
    }
  }
}

// A qualified partitioner entry matches its one attribute; a bare entry
// matches a qualified attribute only when no other table has that column.
TEST(OneLayoutStepTest, BareEntriesMatchOnlyUniqueColumnNames) {
  workload::ImdbOptions imdb;
  imdb.num_titles = 200;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(imdb);
  const GlobalFeatureSchema global =
      GlobalFeatureSchema::FromCatalog(db.catalog);
  const FeatureSchema& schema = global.schema();
  ConjunctionOptions opts;
  opts.partitioner = std::make_shared<const Partitioner>(Partitioner::FromState(
      {"production_year", "movie_id", "cast_info.movie_id"},
      {{1950, 1990}, {10, 20, 30, 40}, {5, 50, 500, 5000, 50000, 500000}}));
  const std::vector<PartitionLayout> layouts = ResolveLayouts(schema, opts);
  const std::vector<PartitionLayout> equi_width =
      ResolveLayouts(schema, ConjunctionOptions());
  int movie_ids = 0;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const std::string& name = schema.attr(a).name;
    const PartitionLayout& layout = layouts[static_cast<size_t>(a)];
    if (name.ends_with(".movie_id")) ++movie_ids;
    if (name == "title.production_year") {
      EXPECT_EQ(layout.n, 3);  // unique bare entry
    } else if (name == "cast_info.movie_id") {
      EXPECT_EQ(layout.n, 7);  // qualified entry
    } else {
      // The ambiguous bare "movie_id" matches none of the other four.
      EXPECT_EQ(layout.n, equi_width[static_cast<size_t>(a)].n) << name;
      EXPECT_TRUE(layout.bounds.empty()) << name;
    }
  }
  EXPECT_EQ(movie_ids, 5);

  // MSCN encodes with those layouts: its production_year block equals the
  // global conjunctive encoding's.
  const MscnFeaturizer mscn(&db.catalog, &db.graph,
                            MscnFeaturizer::PredMode::kPerAttributeQft, opts);
  const ConjunctionEncoding conj(schema, opts);
  query::Query q;
  q.tables.push_back(query::TableRef{"title", "title"});
  const int year = db.catalog.GetTable("title").value()->ColumnIndex(
      "production_year").value();
  AddPredicate(q, year, CmpOp::kGe, 1995);
  const int a = global.GlobalIndex(0, year).value();
  ASSERT_EQ(db.catalog.TableIndex("title").value(), 0);
  query::Query global_q = q;
  global_q.predicates[0].col.column = a;
  global_q.predicates[0].disjuncts[0].preds[0].col.column = a;
  const std::vector<float> want = conj.Featurize(global_q).value();
  const std::vector<float> got = mscn.Featurize(q).value().pred_vecs.at(0);
  ASSERT_EQ(conj.AttrEntries(a), 3);
  for (int i = 0; i < conj.AttrEntries(a) + 1; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(schema.num_attributes() + i)],
              want[static_cast<size_t>(conj.AttrOffset(a) + i)])
        << i;
  }
}

// Every global featurizer resolves a query's slots once, up front: a
// predicate slot, predicate column, join slot or join column out of range
// is kOutOfRange, never an out-of-bounds read.
TEST(GlobalSlotsTest, OutOfRangeIndicesAreRejected) {
  workload::ImdbOptions imdb;
  imdb.num_titles = 100;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(imdb);
  query::Query base;
  base.tables.push_back(query::TableRef{"title", "title"});
  base.tables.push_back(query::TableRef{"cast_info", "cast_info"});
  QFCARD_CHECK_OK(db.graph.PopulateJoins(db.catalog, base));
  ASSERT_EQ(base.joins.size(), 1u);
  AddPredicate(base, 1, CmpOp::kGe, 1990);

  std::vector<query::Query> bad;
  for (const query::ColumnRef ref :
       {query::ColumnRef{2, 0}, query::ColumnRef{-1, 0},
        query::ColumnRef{0, 99}, query::ColumnRef{1, -1}}) {
    query::Query pred = base;
    pred.predicates[0].col = ref;
    bad.push_back(pred);
    query::Query left = base;
    left.joins[0].left = ref;
    bad.push_back(left);
    query::Query right = base;
    right.joins[0].right = ref;
    bad.push_back(right);
  }

  const GlobalFeatureSchema global =
      GlobalFeatureSchema::FromCatalog(db.catalog);
  const GlobalFeaturizer adapter(
      &db.catalog, global,
      std::make_unique<DisjunctionEncoding>(global.schema()));
  for (const MscnFeaturizer::PredMode mode :
       {MscnFeaturizer::PredMode::kPerPredicate,
        MscnFeaturizer::PredMode::kPerAttributeRange,
        MscnFeaturizer::PredMode::kPerAttributeQft}) {
    const MscnFeaturizer mscn(&db.catalog, &db.graph, mode);
    ASSERT_TRUE(mscn.Featurize(base).ok());
    for (size_t i = 0; i < bad.size(); ++i) {
      EXPECT_EQ(mscn.Featurize(bad[i]).status().code(),
                common::StatusCode::kOutOfRange)
          << "mode " << static_cast<int>(mode) << ", query " << i;
    }
  }
  ASSERT_TRUE(adapter.Featurize(base).ok());
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(adapter.Featurize(bad[i]).status().code(),
              common::StatusCode::kOutOfRange)
        << "query " << i;
  }
}

}  // namespace
}  // namespace qfcard::featurize
