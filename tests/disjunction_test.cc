#include "featurize/disjunction.h"

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "gtest/gtest.h"
#include "query/executor.h"
#include "test_util.h"

namespace qfcard::featurize {
namespace {

using query::CmpOp;
using testutil::AddCompound;
using testutil::AddPredicate;
using testutil::SingleTableQuery;

FeatureSchema PaperSchema() {
  std::vector<AttributeInfo> attrs(3);
  attrs[0] = AttributeInfo{"A", -9, 50, true, 60};
  attrs[1] = AttributeInfo{"B", 0, 115, true, 116};
  attrs[2] = AttributeInfo{"C", 1, 2, true, 2};
  return FeatureSchema(std::move(attrs));
}

ConjunctionOptions PaperOptions() {
  ConjunctionOptions opts;
  opts.max_partitions = 12;
  opts.append_attr_selectivity = false;
  return opts;
}

// The worked example of Section 3.3:
// (A > -2 AND A <= 30 AND A != 7 OR A >= 42) AND B >= 39.5 encodes to
//   A: 0 1/2 1 1/2 1 1 1 1/2 0 0 1/2 1
//   B: 0 0 0 0 1/2 1 1 1 1 1 1 1
//   C: 1 1
TEST(DisjunctionEncodingTest, PaperWorkedExample) {
  const DisjunctionEncoding enc(PaperSchema(), PaperOptions());
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0,
              {{{CmpOp::kGt, -2}, {CmpOp::kLe, 30}, {CmpOp::kNe, 7}},
               {{CmpOp::kGe, 42}}});
  AddPredicate(q, 1, CmpOp::kGe, 39.5);
  const std::vector<float> v = enc.Featurize(q).value();
  const std::vector<float> expected = {
      0, 0.5f, 1, 0.5f, 1, 1, 1, 0.5f, 0, 0, 0.5f, 1,  // compound on A
      0, 0,    0, 0,    0.5f, 1, 1, 1, 1, 1, 1,    1,  // B >= 39.5
      1, 1,                                            // C: no predicate
  };
  ASSERT_EQ(v.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_FLOAT_EQ(v[i], expected[i]) << "entry " << i;
  }
}

TEST(DisjunctionEncodingTest, PerClauseVectorsOfPaperExample) {
  // The example's intermediate vectors, checked via single-clause queries.
  const DisjunctionEncoding enc(PaperSchema(), PaperOptions());
  query::Query first = SingleTableQuery("t");
  AddCompound(first, 0, {{{CmpOp::kGt, -2}, {CmpOp::kLe, 30}, {CmpOp::kNe, 7}}});
  const std::vector<float> v1 = enc.Featurize(first).value();
  const std::vector<float> expected1 = {0, 0.5f, 1, 0.5f, 1, 1, 1, 0.5f,
                                        0, 0, 0, 0};
  for (size_t i = 0; i < expected1.size(); ++i) {
    EXPECT_FLOAT_EQ(v1[i], expected1[i]) << "entry " << i;
  }
  query::Query second = SingleTableQuery("t");
  AddPredicate(second, 0, CmpOp::kGe, 42);
  const std::vector<float> v2 = enc.Featurize(second).value();
  const std::vector<float> expected2 = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5f, 1};
  for (size_t i = 0; i < expected2.size(); ++i) {
    EXPECT_FLOAT_EQ(v2[i], expected2[i]) << "entry " << i;
  }
}

TEST(DisjunctionEncodingTest, MergeIsEntrywiseMax) {
  const DisjunctionEncoding enc(PaperSchema(), PaperOptions());
  query::Query a = SingleTableQuery("t");
  AddCompound(a, 0, {{{CmpOp::kLe, 5}}});
  query::Query b = SingleTableQuery("t");
  AddCompound(b, 0, {{{CmpOp::kGe, 30}}});
  query::Query both = SingleTableQuery("t");
  AddCompound(both, 0, {{{CmpOp::kLe, 5}}, {{CmpOp::kGe, 30}}});
  const std::vector<float> va = enc.Featurize(a).value();
  const std::vector<float> vb = enc.Featurize(b).value();
  const std::vector<float> vboth = enc.Featurize(both).value();
  for (int i = 0; i < enc.AttrEntries(0); ++i) {
    EXPECT_FLOAT_EQ(vboth[static_cast<size_t>(i)],
                    std::max(va[static_cast<size_t>(i)],
                             vb[static_cast<size_t>(i)]));
  }
}

TEST(DisjunctionEncodingTest, EqualsConjunctionEncodingOnConjunctiveQueries) {
  // The paper relies on this for JOB-light: without disjunctions the two
  // QFTs produce identical feature vectors.
  ConjunctionOptions opts;
  opts.max_partitions = 16;
  const ConjunctionEncoding conj(PaperSchema(), opts);
  const DisjunctionEncoding comp(PaperSchema(), opts);
  ASSERT_EQ(conj.dim(), comp.dim());
  common::Rng rng(55);
  for (int iter = 0; iter < 30; ++iter) {
    query::Query q = SingleTableQuery("t");
    for (int a = 0; a < 3; ++a) {
      if (rng.Bernoulli(0.4)) continue;
      std::vector<std::pair<CmpOp, double>> preds;
      const int n = static_cast<int>(rng.UniformInt(1, 3));
      for (int p = 0; p < n; ++p) {
        preds.push_back({static_cast<CmpOp>(rng.UniformInt(0, 5)),
                         static_cast<double>(rng.UniformInt(-9, 50))});
      }
      AddCompound(q, a, {preds});
    }
    EXPECT_EQ(conj.Featurize(q).value(), comp.Featurize(q).value());
  }
}

// Byte-level equality, down to the sign of a zero selectivity: on a
// continuous domain starting at 0, `x <= -0` leaves a width of -0.0.
TEST(DisjunctionEncodingTest, NegativeZeroLiteralEncodesBitIdentically) {
  const FeatureSchema schema(
      std::vector<AttributeInfo>{AttributeInfo{"x", 0.0, 10.0, false, 0}});
  ConjunctionOptions opts;
  opts.max_partitions = 4;
  const ConjunctionEncoding conj(schema, opts);
  const DisjunctionEncoding comp(schema, opts);
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kLe, -0.0);
  const std::vector<float> a = conj.Featurize(q).value();
  const std::vector<float> b = comp.Featurize(q).value();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  EXPECT_FALSE(std::signbit(a.back()));  // selectivity +0.0
}

TEST(DisjunctionEncodingTest, MoreDisjunctsOnlyIncreaseEntries) {
  // Additional disjunctions make queries only less selective: entries are
  // monotonically non-decreasing in the number of clauses.
  const DisjunctionEncoding enc(PaperSchema(), PaperOptions());
  common::Rng rng(77);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::vector<std::pair<CmpOp, double>>> clauses;
    clauses.push_back({{CmpOp::kGe, static_cast<double>(rng.UniformInt(-9, 50))},
                       {CmpOp::kLe, static_cast<double>(rng.UniformInt(-9, 50))}});
    query::Query q1 = SingleTableQuery("t");
    AddCompound(q1, 0, clauses);
    const std::vector<float> v1 = enc.Featurize(q1).value();
    clauses.push_back({{CmpOp::kGe, static_cast<double>(rng.UniformInt(-9, 50))}});
    query::Query q2 = SingleTableQuery("t");
    AddCompound(q2, 0, clauses);
    const std::vector<float> v2 = enc.Featurize(q2).value();
    for (size_t i = 0; i < v1.size(); ++i) {
      EXPECT_GE(v2[i], v1[i] - 1e-6) << "entry " << i;
    }
  }
}

TEST(DisjunctionEncodingTest, SelectivityAppendixTakesMaxOverClauses) {
  ConjunctionOptions opts;
  opts.max_partitions = 12;
  opts.append_attr_selectivity = true;
  const DisjunctionEncoding enc(PaperSchema(), opts);
  query::Query q = SingleTableQuery("t");
  // Clause 1: A in [-9, 2] -> 12/60; clause 2: A in [21, 50] -> 30/60.
  AddCompound(q, 0, {{{CmpOp::kLe, 2}}, {{CmpOp::kGe, 21}}});
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_NEAR(v[static_cast<size_t>(enc.AttrOffset(0) + enc.AttrEntries(0))],
              30.0 / 60.0, 1e-6);
}

// Lossless reconstruction for mixed queries at full resolution (the
// Section 3.3 claim that Limited Disjunction Encoding converges to a
// lossless featurization of mixed queries).
class MixedLosslessnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MixedLosslessnessTest, FullResolutionReconstructsCount) {
  common::Rng rng(GetParam());
  storage::Table t("t");
  const int64_t rows = 300;
  for (int c = 0; c < 2; ++c) {
    std::vector<double> values;
    for (int64_t r = 0; r < rows; ++r) {
      values.push_back(static_cast<double>(rng.UniformInt(0, 15)));
    }
    QFCARD_CHECK_OK(
        t.AddColumn(testutil::IntColumn("c" + std::to_string(c), values)));
  }
  const FeatureSchema schema = FeatureSchema::FromTable(t);
  ConjunctionOptions opts;
  opts.max_partitions = 16;
  opts.append_attr_selectivity = false;
  const DisjunctionEncoding enc(schema, opts);

  for (int iter = 0; iter < 20; ++iter) {
    query::Query q = SingleTableQuery("t");
    for (int a = 0; a < 2; ++a) {
      std::vector<std::vector<std::pair<CmpOp, double>>> clauses;
      const int n_clauses = static_cast<int>(rng.UniformInt(1, 3));
      for (int cl = 0; cl < n_clauses; ++cl) {
        std::vector<std::pair<CmpOp, double>> preds;
        const int n = static_cast<int>(rng.UniformInt(1, 3));
        for (int p = 0; p < n; ++p) {
          preds.push_back({static_cast<CmpOp>(rng.UniformInt(0, 5)),
                           static_cast<double>(rng.UniformInt(0, 15))});
        }
        clauses.push_back(std::move(preds));
      }
      AddCompound(q, a, clauses);
    }
    const std::vector<float> v = enc.Featurize(q).value();
    const std::vector<PartitionLayout> layouts = ResolveLayouts(schema, opts);
    int64_t reconstructed = 0;
    for (int64_t r = 0; r < rows; ++r) {
      bool ok = true;
      for (int a = 0; a < 2 && ok; ++a) {
        const int idx = layouts[static_cast<size_t>(a)].IndexOf(
            schema.attr(a), t.column(a).Get(r));
        ok = v[static_cast<size_t>(enc.AttrOffset(a) + idx)] == 1.0f;
      }
      if (ok) ++reconstructed;
    }
    EXPECT_EQ(reconstructed, query::Executor::Count(t, q).value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedLosslessnessTest,
                         ::testing::Values(201u, 202u, 203u));

}  // namespace
}  // namespace qfcard::featurize
