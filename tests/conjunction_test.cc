#include "featurize/conjunction.h"

#include <cmath>

#include "common/random.h"
#include "featurize/disjunction.h"
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

ConjunctionOptions PaperOptions(bool attr_sel) {
  ConjunctionOptions opts;
  opts.max_partitions = 12;
  opts.append_attr_selectivity = attr_sel;
  return opts;
}

TEST(ConjunctionEncodingTest, LayoutAndDims) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  // n_A = 12, n_B = 12, n_C = min(12, 2) = 2.
  EXPECT_EQ(enc.AttrEntries(0), 12);
  EXPECT_EQ(enc.AttrEntries(1), 12);
  EXPECT_EQ(enc.AttrEntries(2), 2);
  EXPECT_EQ(enc.dim(), 26);
  EXPECT_EQ(enc.AttrOffset(1), 12);
  EXPECT_EQ(enc.AttrOffset(2), 24);
}

TEST(ConjunctionEncodingTest, DimsWithSelectivityAppendix) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(true));
  EXPECT_EQ(enc.dim(), 29);  // one extra entry per attribute
  EXPECT_EQ(enc.AttrOffset(1), 13);
}

// The worked example of Section 3.2: n = 12 and
// A < 7 AND B >= 30 AND B <= 100 AND B <> 66 encodes to
//   A: 1 1 1 1/2 0 0 0 0 0 0 0 0
//   B: 0 0 0 1/2 1 1 1/2 1 1 1 1/2 0
//   C: 1 1
TEST(ConjunctionEncodingTest, PaperWorkedExample) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kLt, 7);
  AddCompound(q, 1,
              {{{CmpOp::kGe, 30}, {CmpOp::kLe, 100}, {CmpOp::kNe, 66}}});
  const std::vector<float> v = enc.Featurize(q).value();
  const std::vector<float> expected = {
      1, 1, 1, 0.5f, 0, 0, 0, 0, 0, 0, 0, 0,          // A < 7
      0, 0, 0, 0.5f, 1, 1, 0.5f, 1, 1, 1, 0.5f, 0,    // 30<=B<=100, B<>66
      1, 1,                                            // C: no predicate
  };
  ASSERT_EQ(v.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_FLOAT_EQ(v[i], expected[i]) << "entry " << i;
  }
}

TEST(ConjunctionEncodingTest, SelectivityAppendixValues) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(true));
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kLt, 7);
  AddCompound(q, 1,
              {{{CmpOp::kGe, 30}, {CmpOp::kLe, 100}, {CmpOp::kNe, 66}}});
  const std::vector<float> v = enc.Featurize(q).value();
  // A < 7 integral: qualifying domain [-9, 6] = 16 values of 60.
  EXPECT_NEAR(v[static_cast<size_t>(enc.AttrOffset(0) + 12)], 16.0 / 60.0,
              1e-6);
  // B in [30, 100] minus one exclusion: 70 of 116 values.
  EXPECT_NEAR(v[static_cast<size_t>(enc.AttrOffset(1) + 12)], 70.0 / 116.0,
              1e-6);
  // C unconstrained -> 1.
  EXPECT_FLOAT_EQ(v[static_cast<size_t>(enc.AttrOffset(2) + 2)], 1.0f);
}

TEST(ConjunctionEncodingTest, NoPredicatesIsAllOnes) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  const query::Query q = SingleTableQuery("t");
  const std::vector<float> v = enc.Featurize(q).value();
  for (const float x : v) EXPECT_FLOAT_EQ(x, 1.0f);
}

TEST(ConjunctionEncodingTest, EqualityKeepsOnlyOnePartition) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kEq, 7);  // partition index 3
  const std::vector<float> v = enc.Featurize(q).value();
  for (int i = 0; i < 12; ++i) {
    EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], i == 3 ? 0.5f : 0.0f);
  }
}

TEST(ConjunctionEncodingTest, SmallDomainUsesExactBinaryEntries) {
  // C has domain {1, 2} with one entry per value: exact 0/1 mode.
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 2, CmpOp::kEq, 2);
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_FLOAT_EQ(v[static_cast<size_t>(enc.AttrOffset(2))], 0.0f);
  EXPECT_FLOAT_EQ(v[static_cast<size_t>(enc.AttrOffset(2) + 1)], 1.0f);

  query::Query q2 = SingleTableQuery("t");
  AddPredicate(q2, 2, CmpOp::kNe, 1);
  const std::vector<float> v2 = enc.Featurize(q2).value();
  EXPECT_FLOAT_EQ(v2[static_cast<size_t>(enc.AttrOffset(2))], 0.0f);
  EXPECT_FLOAT_EQ(v2[static_cast<size_t>(enc.AttrOffset(2) + 1)], 1.0f);
}

TEST(ConjunctionEncodingTest, ExactModeStrictInequalities) {
  std::vector<AttributeInfo> attrs(1);
  attrs[0] = AttributeInfo{"x", 0, 7, true, 8};
  const ConjunctionEncoding enc(FeatureSchema(std::move(attrs)),
                                PaperOptions(false));
  ASSERT_EQ(enc.AttrEntries(0), 8);
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0, {{{CmpOp::kGt, 2}, {CmpOp::kLt, 6}}});
  const std::vector<float> v = enc.Featurize(q).value();
  // Qualifying values {3, 4, 5}.
  const std::vector<float> expected = {0, 0, 0, 1, 1, 1, 0, 0};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_FLOAT_EQ(v[i], expected[i]) << "entry " << i;
  }
}

TEST(ConjunctionEncodingTest, MorePredicatesOnlyDecreaseEntries) {
  // Monotonicity: adding a conjunct can only decrease entries
  // (Algorithm 1 sets entries to 0 or 1/2, never raises them).
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  common::Rng rng(31);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::pair<CmpOp, double>> preds;
    query::Query q = SingleTableQuery("t");
    const int n_preds = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < n_preds; ++i) {
      preds.push_back({static_cast<CmpOp>(rng.UniformInt(0, 5)),
                       static_cast<double>(rng.UniformInt(-9, 50))});
    }
    AddCompound(q, 0, {preds});
    const std::vector<float> base = enc.Featurize(q).value();
    query::Query q2 = SingleTableQuery("t");
    preds.push_back({static_cast<CmpOp>(rng.UniformInt(0, 5)),
                     static_cast<double>(rng.UniformInt(-9, 50))});
    AddCompound(q2, 0, {preds});
    const std::vector<float> more = enc.Featurize(q2).value();
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_LE(more[i], base[i] + 1e-6) << "entry " << i;
    }
  }
}

TEST(ConjunctionEncodingTest, RejectsDisjunctions) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0, {{{CmpOp::kLe, 0}}, {{CmpOp::kGe, 40}}});
  EXPECT_EQ(enc.Featurize(q).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ConjunctionEncodingTest, HalfValueAblationRoundsUp) {
  ConjunctionOptions opts = PaperOptions(false);
  opts.use_half_values = false;
  const ConjunctionEncoding enc(PaperSchema(), opts);
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kLt, 7);
  const std::vector<float> v = enc.Featurize(q).value();
  EXPECT_FLOAT_EQ(v[3], 1.0f);  // partially qualifying partition becomes 1
  EXPECT_FLOAT_EQ(v[4], 0.0f);
}

TEST(ConjunctionEncodingTest, OutOfDomainPredicates) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  // A = 1000 (outside [-9, 50]): nothing qualifies.
  {
    query::Query q = SingleTableQuery("t");
    AddPredicate(q, 0, CmpOp::kEq, 1000);
    const std::vector<float> v = enc.Featurize(q).value();
    for (int i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 0.0f);
  }
  // A >= 1000: nothing qualifies.
  {
    query::Query q = SingleTableQuery("t");
    AddPredicate(q, 0, CmpOp::kGe, 1000);
    const std::vector<float> v = enc.Featurize(q).value();
    for (int i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 0.0f);
  }
  // A <= -1000: nothing qualifies.
  {
    query::Query q = SingleTableQuery("t");
    AddPredicate(q, 0, CmpOp::kLe, -1000);
    const std::vector<float> v = enc.Featurize(q).value();
    for (int i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 0.0f);
  }
  // A >= -1000 (below min): everything qualifies.
  {
    query::Query q = SingleTableQuery("t");
    AddPredicate(q, 0, CmpOp::kGe, -1000);
    const std::vector<float> v = enc.Featurize(q).value();
    for (int i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 1.0f);
  }
  // A <= 1000 (above max): everything qualifies.
  {
    query::Query q = SingleTableQuery("t");
    AddPredicate(q, 0, CmpOp::kLe, 1000);
    const std::vector<float> v = enc.Featurize(q).value();
    for (int i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 1.0f);
  }
  // A <> 1000 (absent value): everything still qualifies.
  {
    query::Query q = SingleTableQuery("t");
    AddPredicate(q, 0, CmpOp::kNe, 1000);
    const std::vector<float> v = enc.Featurize(q).value();
    for (int i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 1.0f);
  }
}

// B in [0, 115]: an upper bound far past max(B) keeps the whole domain,
// even when the literal's partition index does not fit in an int.
TEST(ConjunctionEncodingTest, FarOutOfDomainUpperBoundsKeepEveryPartition) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  for (const CmpOp op : {CmpOp::kLt, CmpOp::kLe}) {
    for (const double value : {1e11, 1e15}) {
      query::Query q = SingleTableQuery("t");
      AddPredicate(q, 1, op, value);
      const std::vector<float> v = enc.Featurize(q).value();
      for (int i = 0; i < 12; ++i) {
        EXPECT_FLOAT_EQ(v[static_cast<size_t>(enc.AttrOffset(1) + i)], 1.0f)
            << "B " << (op == CmpOp::kLt ? "<" : "<=") << " " << value
            << ", entry " << i;
      }
    }
  }
}

// A NaN literal has no partition; the partition-based encodings reject it.
TEST(ConjunctionEncodingTest, RejectsNanLiteral) {
  const ConjunctionEncoding conj(PaperSchema(), PaperOptions(true));
  const DisjunctionEncoding comp(PaperSchema(), PaperOptions(true));
  for (const CmpOp op : {CmpOp::kEq, CmpOp::kLt, CmpOp::kGe, CmpOp::kNe}) {
    query::Query q = SingleTableQuery("t");
    AddPredicate(q, 1, op, std::nan(""));
    EXPECT_EQ(conj.Featurize(q).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(comp.Featurize(q).status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

TEST(ConjunctionEncodingTest, ContradictoryClauseIsAllZero) {
  const ConjunctionEncoding enc(PaperSchema(), PaperOptions(false));
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0, {{{CmpOp::kGe, 40}, {CmpOp::kLe, 0}}});
  const std::vector<float> v = enc.Featurize(q).value();
  for (int i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 0.0f);
}

TEST(ConjunctionEncodingTest, PerAttributePartitionBudgets) {
  ConjunctionOptions opts = PaperOptions(false);
  opts.per_attribute_partitions = {24, 6, 12};  // overrides max_partitions
  const ConjunctionEncoding enc(PaperSchema(), opts);
  EXPECT_EQ(enc.AttrEntries(0), 24);
  EXPECT_EQ(enc.AttrEntries(1), 6);
  EXPECT_EQ(enc.AttrEntries(2), 2);  // still capped by C's domain {1, 2}
  EXPECT_EQ(enc.dim(), 32);

  // Indexing must honor the per-attribute budget: with 24 partitions over
  // [-9, 50], value 7 lands at floor(16/60*24) = 6, and the encoding of
  // A < 7 must flip exactly there.
  query::Query q = SingleTableQuery("t");
  AddPredicate(q, 0, CmpOp::kLt, 7);
  const std::vector<float> v = enc.Featurize(q).value();
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 1.0f);
  EXPECT_FLOAT_EQ(v[6], 0.5f);
  for (int i = 7; i < 24; ++i) EXPECT_FLOAT_EQ(v[static_cast<size_t>(i)], 0.0f);
}

TEST(SkewAwarePartitionsTest, BoostsSkewedColumns) {
  storage::Table t("t");
  std::vector<double> skewed;
  std::vector<double> uniform;
  common::Rng rng(91);
  for (int i = 0; i < 1000; ++i) {
    skewed.push_back(i < 600 ? 7.0 : static_cast<double>(rng.UniformInt(0, 99)));
    uniform.push_back(static_cast<double>(rng.UniformInt(0, 99)));
  }
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("skewed", skewed)));
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("uniform", uniform)));
  const std::vector<int> budgets = SkewAwarePartitions(t, 32, 2, 0.2);
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_EQ(budgets[0], 64);  // boosted
  EXPECT_EQ(budgets[1], 32);
}

// ---------------------------------------------------------------------------
// Lemma 3.2: with one partition per distinct integral value, the encoding is
// lossless — the query result can be reconstructed exactly from the vector.
// ---------------------------------------------------------------------------

class LosslessnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LosslessnessTest, FullResolutionVectorReconstructsCount) {
  common::Rng rng(GetParam());
  // Table with 3 attributes over domain [0, 19].
  storage::Table t("t");
  const int64_t rows = 400;
  for (int c = 0; c < 3; ++c) {
    std::vector<double> values;
    for (int64_t r = 0; r < rows; ++r) {
      values.push_back(static_cast<double>(rng.UniformInt(0, 19)));
    }
    QFCARD_CHECK_OK(
        t.AddColumn(testutil::IntColumn("c" + std::to_string(c), values)));
  }
  const FeatureSchema schema = FeatureSchema::FromTable(t);
  ConjunctionOptions opts;
  opts.max_partitions = 32;  // >= domain size 20 -> exact mode
  opts.append_attr_selectivity = false;
  const ConjunctionEncoding enc(schema, opts);

  for (int iter = 0; iter < 20; ++iter) {
    query::Query q = SingleTableQuery("t");
    for (int a = 0; a < 3; ++a) {
      if (rng.Bernoulli(0.3)) continue;
      std::vector<std::pair<CmpOp, double>> preds;
      const int n_preds = static_cast<int>(rng.UniformInt(1, 3));
      for (int p = 0; p < n_preds; ++p) {
        preds.push_back({static_cast<CmpOp>(rng.UniformInt(0, 5)),
                         static_cast<double>(rng.UniformInt(0, 19))});
      }
      AddCompound(q, a, {preds});
    }
    const std::vector<float> v = enc.Featurize(q).value();
    // Reconstruct: value x of attribute a qualifies iff its entry is 1.
    const std::vector<PartitionLayout> layouts = ResolveLayouts(schema, opts);
    int64_t reconstructed = 0;
    for (int64_t r = 0; r < rows; ++r) {
      bool ok = true;
      for (int a = 0; a < 3 && ok; ++a) {
        const int idx = layouts[static_cast<size_t>(a)].IndexOf(
            schema.attr(a), t.column(a).Get(r));
        ok = v[static_cast<size_t>(enc.AttrOffset(a) + idx)] == 1.0f;
      }
      if (ok) ++reconstructed;
    }
    const int64_t truth = query::Executor::Count(t, q).value();
    EXPECT_EQ(reconstructed, truth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LosslessnessTest,
                         ::testing::Values(101u, 102u, 103u, 104u));

// Convergence: once n exceeds the (integral) domain size, the feature
// vector's per-attribute content stops changing (Lemma 3.2's "does not
// change anymore").
TEST(ConvergenceTest, VectorStabilizesBeyondDomainResolution) {
  std::vector<AttributeInfo> attrs(1);
  attrs[0] = AttributeInfo{"x", 0, 15, true, 16};
  const FeatureSchema schema{std::move(attrs)};
  query::Query q = SingleTableQuery("t");
  AddCompound(q, 0, {{{CmpOp::kGe, 3}, {CmpOp::kLe, 11}, {CmpOp::kNe, 7}}});
  ConjunctionOptions o16;
  o16.max_partitions = 16;
  o16.append_attr_selectivity = false;
  ConjunctionOptions o64 = o16;
  o64.max_partitions = 64;
  const ConjunctionEncoding enc16(schema, o16);
  const ConjunctionEncoding enc64(schema, o64);
  // n_A caps at the domain size (16), so both produce identical vectors.
  EXPECT_EQ(enc16.dim(), enc64.dim());
  EXPECT_EQ(enc16.Featurize(q).value(), enc64.Featurize(q).value());
}

}  // namespace
}  // namespace qfcard::featurize
