#include "eval/harness.h"

#include <algorithm>
#include <sstream>

#include "common/stats.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "eval/summary.h"
#include "featurize/conjunction.h"
#include "gtest/gtest.h"
#include "ml/gbm.h"
#include "test_util.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"

namespace qfcard::eval {
namespace {

TEST(SummaryTest, SummarizeByGroupBuckets) {
  const std::vector<double> errors{1, 2, 3, 10, 20};
  const std::vector<int> groups{1, 1, 2, 2, 2};
  const auto grouped = SummarizeByGroup(errors, groups);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_DOUBLE_EQ(grouped.at(1).mean, 1.5);
  EXPECT_DOUBLE_EQ(grouped.at(2).mean, 11.0);
  EXPECT_EQ(grouped.at(2).count, 3u);
}

TEST(SummaryTest, SummarizeByGroupEmpty) {
  EXPECT_TRUE(SummarizeByGroup({}, {}).empty());
}

TEST(SummaryTest, BucketizeGroupsMapsToLargestNotAbove) {
  const std::vector<int> buckets{1, 3, 5};
  EXPECT_EQ(BucketizeGroups({1, 2, 3, 4, 5, 9}, buckets),
            (std::vector<int>{1, 1, 3, 3, 5, 5}));
  // Values below the first bucket clamp to it.
  EXPECT_EQ(BucketizeGroups({0}, buckets), (std::vector<int>{1}));
}

TEST(ReportTest, TablePrinterAlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "2"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  // Each printed data line ends with the value column.
  EXPECT_NE(text.find("long-name  2"), std::string::npos);
}

TEST(ReportTest, FormatQPrecisionTiers) {
  EXPECT_EQ(FormatQ(1.234), "1.23");
  EXPECT_EQ(FormatQ(123.4), "123.4");
  EXPECT_EQ(FormatQ(1234.8), "1235");
}

TEST(ReportTest, FormatBoxContainsQuantiles) {
  ml::QErrorSummary s;
  s.p01 = 1.0;
  s.p25 = 1.5;
  s.median = 2.0;
  s.p75 = 3.0;
  s.p99 = 10.0;
  s.max = 20.0;
  const std::string box = FormatBox(s);
  EXPECT_NE(box.find("[2.00]"), std::string::npos);
  EXPECT_NE(box.find("max 20.00"), std::string::npos);
}

class HarnessTest : public ::testing::Test {
 protected:
  HarnessTest() : table_(testutil::SmallTable()) {
    // Deterministic tiny workload over the small table.
    common::Rng rng(5);
    workload::PredicateGenOptions gen;
    gen.max_attrs = 2;
    gen.max_not_equals = 1;
    const std::vector<query::Query> queries =
        workload::GeneratePredicateWorkload(table_, 120, gen, rng);
    labeled_ = workload::LabelOnTable(table_, queries, true).value();
  }

  storage::Table table_;
  std::vector<workload::LabeledQuery> labeled_;
};

TEST_F(HarnessTest, FeaturizeWorkloadShapes) {
  featurize::ConjunctionOptions opts;
  opts.max_partitions = 8;
  const featurize::ConjunctionEncoding featurizer(
      featurize::FeatureSchema::FromTable(table_), opts);
  const std::vector<workload::LabeledQuery> train(labeled_.begin(),
                                                  labeled_.end() - 20);
  const std::vector<workload::LabeledQuery> test(labeled_.end() - 20,
                                                 labeled_.end());
  const auto data_or = FeaturizeWorkload(featurizer, train, test, 0.2, 7);
  ASSERT_TRUE(data_or.ok()) << data_or.status();
  const FeaturizedData& data = data_or.value();
  EXPECT_EQ(data.test.num_rows(), 20);
  EXPECT_EQ(data.train.num_rows() + data.valid.num_rows(),
            static_cast<int>(train.size()));
  EXPECT_GT(data.valid.num_rows(), 0);
  EXPECT_EQ(data.train.dim(), featurizer.dim());
  EXPECT_EQ(data.test_cards.size(), 20u);
  // Labels are log2 of the cardinalities.
  EXPECT_NEAR(ml::LabelToCard(data.test.y[0]), data.test_cards[0], 1e-3);
}

TEST_F(HarnessTest, RunQftModelProducesConsistentResult) {
  featurize::ConjunctionOptions opts;
  opts.max_partitions = 8;
  const featurize::ConjunctionEncoding featurizer(
      featurize::FeatureSchema::FromTable(table_), opts);
  ml::GbmParams params;
  params.num_trees = 20;
  params.min_samples_leaf = 5;
  ml::GradientBoosting model(params);
  const std::vector<workload::LabeledQuery> train(labeled_.begin(),
                                                  labeled_.end() - 25);
  const std::vector<workload::LabeledQuery> test(labeled_.end() - 25,
                                                 labeled_.end());
  const auto result_or = RunQftModel(featurizer, model, train, test);
  ASSERT_TRUE(result_or.ok()) << result_or.status();
  const RunResult& r = result_or.value();
  EXPECT_EQ(r.estimates.size(), test.size());
  EXPECT_EQ(r.qerrors.size(), test.size());
  EXPECT_EQ(r.summary.count, test.size());
  EXPECT_GT(r.model_bytes, 0u);
  EXPECT_GE(r.train_seconds, 0.0);
  for (size_t i = 0; i < test.size(); ++i) {
    EXPECT_GE(r.estimates[i], 1.0);
    EXPECT_DOUBLE_EQ(r.qerrors[i], ml::QError(test[i].card, r.estimates[i]));
  }
}

TEST_F(HarnessTest, GroupKeyHelpers) {
  const std::vector<int> attrs = NumAttributesOf(labeled_);
  const std::vector<int> preds = NumPredicatesOf(labeled_);
  ASSERT_EQ(attrs.size(), labeled_.size());
  ASSERT_EQ(preds.size(), labeled_.size());
  for (size_t i = 0; i < labeled_.size(); ++i) {
    EXPECT_EQ(attrs[i], labeled_[i].query.NumAttributes());
    EXPECT_EQ(preds[i], labeled_[i].query.NumSimplePredicates());
    EXPECT_GE(preds[i], attrs[i]);  // every attribute has >= 1 predicate
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  obs::ScopedTimer timer;
  // Burn a little CPU.
  volatile double acc = 0;
  for (int i = 0; i < 100000; ++i) acc = acc + i;
  EXPECT_GE(timer.Seconds(), 0.0);
  EXPECT_LT(timer.Seconds(), 10.0);
}

TEST(SummaryTest, SummarizeByGroupMatchesFromErrors) {
  // Offline q-error summaries have one implementation: every group equals
  // FromErrors over exactly that group's errors, and a group holding every
  // query equals the overall summary (no bucket interpolation anywhere).
  std::vector<double> errors;
  std::vector<int> groups;
  errors.reserve(400);
  for (int i = 0; i < 400; ++i) {
    // Values in [1.0, 11.0) spread by a full-period multiplicative walk.
    errors.push_back(1.0 + static_cast<double>((i * 37) % 1000) / 100.0);
    groups.push_back(i % 3);
  }
  const auto expect_same = [](const ml::QErrorSummary& a,
                              const ml::QErrorSummary& b) {
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.p01, b.p01);
    EXPECT_EQ(a.p25, b.p25);
    EXPECT_EQ(a.median, b.median);
    EXPECT_EQ(a.p75, b.p75);
    EXPECT_EQ(a.p90, b.p90);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.max, b.max);
  };
  const auto grouped = SummarizeByGroup(errors, groups);
  ASSERT_EQ(grouped.size(), 3u);
  for (const auto& [key, summary] : grouped) {
    std::vector<double> members;
    for (size_t i = 0; i < errors.size(); ++i) {
      if (groups[i] == key) members.push_back(errors[i]);
    }
    expect_same(summary, ml::QErrorSummary::FromErrors(members));
    EXPECT_LE(summary.p95, summary.max);
  }

  const auto all = SummarizeByGroup(errors, std::vector<int>(400, 7));
  ASSERT_EQ(all.size(), 1u);
  expect_same(all.at(7), ml::QErrorSummary::FromErrors(errors));
  // Spot-check against common::QuantileSorted on the sorted sample.
  std::vector<double> sorted = errors;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(all.at(7).p95, common::QuantileSorted(sorted, 0.95));
}

}  // namespace
}  // namespace qfcard::eval
