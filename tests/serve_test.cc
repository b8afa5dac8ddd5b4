#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/feedback_bus.h"
#include "adapt/retrainer.h"
#include "common/random.h"
#include "estimators/registry.h"
#include "estimators/true_card.h"
#include "gtest/gtest.h"
#include "serve/bundle.h"
#include "serve/model_store.h"
#include "serve/serving_estimator.h"
#include "storage/catalog.h"
#include "workload/forest.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"

namespace qfcard::serve {
namespace {

std::string MakeTempRoot(const std::string& name) {
  const std::string root = ::testing::TempDir() + "qfcard_serve_" + name;
  std::filesystem::remove_all(root);
  return root;
}

ModelBundle FakeBundle(uint8_t tag) {
  ModelBundle bundle;
  bundle.estimator = "gb+conjunctive";
  bundle.featurizer = {tag, 1, 2, 3};
  bundle.model = {tag, 9, 8, 7, 6};
  return bundle;
}

TEST(ModelStore, PublishLoadListRoundTrip) {
  ModelStore store(MakeTempRoot("roundtrip"));

  auto empty = store.ListVersions();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(store.LoadLatest().ok());

  auto v1 = store.Publish(FakeBundle(11));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1u);
  auto v2 = store.Publish(FakeBundle(22));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);

  auto versions = store.ListVersions();
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<uint64_t>{1, 2}));

  auto loaded = store.Load(1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->estimator, "gb+conjunctive");
  EXPECT_EQ(loaded->featurizer, FakeBundle(11).featurizer);
  EXPECT_EQ(loaded->model, FakeBundle(11).model);

  auto latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->first, 2u);
  EXPECT_EQ(latest->second.model, FakeBundle(22).model);

  EXPECT_EQ(store.Load(3).status().code(), common::StatusCode::kNotFound);
}

TEST(ModelStore, SecondStoreOnSameRootContinuesVersions) {
  const std::string root = MakeTempRoot("reopen");
  {
    ModelStore store(root);
    ASSERT_TRUE(store.Publish(FakeBundle(1)).ok());
    ASSERT_TRUE(store.Publish(FakeBundle(2)).ok());
  }
  ModelStore reopened(root);
  auto v = reopened.Publish(FakeBundle(3));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 3u);
}

TEST(ModelStore, RejectsEmptyEstimatorName) {
  ModelStore store(MakeTempRoot("badname"));
  ModelBundle bundle = FakeBundle(1);
  bundle.estimator = "";
  EXPECT_FALSE(store.Publish(bundle).ok());
}

TEST(ModelStore, DetectsOnDiskCorruption) {
  const std::string root = MakeTempRoot("corrupt");
  ModelStore store(root);
  ASSERT_TRUE(store.Publish(FakeBundle(7)).ok());
  const std::string dir = root + "/v000001";

  // Flip one byte of the model payload: the manifest CRC must catch it.
  {
    std::fstream f(dir + "/model.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(0);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(store.Load(1).ok());

  // Restore via re-publish, then truncate a payload: size check must catch.
  ASSERT_TRUE(store.Publish(FakeBundle(7)).ok());
  std::filesystem::resize_file(root + "/v000002/featurizer.bin", 1);
  EXPECT_FALSE(store.Load(2).ok());

  // A garbage manifest is a clean error, not UB.
  ASSERT_TRUE(store.Publish(FakeBundle(7)).ok());
  {
    std::ofstream f(root + "/v000003/MANIFEST", std::ios::trunc);
    f << "not a manifest\n";
  }
  EXPECT_FALSE(store.Load(3).ok());

  // A version directory with no manifest at all is NotFound.
  std::filesystem::create_directories(root + "/v000009");
  EXPECT_EQ(store.Load(9).status().code(), common::StatusCode::kNotFound);
}

TEST(ModelStore, RetainLatestRemovesOldVersionsWithoutReuse) {
  ModelStore store(MakeTempRoot("retain"));
  for (uint8_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(store.Publish(FakeBundle(i)).ok());
  }
  auto removed = store.RetainLatest(1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2);
  auto versions = store.ListVersions();
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, (std::vector<uint64_t>{3}));
  // GC never frees version numbers for reuse.
  auto next = store.Publish(FakeBundle(4));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 4u);
}

/// Deterministic stand-in model for swap/retrain scenarios.
class ConstEstimator : public est::CardinalityEstimator {
 public:
  explicit ConstEstimator(double value) : value_(value) {}
  common::StatusOr<double> EstimateCard(const query::Query&) const override {
    return value_;
  }
  std::string name() const override { return "const"; }

 private:
  const double value_;
};

TEST(ServingEstimatorTest, ForwardsAndSwaps) {
  ServingEstimator serving(std::make_shared<ConstEstimator>(42.0),
                           /*version=*/7);
  EXPECT_EQ(serving.ActiveVersion(), 7u);
  EXPECT_EQ(serving.SwapCount(), 1u);
  EXPECT_EQ(serving.name(), "serving:const");

  query::Query q;
  auto one = serving.EstimateCard(q);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, 42.0);
  auto batch = serving.EstimateBatch(std::vector<query::Query>{q, q, q});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*batch, (std::vector<double>{42.0, 42.0, 42.0}));

  // The active model is immutable behind the front.
  EXPECT_EQ(serving.Train({}, {}, 0.1, 1).code(),
            common::StatusCode::kFailedPrecondition);

  serving.Swap(std::make_shared<ConstEstimator>(5.0), /*version=*/8);
  EXPECT_EQ(serving.ActiveVersion(), 8u);
  EXPECT_EQ(serving.SwapCount(), 2u);
  auto swapped = serving.EstimateCard(q);
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(*swapped, 5.0);
}

/// Forest workload shared by the retrainer scenarios.
struct RetrainFixture {
  storage::Catalog catalog;
  std::vector<workload::LabeledQuery> labeled;
};

const RetrainFixture& GetRetrainFixture() {
  static const RetrainFixture* fixture = [] {
    auto* f = new RetrainFixture();
    workload::ForestOptions forest;
    forest.num_rows = 3000;
    forest.num_attributes = 6;
    forest.seed = 99;
    storage::Table table = workload::MakeForestTable(forest);
    common::Rng rng(13);
    const std::vector<query::Query> queries =
        workload::GeneratePredicateWorkload(
            table, 220, workload::ConjunctiveWorkloadOptions(/*max_attrs=*/3),
            rng);
    auto labeled = workload::LabelOnTable(table, queries, /*drop_empty=*/true);
    QFCARD_CHECK_OK(labeled.status());
    f->labeled = std::move(labeled).value();
    QFCARD_CHECK_OK(f->catalog.AddTable(std::move(table)));
    return f;
  }();
  return *fixture;
}

/// Publishes the first `n` labeled fixture queries (all by default).
void PublishFeedback(const RetrainFixture& fx, adapt::FeedbackBus* bus,
                     size_t n = SIZE_MAX) {
  for (size_t i = 0; i < std::min(n, fx.labeled.size()); ++i) {
    adapt::FeedbackRecord record;
    record.query = fx.labeled[i].query;
    record.true_card = fx.labeled[i].card;
    bus->Publish(std::move(record));
  }
}

adapt::RetrainerOptions SmallRetrainerOptions() {
  adapt::RetrainerOptions opts;
  opts.estimator_name = "gb+conjunctive";
  opts.estimator_opts.gbm.num_trees = 24;
  opts.estimator_opts.gbm.max_depth = 4;
  opts.min_feedback = 32;
  opts.seed = 20260806;
  return opts;
}

TEST(RetrainerTest, InsufficientFeedbackIsANoOp) {
  const RetrainFixture& fx = GetRetrainFixture();
  ServingEstimator serving(std::make_shared<ConstEstimator>(1.0), 0);
  adapt::FeedbackBus bus;
  adapt::Retrainer retrainer(&serving, &fx.catalog, &bus,
                             SmallRetrainerOptions());
  PublishFeedback(fx, &bus, 5);
  auto result = retrainer.RetrainNow();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->attempted);
  EXPECT_FALSE(result->promoted);
  EXPECT_EQ(result->feedback_used, 5u);
  EXPECT_NE(result->detail.find("insufficient"), std::string::npos);
  EXPECT_EQ(serving.SwapCount(), 1u);
}

TEST(RetrainerTest, PromotesImprovingCandidateThroughStore) {
  const RetrainFixture& fx = GetRetrainFixture();
  ServingEstimator serving(std::make_shared<ConstEstimator>(1.0), 0);
  ModelStore store(MakeTempRoot("promote"));
  adapt::FeedbackBus bus;
  adapt::RetrainerOptions opts = SmallRetrainerOptions();
  opts.store = &store;
  adapt::Retrainer retrainer(&serving, &fx.catalog, &bus, opts);
  PublishFeedback(fx, &bus);

  auto result = retrainer.RetrainNow();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->attempted);
  ASSERT_TRUE(result->promoted)
      << "candidate p95 " << result->candidate_p95 << " vs stale "
      << result->stale_p95;
  EXPECT_LT(result->candidate_p95, result->stale_p95);
  EXPECT_EQ(result->version, 1u);
  EXPECT_EQ(serving.ActiveVersion(), 1u);
  EXPECT_EQ(serving.SwapCount(), 2u);
  EXPECT_EQ(serving.name(), "serving:" + serving.Active()->name());

  // The promoted model is on disk and reloadable into a working estimator.
  auto latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->first, 1u);
  auto reloaded = EstimatorFromBundle(latest->second, fx.catalog);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto estimate = (*reloaded)->EstimateCard(fx.labeled.front().query);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(*estimate, 1.0);
}

TEST(RetrainerTest, RejectsNonImprovingCandidate) {
  const RetrainFixture& fx = GetRetrainFixture();
  // The oracle's holdout p95 is exactly 1; no candidate can strictly beat
  // it, so the retrainer must refuse to swap.
  ServingEstimator serving(
      std::make_shared<est::TrueCardEstimator>(&fx.catalog), /*version=*/5);
  ModelStore store(MakeTempRoot("reject"));
  adapt::FeedbackBus bus;
  adapt::RetrainerOptions opts = SmallRetrainerOptions();
  opts.estimator_name = "linear+simple";
  opts.store = &store;
  adapt::Retrainer retrainer(&serving, &fx.catalog, &bus, opts);
  PublishFeedback(fx, &bus);

  auto result = retrainer.RetrainNow();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->attempted);
  EXPECT_FALSE(result->promoted);
  EXPECT_EQ(result->stale_p95, 1.0);
  EXPECT_NE(result->detail.find("rejected"), std::string::npos);
  // No swap, no publish: the stale-but-better model keeps serving.
  EXPECT_EQ(serving.ActiveVersion(), 5u);
  EXPECT_EQ(serving.SwapCount(), 1u);
  auto versions = store.ListVersions();
  ASSERT_TRUE(versions.ok());
  EXPECT_TRUE(versions->empty());
}

TEST(RetrainerTest, FeedbackRingOverwritesOldest) {
  // The retrainer trains on the bus's bounded window, not on everything ever
  // published; min_feedback (32) clamps to the 16-record capacity.
  const RetrainFixture& fx = GetRetrainFixture();
  ServingEstimator serving(std::make_shared<ConstEstimator>(1.0), 0);
  adapt::FeedbackBusOptions bus_opts;
  bus_opts.capacity = 16;
  adapt::FeedbackBus bus(bus_opts);
  adapt::Retrainer retrainer(&serving, &fx.catalog, &bus,
                             SmallRetrainerOptions());
  PublishFeedback(fx, &bus);
  ASSERT_GT(bus.published(), 16u);
  auto result = retrainer.RetrainNow();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->attempted);
  EXPECT_EQ(result->feedback_used, 16u);
}

TEST(RetrainerTest, ConcurrentRetrainNowIsSerialized) {
  // Two callers retrain at once while a third keeps estimating: runs take
  // turns on the retrain lock, so every promotion is one swap and the
  // serving version ends at the newest promoted one.
  const RetrainFixture& fx = GetRetrainFixture();
  ServingEstimator serving(std::make_shared<ConstEstimator>(1.0), 0);
  adapt::FeedbackBus bus;
  adapt::Retrainer retrainer(&serving, &fx.catalog, &bus,
                             SmallRetrainerOptions());
  PublishFeedback(fx, &bus);

  std::atomic<bool> done{false};
  std::atomic<int> estimate_errors{0};
  std::thread reader([&] {
    const query::Query& q = fx.labeled.front().query;
    while (!done.load()) {
      if (!serving.EstimateCard(q).ok()) estimate_errors.fetch_add(1);
    }
  });
  common::StatusOr<adapt::RetrainResult> results[2] = {
      common::Status::Internal("not run"), common::Status::Internal("not run")};
  std::thread first([&] { results[0] = retrainer.RetrainNow(); });
  std::thread second([&] { results[1] = retrainer.RetrainNow(); });
  first.join();
  second.join();
  done.store(true);
  reader.join();

  uint64_t promotions = 0;
  uint64_t newest = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->attempted);
    if (result->promoted) ++promotions;
    newest = std::max(newest, result->version);
  }
  EXPECT_EQ(serving.SwapCount(), 1u + promotions);
  EXPECT_EQ(serving.ActiveVersion(), newest);
  EXPECT_EQ(estimate_errors.load(), 0);
}

}  // namespace
}  // namespace qfcard::serve
