#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/adaptive_estimator.h"
#include "adapt/feedback_bus.h"
#include "common/thread_pool.h"
#include "estimators/postgres.h"
#include "estimators/registry.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "featurize/partitioner.h"
#include "ml/dataset.h"
#include "ml/gbm.h"
#include "query/query.h"
#include "serve/fss.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/serving_estimator.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/table.h"
#include "test_util.h"

// Race-stress suite: many OS threads hammering the shared pieces of the
// batch pipeline — one estimator/featurizer shared across callers, the
// estimator registry, the global thread pool — so the QFCARD_SANITIZE=thread
// CI job can prove the concurrency claims of docs/batch_api.md dynamically
// (TSan sees real interleavings, not annotations). Thread counts and batch
// sizes are kept small enough that the instrumented build stays fast.

namespace qfcard {
namespace {

constexpr int kOsThreads = 8;
constexpr int kBatch = 48;

storage::Table StressTable() {
  storage::Table t("stress");
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(i % 97);
    b.push_back((i * 7) % 101);
    c.push_back(0.5 * (i % 13));
  }
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("a", a)));
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("b", b)));
  QFCARD_CHECK_OK(t.AddColumn(testutil::FloatColumn("c", c)));
  return t;
}

storage::Catalog StressCatalog() {
  storage::Catalog cat;
  QFCARD_CHECK_OK(cat.AddTable(StressTable()));
  return cat;
}

// Deterministic workload: query i is a function of i only. With
// `mixed`, every even query adds a disjunctive compound predicate (only the
// kComplex QFT accepts those); without, all predicates are simple ranges.
std::vector<query::Query> StressQueries(int n, bool mixed = true) {
  std::vector<query::Query> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    query::Query q = testutil::SingleTableQuery("stress");
    testutil::AddPredicate(q, i % 3, query::CmpOp::kLe,
                           static_cast<double>(i % 50));
    if (mixed && i % 2 == 0) {
      testutil::AddCompound(
          q, (i + 1) % 3,
          {{{query::CmpOp::kLe, static_cast<double>(i % 20)}},
           {{query::CmpOp::kGe, static_cast<double>(60 + i % 30)}}});
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

// Runs `body` on kOsThreads OS threads at once and propagates test failures.
void RunConcurrently(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kOsThreads);
  for (int t = 0; t < kOsThreads; ++t) {
    threads.emplace_back([&body, t] { body(t); });
  }
  for (std::thread& t : threads) t.join();
}

class RaceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Force a real pool regardless of QFCARD_THREADS so pool-internal state
    // is exercised even in the serial CI matrix leg.
    common::SetGlobalThreads(4);
  }
  void TearDown() override {
    common::SetGlobalThreads(common::ThreadPoolSizeFromEnv());
  }
};

TEST_F(RaceStressTest, ConcurrentEstimateBatchOnSharedEstimator) {
  const storage::Catalog catalog = StressCatalog();
  const std::vector<query::Query> queries = StressQueries(kBatch);
  for (const char* const name : {"postgres", "true"}) {
    auto built = est::MakeEstimator(name, catalog);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::unique_ptr<est::CardinalityEstimator> estimator =
        std::move(built).value();
    auto reference = estimator->EstimateBatch(queries);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    std::vector<std::vector<double>> per_thread(kOsThreads);
    RunConcurrently([&](int t) {
      auto result = estimator->EstimateBatch(queries);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      per_thread[static_cast<size_t>(t)] = std::move(result).value();
    });
    for (const std::vector<double>& result : per_thread) {
      EXPECT_EQ(result, reference.value()) << name;
    }
  }
}

TEST_F(RaceStressTest, ConcurrentEstimateBatchOnSharedSamplingEstimator) {
  const storage::Catalog catalog = StressCatalog();
  const std::vector<query::Query> queries = StressQueries(kBatch);
  auto built = est::MakeEstimator("sampling", catalog);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::unique_ptr<est::CardinalityEstimator> estimator =
      std::move(built).value();
  // Sampling draws fresh tickets per call, so concurrent callers see
  // different (but each valid) estimates; the point here is the shared
  // atomic ticket counter under TSan, not value equality.
  RunConcurrently([&](int) {
    auto result = estimator->EstimateBatch(queries);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const double est : result.value()) EXPECT_GE(est, 1.0);
  });
}

TEST_F(RaceStressTest, ConcurrentFeaturizeBatchOnSharedFeaturizer) {
  const storage::Table table = StressTable();
  for (const featurize::QftKind kind :
       {featurize::QftKind::kRange, featurize::QftKind::kComplex}) {
    // kRange only accepts conjunctions of simple ranges; kComplex takes the
    // full mixed workload.
    const std::vector<query::Query> queries = StressQueries(
        kBatch, /*mixed=*/kind == featurize::QftKind::kComplex);
    const std::unique_ptr<featurize::Featurizer> featurizer =
        featurize::MakeFeaturizer(
            kind, featurize::FeatureSchema::FromTable(table), {});
    const size_t row = static_cast<size_t>(featurizer->dim());
    std::vector<float> reference(queries.size() * row, 0.0f);
    ASSERT_TRUE(featurizer->FeaturizeBatch(queries, reference.data()).ok());
    RunConcurrently([&](int) {
      std::vector<float> mine(queries.size() * row, 0.0f);
      auto status = featurizer->FeaturizeBatch(queries, mine.data());
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(mine, reference);
    });
  }
}

TEST_F(RaceStressTest, ConcurrentMakeEstimatorRegistryHits) {
  const storage::Catalog catalog = StressCatalog();
  const std::vector<query::Query> queries = StressQueries(8);
  RunConcurrently([&](int t) {
    const char* const names[] = {"postgres", "sampling", "true"};
    for (int round = 0; round < 3; ++round) {
      auto built = est::MakeEstimator(names[(t + round) % 3], catalog);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      auto result = built.value()->EstimateBatch(queries);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  });
}

TEST_F(RaceStressTest, ConcurrentParallelForOnOnePool) {
  RunConcurrently([&](int) {
    constexpr int64_t kN = 2000;
    std::vector<int64_t> slots(kN, 0);
    common::GlobalPool().ParallelFor(kN,
                                     [&](int64_t i) { slots[i] = 3 * i; });
    for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(slots[i], 3 * i);
  });
}

TEST_F(RaceStressTest, NestedParallelForOnOnePool) {
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 400;
  std::vector<std::vector<int64_t>> slots(
      kOuter, std::vector<int64_t>(kInner, 0));
  common::GlobalPool().ParallelFor(kOuter, [&](int64_t o) {
    common::GlobalPool().ParallelFor(
        kInner, [&, o](int64_t i) { slots[o][i] = o * kInner + i; });
  });
  for (int64_t o = 0; o < kOuter; ++o) {
    for (int64_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(slots[o][i], o * kInner + i);
    }
  }
}

TEST_F(RaceStressTest, ConcurrentLazyColumnStats) {
  const storage::Table table = StressTable();
  std::vector<storage::ColumnStats> seen(kOsThreads);
  RunConcurrently([&](int t) {
    // First caller computes, the rest race the cache fill.
    const storage::ColumnStats& stats = table.column(t % 3).GetStats();
    seen[static_cast<size_t>(t)] = stats;
  });
  for (int t = 0; t < kOsThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)].rows, 2000);
    EXPECT_GT(seen[static_cast<size_t>(t)].distinct, 0);
  }
}

// Every synopsis field and partitioner boundary, flattened for comparison.
std::vector<double> StatisticsOf(const storage::Catalog& catalog,
                                 int64_t kind) {
  std::vector<double> out;
  const storage::Table& table = catalog.table(0);
  switch (kind % 4) {
    case 0: {
      const est::PostgresStyleEstimator pg =
          est::PostgresStyleEstimator::Build(&catalog).value();
      for (int c = 0; c < table.num_columns(); ++c) {
        const est::ColumnSynopsis& s = pg.synopsis(0, c);
        out.insert(out.end(), s.hist_bounds.begin(), s.hist_bounds.end());
        for (const auto& [value, freq] : s.mcv) {
          out.push_back(value);
          out.push_back(freq);
        }
        out.push_back(static_cast<double>(s.distinct));
        out.push_back(s.min);
        out.push_back(s.max);
      }
      break;
    }
    case 1:
    case 2: {
      const featurize::Partitioner p =
          kind % 4 == 1 ? featurize::Partitioner::EquiDepth(table, 8)
                        : featurize::Partitioner::VOptimal(table, 8);
      for (const std::vector<double>& b : p.boundaries()) {
        out.insert(out.end(), b.begin(), b.end());
        out.push_back(-1.0);
      }
      break;
    }
    default: {
      const std::vector<int> budgets =
          featurize::SkewAwarePartitions(table, 8, 2, 0.05);
      out.assign(budgets.begin(), budgets.end());
    }
  }
  return out;
}

// Pool tasks build synopses and partitioners on a catalog whose column
// stats are not computed yet, so they race the one count pass per column.
TEST_F(RaceStressTest, ConcurrentStatisticsBuildsOnAFreshCatalog) {
  constexpr int64_t kBuilds = 24;
  std::vector<std::vector<double>> reference;
  {
    const storage::Catalog serial = StressCatalog();
    for (int64_t k = 0; k < 4; ++k) {
      reference.push_back(StatisticsOf(serial, k));
    }
  }
  const storage::Catalog fresh = StressCatalog();
  std::vector<std::vector<double>> built(kBuilds);
  common::GlobalPool().ParallelFor(kBuilds, [&](int64_t i) {
    built[static_cast<size_t>(i)] = StatisticsOf(fresh, i);
  });
  for (int64_t i = 0; i < kBuilds; ++i) {
    EXPECT_EQ(built[static_cast<size_t>(i)],
              reference[static_cast<size_t>(i % 4)])
        << "build " << i;
  }
}

TEST_F(RaceStressTest, HotSwapUnderConcurrentEstimateBatch) {
  const storage::Catalog catalog = StressCatalog();
  const std::vector<query::Query> queries = StressQueries(kBatch);

  // Two deterministic models with distinct outputs, so every batch result
  // must equal one of the two reference vectors exactly — any mixture means
  // a request saw a torn publication.
  auto built_a = est::MakeEstimator("postgres", catalog);
  auto built_b = est::MakeEstimator("true", catalog);
  ASSERT_TRUE(built_a.ok() && built_b.ok());
  std::shared_ptr<const est::CardinalityEstimator> model_a =
      std::move(built_a).value();
  std::shared_ptr<const est::CardinalityEstimator> model_b =
      std::move(built_b).value();
  const std::vector<double> ref_a = model_a->EstimateBatch(queries).value();
  const std::vector<double> ref_b = model_b->EstimateBatch(queries).value();
  ASSERT_NE(ref_a, ref_b);

  serve::ServingEstimator serving(model_a, /*version=*/1);
  constexpr int kSwaps = 200;
  std::atomic<bool> done{false};
  // Thread 0 is the control plane: it hammers Swap between the two models
  // while every other thread streams batches through the data plane.
  RunConcurrently([&](int t) {
    if (t == 0) {
      for (int i = 0; i < kSwaps; ++i) {
        const bool to_b = i % 2 == 0;
        serving.Swap(to_b ? model_b : model_a,
                     /*version=*/static_cast<uint64_t>(2 + i));
      }
      done.store(true, std::memory_order_release);
      return;
    }
    int batches = 0;
    while (!done.load(std::memory_order_acquire) || batches < 3) {
      auto result = serving.EstimateBatch(queries);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const bool is_a = result.value() == ref_a;
      const bool is_b = result.value() == ref_b;
      ASSERT_TRUE(is_a || is_b)
          << "batch " << batches << " on thread " << t
          << " mixed two models mid-flight";
      ++batches;
    }
  });

  // After the writer finished: the last swap (i = kSwaps-1, odd) installed
  // model_a, and every publication was counted.
  EXPECT_EQ(serving.EstimateBatch(queries).value(), ref_a);
  EXPECT_EQ(serving.ActiveVersion(), static_cast<uint64_t>(kSwaps + 1));
  EXPECT_EQ(serving.SwapCount(), static_cast<uint64_t>(kSwaps + 1));
}

// Answers every query with one constant, so a response's estimate names
// the model that computed it.
class ConstantEstimator : public est::CardinalityEstimator {
 public:
  explicit ConstantEstimator(double value) : value_(value) {}
  common::StatusOr<double> EstimateCard(const query::Query&) const override {
    return value_;
  }
  std::string name() const override { return "constant"; }

 private:
  const double value_;
};

TEST_F(RaceStressTest, VersionLabelMatchesTheModelThatAnswered) {
  // Odd versions serve model_a (10), even versions model_b (20): every
  // response's estimate must match its model_version. A version read apart
  // from the model pin would pair one model's estimate with the other's
  // label whenever a Swap lands in between.
  const auto model_a = std::make_shared<const ConstantEstimator>(10.0);
  const auto model_b = std::make_shared<const ConstantEstimator>(20.0);
  serve::ServingEstimator serving(model_a, /*version=*/1);
  std::vector<est::EstimateRequest> requests(4);
  for (est::EstimateRequest& request : requests) {
    request.query = testutil::SingleTableQuery("stress");
  }
  constexpr int kSwaps = 20000;
  std::atomic<bool> done{false};
  RunConcurrently([&](int t) {
    if (t == 0) {
      for (int i = 0; i < kSwaps; ++i) {
        const auto version = static_cast<uint64_t>(2 + i);
        serving.Swap(version % 2 == 0 ? model_b : model_a, version);
      }
      done.store(true, std::memory_order_release);
      return;
    }
    int calls = 0;
    while (!done.load(std::memory_order_acquire) || calls < 3) {
      auto result = serving.EstimateRequests(requests);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const est::EstimateResponse& response : result.value()) {
        ASSERT_EQ(response.estimate,
                  response.model_version % 2 == 0 ? 20.0 : 10.0)
            << "call " << calls << " on thread " << t << " labeled version "
            << response.model_version;
      }
      ++calls;
    }
  });
  EXPECT_EQ(serving.ActiveVersion(), static_cast<uint64_t>(kSwaps + 1));
  EXPECT_EQ(serving.SwapCount(), static_cast<uint64_t>(kSwaps + 1));
}

TEST_F(RaceStressTest, ServerHotSwapUnderConcurrentClientTraffic) {
  const storage::Catalog catalog = StressCatalog();
  // One fixed shape, so every client hits the same route and every
  // micro-batch coalesces requests from several threads. Conjunctive only:
  // both reference models answer them deterministically.
  const std::vector<query::Query> queries = [&] {
    std::vector<query::Query> qs;
    for (int i = 0; i < kBatch; ++i) {
      query::Query q = testutil::SingleTableQuery("stress");
      testutil::AddCompound(
          q, 0,
          {{{query::CmpOp::kGe, static_cast<double>(i % 40)},
            {query::CmpOp::kLe, static_cast<double>(40 + i % 50)}}});
      qs.push_back(std::move(q));
    }
    return qs;
  }();

  auto built_a = est::MakeEstimator("postgres", catalog);
  auto built_b = est::MakeEstimator("true", catalog);
  ASSERT_TRUE(built_a.ok() && built_b.ok());
  std::shared_ptr<const est::CardinalityEstimator> model_a =
      std::move(built_a).value();
  std::shared_ptr<const est::CardinalityEstimator> model_b =
      std::move(built_b).value();
  const std::vector<double> ref_a = model_a->EstimateBatch(queries).value();
  const std::vector<double> ref_b = model_b->EstimateBatch(queries).value();

  serve::ModelRouterOptions ropts;
  ropts.factory = [&model_a](uint64_t, const query::Query&)
      -> common::StatusOr<std::shared_ptr<serve::ServingEstimator>> {
    return std::make_shared<serve::ServingEstimator>(model_a, 1);
  };
  serve::ModelRouter router(std::move(ropts));
  // Open the route before the traffic starts so the swapper has a target.
  ASSERT_TRUE(router.Resolve(queries[0]).ok());
  const std::shared_ptr<serve::ServingEstimator> route =
      router.FindRoute(serve::FeatureSpaceHash(queries[0]));
  ASSERT_NE(route, nullptr);

  serve::EstimationServer server(&router);
  server.Start();

  std::vector<est::EstimateRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) requests[i].query = queries[i];

  constexpr int kSwaps = 120;
  std::atomic<bool> done{false};
  // Thread 0 hammers Swap on the live route; every other thread streams
  // request batches through the server. A response may be computed by
  // either model (batches split across swaps), but each individual answer
  // must equal one model's output exactly — anything else means a torn
  // publication or a cross-request mixup in the batching queue.
  RunConcurrently([&](int t) {
    if (t == 0) {
      for (int i = 0; i < kSwaps; ++i) {
        route->Swap(i % 2 == 0 ? model_b : model_a,
                    static_cast<uint64_t>(2 + i));
      }
      done.store(true, std::memory_order_release);
      return;
    }
    int rounds = 0;
    while (!done.load(std::memory_order_acquire) || rounds < 2) {
      const auto responses = server.EstimateMany(requests);
      for (size_t i = 0; i < responses.size(); ++i) {
        ASSERT_TRUE(responses[i].ok())
            << responses[i].status().ToString();
        const double estimate = responses[i].value().estimate;
        ASSERT_TRUE(estimate == ref_a[i] || estimate == ref_b[i])
            << "thread " << t << " round " << rounds << " query " << i
            << " answered by neither model";
      }
      ++rounds;
    }
  });
  server.Stop();

  // The last swap (i = kSwaps-1, odd) installed model_a; a drained server
  // answers with it.
  EXPECT_EQ(route->EstimateBatch(queries).value(), ref_a);
  EXPECT_GE(server.BatchesFlushed(), 1u);
}

TEST_F(RaceStressTest, FeedbackBusPublishVersusPredictOnAdaptiveFront) {
  const storage::Catalog catalog = StressCatalog();
  const std::vector<query::Query> queries = StressQueries(kBatch);

  auto built_base = est::MakeEstimator("postgres", catalog);
  auto built_ml = est::MakeEstimator("true", catalog);
  ASSERT_TRUE(built_base.ok() && built_ml.ok());
  const std::shared_ptr<const est::CardinalityEstimator> base =
      std::move(built_base).value();
  const std::shared_ptr<const est::CardinalityEstimator> model =
      std::move(built_ml).value();
  // The ML tier answers with executor truth, so truths double as feedback.
  const std::vector<double> truths = model->EstimateBatch(queries).value();

  const auto serving = std::make_shared<serve::ServingEstimator>(model, 1);
  const std::shared_ptr<const featurize::Featurizer> featurizer =
      featurize::MakeFeaturizer(
          featurize::QftKind::kComplex,
          featurize::FeatureSchema::FromTable(StressTable()), {});

  adapt::AdaptiveOptions aopts;
  aopts.mode = adapt::AdaptiveMode::kAuto;
  adapt::AdaptiveEstimator adaptive(base, serving, featurizer, aopts);
  adaptive.TrackServingVersion(serving.get());
  adapt::FeedbackBus bus;
  adaptive.ConnectTo(&bus);

  // Thread 0 hot-swaps the serving model (same model, fresh versions) so the
  // arbiter's reset-on-swap path races the learners; even threads publish
  // feedback into the bus; odd threads predict on the shared front. With
  // concurrent publishers the feedback order — and therefore the estimates —
  // is unordered; the claims under TSan are no data races, every estimate
  // ok and tier-stamped, and no record lost between bus and learners.
  constexpr int kSwaps = 60;
  RunConcurrently([&](int t) {
    if (t == 0) {
      for (int i = 0; i < kSwaps; ++i) {
        serving->Swap(model, static_cast<uint64_t>(2 + i));
      }
      return;
    }
    if (t % 2 == 0) {
      for (size_t i = 0; i < queries.size(); ++i) {
        adapt::FeedbackRecord record;
        record.query = queries[i];
        record.true_card = truths[i];
        bus.Publish(std::move(record));
      }
      return;
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      est::EstimateRequest request;
      request.query = queries[i];
      auto response = adaptive.Estimate(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_GE(response.value().estimate, 1.0);
      EXPECT_NE(response.value().tier, est::ServedTier::kNone);
      EXPECT_FALSE(response.value().tier_reason.empty());
    }
  });
  adaptive.Disconnect();

  // Synchronous fan-out: every published record reached the learners, from
  // exactly the publisher threads (1 swapper, 3 publishers, 4 predictors).
  const uint64_t expected =
      static_cast<uint64_t>(kOsThreads / 2 - 1) * queries.size();
  EXPECT_EQ(bus.published(), expected);
  EXPECT_EQ(adaptive.ingested(), expected);

  // A post-disconnect publish is invisible to the front.
  adapt::FeedbackRecord late;
  late.query = queries[0];
  late.true_card = truths[0];
  bus.Publish(std::move(late));
  EXPECT_EQ(adaptive.ingested(), expected);
}

// A GB fit on one thread (its tree levels, binning and prediction loops
// run on the global pool) while the other threads stream EstimateBatch
// through the same pool: whoever finds the pool busy runs inline, and both
// sides still produce the bytes they produce alone.
TEST_F(RaceStressTest, GbFitBesideConcurrentEstimateBatch) {
  std::vector<std::vector<float>> xs;
  std::vector<float> ys;
  for (int i = 0; i < 600; ++i) {
    std::vector<float> x;
    for (int c = 0; c < 6; ++c) {
      x.push_back(static_cast<float>((i * (c + 3) + c) % (17 + 4 * c)));
    }
    ys.push_back(0.5f * x[0] - 0.25f * x[3] + (x[5] > 10.0f ? 2.0f : 0.0f));
    xs.push_back(std::move(x));
  }
  const ml::Dataset train = ml::Dataset::FromVectors(xs, ys).value();
  ml::GbmParams params;
  params.num_trees = 30;
  const auto fit_bytes = [&] {
    ml::GradientBoosting model(params);
    EXPECT_TRUE(model.Fit(train, nullptr).ok());
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(model.Serialize(&bytes).ok());
    return bytes;
  };
  const std::vector<uint8_t> reference_model = fit_bytes();

  const storage::Catalog catalog = StressCatalog();
  const std::vector<query::Query> queries = StressQueries(kBatch);
  auto built = est::MakeEstimator("postgres", catalog);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::unique_ptr<est::CardinalityEstimator> estimator =
      std::move(built).value();
  const std::vector<double> reference =
      estimator->EstimateBatch(queries).value();

  std::atomic<bool> done{false};
  RunConcurrently([&](int t) {
    if (t == 0) {
      EXPECT_EQ(fit_bytes(), reference_model);
      done.store(true, std::memory_order_release);
      return;
    }
    int batches = 0;
    while (!done.load(std::memory_order_acquire) || batches < 3) {
      auto result = estimator->EstimateBatch(queries);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value(), reference) << "thread " << t;
      ++batches;
    }
  });
}

TEST_F(RaceStressTest, ParallelForExceptionSmallestIndexWinsUnderContention) {
  for (int round = 0; round < 4; ++round) {
    try {
      common::GlobalPool().ParallelFor(500, [&](int64_t i) {
        if (i % 7 == 3) throw static_cast<int>(i);
      });
      FAIL() << "expected a throw";
    } catch (const int i) {
      EXPECT_EQ(i, 3);  // smallest failing index, at any pool size
    }
  }
}

}  // namespace
}  // namespace qfcard
