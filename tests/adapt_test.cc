// Unit tests for the online-adaptation subsystem (src/adapt/,
// docs/adaptive.md): the feedback bus ring and fan-out contract, the kNN
// store's determinism and bounded eviction, residual-EWMA convergence on a
// constantly-biased base, the arbiter's margin + hold-off hysteresis (no
// flapping), and the AdaptiveEstimator front end to end — tier stamping
// through serve::ServingEstimator, feedback-driven correction, and batch
// parity with the serial request loop.

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "adapt/adaptive_estimator.h"
#include "adapt/arbiter.h"
#include "adapt/feedback_bus.h"
#include "adapt/online_knn.h"
#include "adapt/residual.h"
#include "common/status.h"
#include "estimators/registry.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "gtest/gtest.h"
#include "ml/dataset.h"
#include "query/executor.h"
#include "serve/fss.h"
#include "serve/serving_estimator.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace qfcard::adapt {
namespace {

query::Query SmallQuery(double le_value) {
  query::Query q = testutil::SingleTableQuery("small");
  testutil::AddPredicate(q, 0, query::CmpOp::kLe, le_value);
  return q;
}

// ---- FeedbackBus ----------------------------------------------------------

TEST(FeedbackBusTest, PublishFillsRecordAndFansOutInSequenceOrder) {
  FeedbackBus bus;
  std::vector<FeedbackRecord> seen;
  const uint64_t id =
      bus.Subscribe([&seen](const FeedbackRecord& r) { seen.push_back(r); });

  for (int i = 0; i < 3; ++i) {
    FeedbackRecord record;
    record.query = SmallQuery(2.0 + i);
    record.true_card = 8.0;
    bus.Publish(std::move(record));
  }

  ASSERT_EQ(seen.size(), 3u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].sequence, i + 1) << "dense publish-order ids";
    EXPECT_EQ(seen[i].fss, serve::FeatureSpaceHash(seen[i].query))
        << "Publish fills fss when the publisher left it 0";
    EXPECT_EQ(seen[i].log_card, ml::CardToLabel(8.0));
  }
  EXPECT_EQ(bus.published(), 3u);
  EXPECT_EQ(bus.dropped(), 0u);
  bus.Unsubscribe(id);
}

TEST(FeedbackBusTest, RingBoundsRetainNewestAndCountDrops) {
  FeedbackBusOptions options;
  options.capacity = 4;
  FeedbackBus bus(options);
  for (int i = 0; i < 6; ++i) {
    FeedbackRecord record;
    record.query = SmallQuery(1.0 + i);
    record.true_card = 1.0 + i;
    bus.Publish(std::move(record));
  }
  EXPECT_EQ(bus.published(), 6u);
  EXPECT_EQ(bus.dropped(), 2u);
  EXPECT_EQ(bus.size(), 4u);
  const std::vector<FeedbackRecord> ring = bus.Snapshot();
  ASSERT_EQ(ring.size(), 4u);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].sequence, i + 3) << "oldest first, oldest two dropped";
  }
}

TEST(FeedbackBusTest, UnsubscribeStopsDelivery) {
  FeedbackBus bus;
  int delivered = 0;
  const uint64_t id =
      bus.Subscribe([&delivered](const FeedbackRecord&) { ++delivered; });
  FeedbackRecord record;
  record.query = SmallQuery(3.0);
  bus.Publish(record);
  bus.Unsubscribe(id);
  bus.Publish(record);
  EXPECT_EQ(delivered, 1);
}

TEST(FeedbackBusTest, TrueCardClampedToOne) {
  FeedbackBus bus;
  FeedbackRecord record;
  record.query = SmallQuery(3.0);
  record.true_card = 0.0;  // empty result: label space needs >= 1
  bus.Publish(std::move(record));
  const std::vector<FeedbackRecord> ring = bus.Snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].true_card, 1.0);
  EXPECT_EQ(ring[0].log_card, 0.0);
}

// ---- OnlineKnn ------------------------------------------------------------

TEST(OnlineKnnTest, ExactMatchReturnsStoredValueAndFeedOrderIsDeterministic) {
  OnlineKnn a;
  OnlineKnn b;
  const uint64_t fss = 77;
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 12; ++i) {
    points.push_back({static_cast<float>(i), static_cast<float>(i % 3)});
  }
  for (size_t i = 0; i < points.size(); ++i) {
    a.Observe(fss, points[i], static_cast<double>(i) + 0.5);
    b.Observe(fss, points[i], static_cast<double>(i) + 0.5);
  }

  // An exact feature match short-circuits to that neighbor's stored target.
  const std::optional<double> exact = a.PredictLog(fss, points[4]);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(*exact, 4.5);

  // Identically-fed stores answer identically on interpolated probes.
  for (float x = 0.25f; x < 11.0f; x += 1.0f) {
    const std::vector<float> probe = {x, 1.0f};
    const std::optional<double> pa = a.PredictLog(fss, probe);
    const std::optional<double> pb = b.PredictLog(fss, probe);
    ASSERT_TRUE(pa.has_value());
    ASSERT_TRUE(pb.has_value());
    EXPECT_EQ(*pa, *pb) << "byte-identical for a fixed observation order";
  }
}

TEST(OnlineKnnTest, NearDuplicateRefinesInPlaceInsteadOfInserting) {
  OnlineKnnOptions options;
  options.learning_rate = 0.5;
  OnlineKnn knn(options);
  const uint64_t fss = 5;
  const std::vector<float> point = {1.0f, 2.0f};
  knn.Observe(fss, point, 10.0);
  knn.Observe(fss, point, 20.0);
  EXPECT_EQ(knn.NeighborCount(fss), 1u) << "refined, not duplicated";
  const std::optional<double> log = knn.PredictLog(fss, point);
  ASSERT_TRUE(log.has_value());
  EXPECT_DOUBLE_EQ(*log, 15.0) << "EWMA with learning_rate 0.5";
}

TEST(OnlineKnnTest, EvictionKeepsPerRouteAndGlobalBounds) {
  OnlineKnnOptions options;
  options.capacity_per_route = 4;
  options.max_routes = 2;
  OnlineKnn knn(options);

  for (int i = 0; i < 6; ++i) {
    knn.Observe(1, {static_cast<float>(10 * i)}, static_cast<double>(i));
  }
  EXPECT_EQ(knn.NeighborCount(1), 4u) << "per-route capacity enforced";

  // The least recently written neighbors (0 and 1) were evicted: their
  // exact vectors no longer short-circuit to the stored value.
  const std::optional<double> evicted = knn.PredictLog(1, {0.0f});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_NE(*evicted, 0.0);
  const std::optional<double> retained = knn.PredictLog(1, {50.0f});
  ASSERT_TRUE(retained.has_value());
  EXPECT_DOUBLE_EQ(*retained, 5.0);

  // A third route evicts the stalest route wholesale.
  knn.Observe(2, {1.0f}, 1.0);
  knn.Observe(3, {1.0f}, 1.0);
  EXPECT_EQ(knn.RouteCount(), 2u);
  EXPECT_EQ(knn.NeighborCount(1), 0u) << "route 1 had the oldest last write";
  EXPECT_GT(knn.SizeBytes(), 0u);
}

TEST(OnlineKnnTest, UnknownRouteReturnsNullopt) {
  OnlineKnn knn;
  EXPECT_FALSE(knn.PredictLog(123, {1.0f}).has_value());
  EXPECT_EQ(knn.NeighborCount(123), 0u);
}

// ---- ResidualCorrector ----------------------------------------------------

TEST(ResidualCorrectorTest, ConvergesOnConstantlyBiasedBase) {
  ResidualCorrector corrector;
  const uint64_t fss = 9;
  const double base = 100.0;

  // Below min_observations the correction must not engage.
  corrector.Observe(fss, base, 4.0 * base);
  EXPECT_DOUBLE_EQ(corrector.Correct(fss, base), base);

  // The base is consistently 4x too low (log2 residual = 2): the EWMA bias
  // walks to 2 and Correct approaches base * 2^2.
  for (int i = 0; i < 24; ++i) {
    corrector.Observe(fss, base, 4.0 * base);
  }
  const auto state = corrector.StateFor(fss);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->observed, 25u);
  EXPECT_NEAR(state->bias, 2.0, 0.05);
  EXPECT_NEAR(corrector.Correct(fss, base), 4.0 * base, 0.2 * base);

  // Unknown routes pass the base through untouched.
  EXPECT_DOUBLE_EQ(corrector.Correct(12345, base), base);
}

TEST(ResidualCorrectorTest, RouteEvictionKeepsBound) {
  ResidualOptions options;
  options.max_routes = 2;
  ResidualCorrector corrector(options);
  corrector.Observe(1, 10.0, 20.0);
  corrector.Observe(2, 10.0, 20.0);
  corrector.Observe(3, 10.0, 20.0);
  EXPECT_EQ(corrector.RouteCount(), 2u);
  EXPECT_FALSE(corrector.StateFor(1).has_value())
      << "least recently observed route evicted";
}

// ---- TierArbiter ----------------------------------------------------------

TierArbiterOptions TightArbiter() {
  TierArbiterOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.hold_observations = 4;
  options.switch_margin = 0.8;
  return options;
}

TEST(TierArbiterTest, SwitchesWhenChallengerBeatsIncumbentByMargin) {
  TierArbiter arbiter(TightArbiter());
  const uint64_t fss = 1;
  EXPECT_EQ(arbiter.Choose(fss).tier, est::ServedTier::kMl)
      << "initial tier before any evidence";

  for (int i = 0; i < 6; ++i) {
    arbiter.ObserveTier(fss, est::ServedTier::kMl, 10.0);
    arbiter.ObserveTier(fss, est::ServedTier::kHistogramResidual, 1.5);
  }
  EXPECT_EQ(arbiter.Choose(fss).tier, est::ServedTier::kHistogramResidual);
  EXPECT_EQ(arbiter.switches(), 1u);
  const std::vector<TierArbiter::TierSwitch> log = arbiter.RecentSwitches();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].from, est::ServedTier::kMl);
  EXPECT_EQ(log[0].to, est::ServedTier::kHistogramResidual);
  EXPECT_NE(arbiter.Choose(fss).reason.find("ml->residual"),
            std::string::npos);
  EXPECT_EQ(arbiter.RouteCount(), 1u);
}

TEST(TierArbiterTest, NoFlappingInsideTheSwitchMargin) {
  TierArbiter arbiter(TightArbiter());
  const uint64_t fss = 2;
  // residual is slightly better (4.5 vs 5.0) but not by the 0.8 margin:
  // the incumbent must keep the route no matter how long this persists.
  for (int i = 0; i < 40; ++i) {
    arbiter.ObserveTier(fss, est::ServedTier::kMl, 5.0);
    arbiter.ObserveTier(fss, est::ServedTier::kHistogramResidual, 4.5);
  }
  EXPECT_EQ(arbiter.switches(), 0u);
  EXPECT_EQ(arbiter.Choose(fss).tier, est::ServedTier::kMl);
}

TEST(TierArbiterTest, HoldObservationsBlockImmediateSwitchBack) {
  TierArbiter arbiter(TightArbiter());
  const uint64_t fss = 3;
  for (int i = 0; i < 6; ++i) {
    arbiter.ObserveTier(fss, est::ServedTier::kMl, 10.0);
    arbiter.ObserveTier(fss, est::ServedTier::kHistogramResidual, 1.5);
  }
  ASSERT_EQ(arbiter.switches(), 1u) << "demoted away from the stale ml tier";

  // The ML tier improves wholesale right after the switch. Within the
  // hold-off window nothing may move; once the hold expires and the ml
  // window has flushed its stale q-errors, the route promotes back.
  for (int i = 0; i < 3; ++i) {
    arbiter.ObserveTier(fss, est::ServedTier::kMl, 1.0);
    EXPECT_EQ(arbiter.switches(), 1u) << "hold-off must absorb observation "
                                      << i;
  }
  for (int i = 0; i < 12; ++i) {
    arbiter.ObserveTier(fss, est::ServedTier::kMl, 1.0);
    arbiter.ObserveTier(fss, est::ServedTier::kHistogramResidual, 1.5);
  }
  EXPECT_EQ(arbiter.switches(), 2u);
  EXPECT_EQ(arbiter.Choose(fss).tier, est::ServedTier::kMl)
      << "recovered ml wins the route back exactly once — no flapping";
}

TEST(TierArbiterTest, ResetTierConcedesToMeasuredChallenger) {
  TierArbiter arbiter(TightArbiter());
  const uint64_t fss = 4;
  // Incumbent ml measured at 2.0; residual at 1.9 — inside the margin, so
  // no switch...
  for (int i = 0; i < 6; ++i) {
    arbiter.ObserveTier(fss, est::ServedTier::kMl, 2.0);
    arbiter.ObserveTier(fss, est::ServedTier::kHistogramResidual, 1.9);
  }
  EXPECT_EQ(arbiter.switches(), 0u);
  EXPECT_GT(arbiter.TierP95(fss, est::ServedTier::kMl), 0.0);

  // ...until a model hot-swap erases the ml history: the truly empty
  // incumbent window concedes to any measured challenger.
  arbiter.ResetTier(est::ServedTier::kMl);
  EXPECT_EQ(arbiter.TierP95(fss, est::ServedTier::kMl), 0.0);
  arbiter.ObserveTier(fss, est::ServedTier::kHistogramResidual, 1.9);
  EXPECT_EQ(arbiter.switches(), 1u);
  EXPECT_EQ(arbiter.Choose(fss).tier, est::ServedTier::kHistogramResidual);
}

// ---- AdaptiveEstimator ----------------------------------------------------

struct AdaptiveFixture {
  storage::Catalog catalog = testutil::SmallCatalog();
  std::shared_ptr<const est::CardinalityEstimator> base;
  std::shared_ptr<serve::ServingEstimator> serving;
  std::shared_ptr<const featurize::Featurizer> featurizer;

  explicit AdaptiveFixture(uint64_t version = 7) {
    base = std::shared_ptr<const est::CardinalityEstimator>(
        est::MakeEstimator("postgres", catalog).value());
    serving = std::make_shared<serve::ServingEstimator>(base, version);
    featurizer = std::shared_ptr<const featurize::Featurizer>(
        featurize::MakeFeaturizer(
            featurize::QftKind::kComplex,
            featurize::FeatureSchema::FromTable(catalog.table(0))));
  }

  std::unique_ptr<AdaptiveEstimator> Make(AdaptiveMode mode) const {
    AdaptiveOptions options;
    options.mode = mode;
    options.arbiter = TightArbiter();
    return std::make_unique<AdaptiveEstimator>(base, serving, featurizer,
                                               options);
  }
};

FeedbackRecord Feedback(const query::Query& q, double true_card) {
  FeedbackRecord record;
  record.query = q;
  record.true_card = true_card;
  return record;
}

TEST(AdaptiveEstimatorTest, TierStampSurvivesServingEstimatorWrap) {
  const AdaptiveFixture fx;
  std::shared_ptr<const est::CardinalityEstimator> front =
      fx.Make(AdaptiveMode::kResidualOnly);
  const serve::ServingEstimator outer(front, 42);

  est::EstimateRequest request;
  request.query = SmallQuery(4.0);
  const auto resp = outer.Estimate(request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().tier, est::ServedTier::kHistogramResidual)
      << "the serving wrapper must pass the inner tier stamp through";
  EXPECT_EQ(resp.value().model_version, 42u);
  EXPECT_FALSE(resp.value().tier_reason.empty());
}

TEST(AdaptiveEstimatorTest, ResidualTierLearnsFromBusFeedback) {
  const AdaptiveFixture fx;
  const std::unique_ptr<AdaptiveEstimator> front =
      fx.Make(AdaptiveMode::kResidualOnly);
  FeedbackBus bus;
  front->ConnectTo(&bus);

  const query::Query q = SmallQuery(6.0);
  const double before = front->EstimateCard(q).value();

  // The truth is consistently 4x the base estimate for this route: the
  // residual tier must pull estimates up toward it.
  const double base_est = fx.base->EstimateCard(q).value();
  for (int i = 0; i < 24; ++i) {
    bus.Publish(Feedback(q, 4.0 * base_est));
  }
  const double after = front->EstimateCard(q).value();
  EXPECT_GT(after, before);
  EXPECT_NEAR(after, 4.0 * base_est, 0.25 * base_est);
  EXPECT_EQ(front->ingested(), 24u);
  front->Disconnect();

  // Disconnected: further feedback must not move the estimate.
  bus.Publish(Feedback(q, 400.0 * base_est));
  EXPECT_EQ(front->EstimateCard(q).value(), after);
}

TEST(AdaptiveEstimatorTest, KnnTierFallsBackToMlUntilItHasNeighbors) {
  const AdaptiveFixture fx;
  const std::unique_ptr<AdaptiveEstimator> front =
      fx.Make(AdaptiveMode::kKnnOnly);

  est::EstimateRequest request;
  request.query = SmallQuery(5.0);
  const auto cold = front->Estimate(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().tier, est::ServedTier::kMl)
      << "no neighbors yet: the heavy path answers";

  const int64_t truth =
      query::Executor::Count(fx.catalog.table(0), request.query).value();
  front->IngestFeedback(Feedback(request.query, static_cast<double>(truth)));
  const auto warm = front->Estimate(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().tier, est::ServedTier::kKnn);
  // Exact feature match: the stored log2 cardinality round-trips (float
  // label precision) back to the executed truth.
  EXPECT_NEAR(warm.value().estimate, static_cast<double>(truth),
              0.01 * static_cast<double>(truth) + 0.01);
}

TEST(AdaptiveEstimatorTest, RequestBatchMatchesSerialLoopByteForByte) {
  const AdaptiveFixture fx;
  const std::unique_ptr<AdaptiveEstimator> front = fx.Make(AdaptiveMode::kAuto);
  for (int i = 0; i < 8; ++i) {
    front->IngestFeedback(Feedback(SmallQuery(1.0 + i), 2.0 + i));
  }

  std::vector<est::EstimateRequest> requests;
  for (int i = 0; i < 10; ++i) {
    est::EstimateRequest request;
    request.query = SmallQuery(0.5 + i);
    requests.push_back(request);
  }
  const auto batch = front->EstimateRequests(requests);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto one = front->Estimate(requests[i]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(batch.value()[i].estimate, one.value().estimate);
    EXPECT_EQ(batch.value()[i].tier, one.value().tier);
  }
  const auto cards = front->EstimateBatch(
      std::vector<query::Query>{requests[0].query, requests[5].query});
  ASSERT_TRUE(cards.ok());
  EXPECT_EQ(cards.value()[0], batch.value()[0].estimate);
  EXPECT_EQ(cards.value()[1], batch.value()[5].estimate);

  // Mixed tiers in one batch: in kNN-only mode with feedback on
  // SmallQuery's route alone, SmallQuery requests take the kNN tier while
  // a b-column query's route is empty and falls back to ML.
  const std::unique_ptr<AdaptiveEstimator> knn =
      fx.Make(AdaptiveMode::kKnnOnly);
  for (int i = 0; i < 4; ++i) {
    knn->IngestFeedback(Feedback(SmallQuery(2.0 + i), 3.0 + i));
  }
  const auto request_for = [](query::Query q) {
    est::EstimateRequest request;
    request.query = std::move(q);
    return request;
  };
  const auto b_query = [](double value) {
    query::Query q = testutil::SingleTableQuery("small");
    testutil::AddPredicate(q, 1, query::CmpOp::kGe, value);
    return q;
  };
  std::vector<est::EstimateRequest> mixed = {
      request_for(SmallQuery(3.5)), request_for(b_query(20.0)),
      request_for(SmallQuery(7.0)), request_for(b_query(60.0))};
  const auto mixed_batch = knn->EstimateRequests(mixed);
  ASSERT_TRUE(mixed_batch.ok()) << mixed_batch.status().ToString();
  std::set<est::ServedTier> tiers;
  for (size_t i = 0; i < mixed.size(); ++i) {
    const auto one = knn->Estimate(mixed[i]);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(mixed_batch.value()[i].estimate, one.value().estimate) << i;
    EXPECT_EQ(mixed_batch.value()[i].tier, one.value().tier) << i;
    EXPECT_EQ(mixed_batch.value()[i].tier_reason, one.value().tier_reason);
    tiers.insert(one.value().tier);
  }
  EXPECT_EQ(tiers,
            (std::set<est::ServedTier>{est::ServedTier::kKnn,
                                       est::ServedTier::kMl}));

  // Two requests on unknown tables fail with different messages; the batch
  // returns the first one's error, as the serial loop would.
  mixed.insert(mixed.begin() + 1,
               request_for(testutil::SingleTableQuery("missing_a")));
  mixed.push_back(request_for(testutil::SingleTableQuery("missing_b")));
  const common::Status first = knn->Estimate(mixed[1]).status();
  const common::Status last = knn->Estimate(mixed.back()).status();
  ASSERT_FALSE(first.ok());
  ASSERT_NE(first, last);
  EXPECT_EQ(knn->EstimateRequests(mixed).status(), first);
  EXPECT_EQ(knn->EstimateCard(mixed[1].query).status(), first);
}

TEST(AdaptiveEstimatorTest, MlHotSwapResetsTheMlWindows) {
  const AdaptiveFixture fx;
  const std::unique_ptr<AdaptiveEstimator> front = fx.Make(AdaptiveMode::kAuto);
  front->TrackServingVersion(fx.serving.get());

  // Saturate the route with feedback that makes the stale ml tier lose.
  const query::Query q = SmallQuery(3.0);
  const double base_est = fx.base->EstimateCard(q).value();
  for (int i = 0; i < 12; ++i) {
    front->IngestFeedback(Feedback(q, 50.0 * base_est));
  }
  const uint64_t fss = serve::FeatureSpaceHash(q);
  EXPECT_GT(front->arbiter().TierP95(fss, est::ServedTier::kMl), 0.0);

  // Swap a "retrained" model in: the next feedback record must wipe the ml
  // q-error history so the fresh model is not vetoed by its predecessor.
  fx.serving->Swap(fx.base, /*version=*/99);
  front->IngestFeedback(Feedback(q, 50.0 * base_est));
  // The reset dropped the old window; only the post-swap observation backs
  // the new one, which stays below min_samples for a few records.
  EXPECT_EQ(front->arbiter().TierP95(fss, est::ServedTier::kMl), 0.0);
}

TEST(AdaptiveEstimatorTest, TrainIsRejectedAndInfoReportsOnlineLearning) {
  const AdaptiveFixture fx;
  const std::unique_ptr<AdaptiveEstimator> front = fx.Make(AdaptiveMode::kAuto);
  EXPECT_FALSE(front->Train({}, {}, 0.1, 1).ok())
      << "the front learns online; training targets the inner ML path";
  const est::EstimatorInfo info = AdaptiveEstimatorInfo();
  EXPECT_TRUE(info.learns_online);
  EXPECT_FALSE(info.needs_training);
  EXPECT_NE(front->name().find("auto"), std::string::npos);
}

}  // namespace
}  // namespace qfcard::adapt
