#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/adaptive_estimator.h"
#include "common/gathered.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "estimators/registry.h"
#include "estimators/request.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "query/query.h"
#include "serve/fss.h"
#include "serve/router.h"
#include "serve/serving_estimator.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "workload/labeler.h"

// Estimation-server tests (docs/serving.md): routing determinism, the three
// admission policies, the request/response API contract, and the tentpole
// guarantee — answers through the micro-batching server are byte-identical
// to direct calls on the route's model, at 1, 2, and 8 client threads.

namespace qfcard::serve {
namespace {

using query::CmpOp;

storage::Table ServerTable() {
  storage::Table t("srv");
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  for (int i = 0; i < 500; ++i) {
    a.push_back(i % 89);
    b.push_back((i * 13) % 71);
    c.push_back(i % 7);
  }
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("a", a)));
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("b", b)));
  QFCARD_CHECK_OK(t.AddColumn(testutil::IntColumn("c", c)));
  return t;
}

storage::Catalog ServerCatalog() {
  storage::Catalog cat;
  QFCARD_CHECK_OK(cat.AddTable(ServerTable()));
  return cat;
}

/// Shape A: a in [lo, lo+span] — all literals map to one feature space.
query::Query ShapeA(double lo, double span = 10.0) {
  query::Query q = testutil::SingleTableQuery("srv");
  testutil::AddCompound(
      q, 0, {{{CmpOp::kGe, lo}, {CmpOp::kLe, lo + span}}});
  return q;
}

/// Shape B: b = v OR b = w — a different feature space from ShapeA.
query::Query ShapeB(double v, double w) {
  query::Query q = testutil::SingleTableQuery("srv");
  testutil::AddCompound(q, 1, {{{CmpOp::kEq, v}}, {{CmpOp::kEq, w}}});
  return q;
}

std::shared_ptr<ServingEstimator> WrapServing(
    std::shared_ptr<const est::CardinalityEstimator> model, uint64_t version) {
  return std::make_shared<ServingEstimator>(std::move(model), version);
}

/// Intelligent-mode options whose factory serves `model` on every route.
ModelRouterOptions SharedModelOptions(
    std::shared_ptr<const est::CardinalityEstimator> model,
    uint64_t version = 1) {
  ModelRouterOptions opts;
  opts.factory = [model, version](uint64_t, const query::Query&)
      -> common::StatusOr<std::shared_ptr<ServingEstimator>> {
    return WrapServing(model, version);
  };
  return opts;
}

std::shared_ptr<const est::CardinalityEstimator> Postgres(
    const storage::Catalog& catalog) {
  return std::shared_ptr<const est::CardinalityEstimator>(
      est::MakeEstimator("postgres", catalog).value());
}

// --- Routing ---------------------------------------------------------------

TEST(ModelRouter, ResolutionIsDeterministicAcrossRoutersAndLiterals) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouter r1(SharedModelOptions(Postgres(catalog)));
  ModelRouter r2(SharedModelOptions(Postgres(catalog)));

  auto first = r1.Resolve(ShapeA(5.0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->created);
  EXPECT_EQ(first->route_id, first->fss);
  EXPECT_EQ(first->fss, FeatureSpaceHash(ShapeA(5.0)));

  // Same shape, different literals, different router instance: same id.
  auto second = r1.Resolve(ShapeA(40.0, 3.0));
  auto other = r2.Resolve(ShapeA(77.0));
  ASSERT_TRUE(second.ok() && other.ok());
  EXPECT_FALSE(second->created);
  EXPECT_EQ(second->route_id, first->route_id);
  EXPECT_EQ(other->route_id, first->route_id);
  EXPECT_EQ(r1.NumRoutes(), 1u);

  // A different shape opens a different route.
  auto shape_b = r1.Resolve(ShapeB(1.0, 2.0));
  ASSERT_TRUE(shape_b.ok());
  EXPECT_TRUE(shape_b->created);
  EXPECT_NE(shape_b->route_id, first->route_id);
  EXPECT_EQ(r1.NumRoutes(), 2u);
  EXPECT_EQ(r1.RouteLabel(first->route_id), FeatureSpaceSignature(ShapeA(5.0)));
}

TEST(ModelRouter, PerRequestCreationOptOut) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouter router(SharedModelOptions(Postgres(catalog)));
  est::EstimateOptions no_create;
  no_create.allow_route_creation = false;

  auto rejected = router.Resolve(ShapeA(5.0), no_create);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            common::StatusCode::kFailedPrecondition);

  // Once the route exists (a permissive request opened it), the opt-out
  // request is served normally.
  ASSERT_TRUE(router.Resolve(ShapeA(5.0)).ok());
  EXPECT_TRUE(router.Resolve(ShapeA(9.0), no_create).ok());
}

TEST(ModelRouter, RouteLimitExhausts) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouterOptions opts = SharedModelOptions(Postgres(catalog));
  opts.max_routes = 1;
  ModelRouter router(std::move(opts));
  ASSERT_TRUE(router.Resolve(ShapeA(5.0)).ok());
  auto overflow = router.Resolve(ShapeB(1.0, 2.0));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(),
            common::StatusCode::kResourceExhausted);
  // Existing routes keep serving at the limit.
  EXPECT_TRUE(router.Resolve(ShapeA(30.0)).ok());
}

TEST(ModelRouter, ForcedPolicyMapsUnknownShapesToTheDefaultRoute) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouterOptions opts;
  opts.policy = RoutePolicy::kForced;
  ModelRouter router(std::move(opts));

  // No default installed yet: rejected, not crashed.
  EXPECT_FALSE(router.Resolve(ShapeA(5.0)).ok());

  const auto fallback = WrapServing(Postgres(catalog), 3);
  router.SetDefaultRoute(fallback);
  auto resolved = router.Resolve(ShapeA(5.0));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->route_id, 0u);              // the common feature space
  EXPECT_NE(resolved->fss, 0u);                   // the hash is still reported
  EXPECT_EQ(resolved->serving.get(), fallback.get());
  EXPECT_EQ(router.NumRoutes(), 0u);              // nothing was memorized
  EXPECT_EQ(router.FindRoute(0).get(), fallback.get());
}

TEST(ModelRouter, ControlledPolicyServesOnlyPreRegisteredShapes) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouterOptions opts;
  opts.policy = RoutePolicy::kControlled;
  ModelRouter router(std::move(opts));

  const uint64_t fss_a = FeatureSpaceHash(ShapeA(0.0));
  QFCARD_CHECK_OK(router.AddRoute(fss_a, WrapServing(Postgres(catalog), 1),
                                  "shape-a"));
  EXPECT_FALSE(router.AddRoute(fss_a, WrapServing(Postgres(catalog), 2)).ok());
  EXPECT_FALSE(router.AddRoute(0, WrapServing(Postgres(catalog), 2)).ok());

  EXPECT_TRUE(router.Resolve(ShapeA(42.0)).ok());
  auto rejected = router.Resolve(ShapeB(1.0, 2.0));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(router.RouteLabel(fss_a), "shape-a");
}

TEST(ModelRouter, RouteHintOverridesHashing) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouter router(SharedModelOptions(Postgres(catalog)));
  const auto opened = router.Resolve(ShapeA(5.0));
  ASSERT_TRUE(opened.ok());

  // A ShapeB query pinned to ShapeA's route by hint lands there.
  auto hinted = router.Resolve(ShapeB(1.0, 2.0), {}, opened->route_id);
  ASSERT_TRUE(hinted.ok());
  EXPECT_EQ(hinted->route_id, opened->route_id);
  EXPECT_EQ(router.NumRoutes(), 1u);
}

// --- Request/response API --------------------------------------------------

TEST(RequestApi, BaseEstimatorDefaultsMatchEstimateCard) {
  const storage::Catalog catalog = ServerCatalog();
  const auto model = Postgres(catalog);

  est::EstimateRequest request;
  request.query = ShapeA(5.0);
  auto response = model->Estimate(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->estimate, model->EstimateCard(ShapeA(5.0)).value());
  // A bare estimator has no route or published version to report.
  EXPECT_EQ(response->route_id, 0u);
  EXPECT_EQ(response->model_version, 0u);
  EXPECT_GE(response->latency_seconds, 0.0);
}

TEST(RequestApi, ServingEstimatorStampsVersionAndMatchesBatch) {
  const storage::Catalog catalog = ServerCatalog();
  const ServingEstimator serving(Postgres(catalog), /*version=*/7);

  std::vector<est::EstimateRequest> requests;
  std::vector<query::Query> queries;
  for (int i = 0; i < 6; ++i) {
    est::EstimateRequest request;
    request.query = ShapeA(3.0 * i);
    queries.push_back(request.query);
    requests.push_back(std::move(request));
  }
  auto responses = serving.EstimateRequests(requests);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  // Both entry points pin the active model and reach the same batch
  // primitive, so the two must agree exactly (docs/batch_api.md).
  const std::vector<double> bare = serving.EstimateBatch(queries).value();
  ASSERT_EQ(responses->size(), bare.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ((*responses)[i].estimate, bare[i]);
    EXPECT_EQ((*responses)[i].model_version, 7u);
  }
}

// --- The server ------------------------------------------------------------

TEST(EstimationServer, ServesAndReportsProvenance) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouter router(SharedModelOptions(Postgres(catalog), /*version=*/4));
  EstimationServer server(&router);
  server.Start();

  est::EstimateRequest request;
  request.query = ShapeA(12.0);
  auto response = server.Estimate(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->route_id, FeatureSpaceHash(request.query));
  EXPECT_EQ(response->model_version, 4u);
  EXPECT_GE(response->latency_seconds, 0.0);
  server.Stop();
  EXPECT_GE(server.BatchesFlushed(), 1u);

  // A stopped server rejects instead of hanging; a restarted one serves.
  EXPECT_FALSE(server.Estimate(request).ok());
  server.Start();
  EXPECT_TRUE(server.Estimate(request).ok());
  server.Stop();
}

TEST(EstimationServer, RoutingRejectionsPropagateToClients) {
  ModelRouterOptions opts;
  opts.policy = RoutePolicy::kControlled;  // empty route table: reject all
  ModelRouter router(std::move(opts));
  EstimationServer server(&router);
  server.Start();
  est::EstimateRequest request;
  request.query = ShapeA(1.0);
  auto response = server.Estimate(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(),
            common::StatusCode::kFailedPrecondition);
  server.Stop();
}

// The tentpole guarantee: micro-batching is unobservable. Every response
// from the server must be byte-identical to the direct answer of the
// route's model, however requests interleave across client threads.
void CheckServerMatchesDirect(
    std::shared_ptr<const est::CardinalityEstimator> model,
    int client_threads) {
  ModelRouter router(SharedModelOptions(model));
  EstimationServer server(&router);
  server.Start();

  std::vector<std::thread> clients;
  std::vector<std::string> failures(static_cast<size_t>(client_threads));
  for (int t = 0; t < client_threads; ++t) {
    clients.emplace_back([&, t] {
      // Each client alternates shapes so batches from different threads
      // coalesce on shared routes.
      std::vector<est::EstimateRequest> requests;
      std::vector<query::Query> queries;
      for (int i = 0; i < 24; ++i) {
        est::EstimateRequest request;
        request.query = i % 2 == 0 ? ShapeA(2.0 * i + t, 5.0 + t)
                                   : ShapeB(i % 11, (i + t) % 13);
        queries.push_back(request.query);
        requests.push_back(std::move(request));
      }
      const std::vector<double> direct =
          model->EstimateBatch(queries).value();
      const auto via_server = server.EstimateMany(requests);
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!via_server[i].ok()) {
          failures[static_cast<size_t>(t)] =
              via_server[i].status().ToString();
          return;
        }
        if (via_server[i].value().estimate != direct[i]) {
          failures[static_cast<size_t>(t)] =
              "estimate mismatch at query " + std::to_string(i);
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  for (const std::string& failure : failures) {
    EXPECT_EQ(failure, "") << "with " << client_threads << " clients";
  }
}

TEST(EstimationServer, BatchingMatchesDirectPostgres) {
  const storage::Catalog catalog = ServerCatalog();
  const auto model = Postgres(catalog);
  for (const int clients : {1, 2, 8}) {
    CheckServerMatchesDirect(model, clients);
  }
}

TEST(EstimationServer, BatchingMatchesDirectTrainedGb) {
  const storage::Catalog catalog = ServerCatalog();
  // A small trained model: the batch path goes through featurization and
  // model inference, not just statistics lookups.
  std::vector<query::Query> train;
  for (int i = 0; i < 120; ++i) {
    train.push_back(i % 2 == 0 ? ShapeA(i % 80, 4.0 + i % 9)
                               : ShapeB(i % 11, i % 13));
  }
  const auto labeled =
      workload::LabelOnTable(catalog.table(0), train, /*drop_empty=*/false)
          .value();
  est::EstimatorOptions eopts;
  eopts.gbm.num_trees = 12;
  auto gb = est::MakeEstimator("gb+complex", catalog, eopts).value();
  {
    std::vector<query::Query> qs;
    std::vector<double> cards;
    for (const auto& lq : labeled) {
      qs.push_back(lq.query);
      cards.push_back(lq.card);
    }
    QFCARD_CHECK_OK(gb->Train(qs, cards, 0.1, 5));
  }
  const std::shared_ptr<const est::CardinalityEstimator> model =
      std::move(gb);
  for (const int clients : {1, 2, 8}) {
    CheckServerMatchesDirect(model, clients);
  }
}

TEST(EstimationServer, QueueFullRejectsAndStopDrains) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouter router(SharedModelOptions(Postgres(catalog)));
  EstimationServerOptions sopts;
  sopts.num_workers = 0;  // nothing flushes until Stop() drains
  sopts.max_pending = 2;
  EstimationServer server(&router, sopts);
  server.Start();

  std::vector<est::EstimateRequest> requests(3);
  for (auto& request : requests) request.query = ShapeA(5.0);
  std::vector<common::StatusOr<est::EstimateResponse>> results;
  std::thread client(
      [&] { results = server.EstimateMany(requests); });
  // The first two admissions queue up; the third bounced immediately. The
  // client is now blocked until the Stop() drain answers the queued two.
  while (server.PendingRequests() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  client.join();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  ASSERT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(),
            common::StatusCode::kResourceExhausted);
  EXPECT_EQ(server.PendingRequests(), 0u);
}

// --- Request-scoped tracing ------------------------------------------------

// Small trained GB model so the traced batch path exercises featurization
// and inference (estimate.featurize / estimate.predict spans), not just
// statistics lookups.
std::shared_ptr<const est::CardinalityEstimator> TrainedGb(
    const storage::Catalog& catalog) {
  std::vector<query::Query> train;
  for (int i = 0; i < 60; ++i) {
    train.push_back(i % 2 == 0 ? ShapeA(i % 80, 4.0 + i % 9)
                               : ShapeB(i % 11, i % 13));
  }
  const auto labeled =
      workload::LabelOnTable(catalog.table(0), train, /*drop_empty=*/false)
          .value();
  est::EstimatorOptions eopts;
  eopts.gbm.num_trees = 8;
  auto gb = est::MakeEstimator("gb+complex", catalog, eopts).value();
  std::vector<query::Query> qs;
  std::vector<double> cards;
  for (const auto& lq : labeled) {
    qs.push_back(lq.query);
    cards.push_back(lq.card);
  }
  QFCARD_CHECK_OK(gb->Train(qs, cards, 0.1, 5));
  return std::shared_ptr<const est::CardinalityEstimator>(std::move(gb));
}

// A route served by the adaptive front in kOff mode: every request takes
// the ML tier, which the front answers with one EstimateBatch on the
// MlEstimator, so the response carries its featurize/predict split.
TEST(EstimationServer, AdaptiveRouteReportsMlStages) {
  const storage::Catalog catalog = ServerCatalog();
  adapt::AdaptiveOptions aopts;
  aopts.mode = adapt::AdaptiveMode::kOff;
  const auto front = std::make_shared<const adapt::AdaptiveEstimator>(
      Postgres(catalog), TrainedGb(catalog),
      std::shared_ptr<const featurize::Featurizer>(featurize::MakeFeaturizer(
          featurize::QftKind::kComplex,
          featurize::FeatureSchema::FromTable(catalog.table(0)))),
      aopts);
  ModelRouter router(SharedModelOptions(front));
  EstimationServer server(&router);
  server.Start();

  std::vector<est::EstimateRequest> requests;
  std::vector<query::Query> queries;
  for (int i = 0; i < 12; ++i) {
    est::EstimateRequest request;
    request.query = i % 2 == 0 ? ShapeA(3.0 * i, 6.0) : ShapeB(i % 11, i % 7);
    queries.push_back(request.query);
    requests.push_back(std::move(request));
  }
  const auto responses = server.EstimateMany(requests);
  server.Stop();

  const std::vector<double> direct = front->EstimateBatch(queries).value();
  ASSERT_EQ(responses.size(), direct.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    EXPECT_EQ(responses[i]->estimate, direct[i]) << i;
    EXPECT_EQ(responses[i]->tier, est::ServedTier::kMl);
    EXPECT_GT(responses[i]->stages.featurize_seconds, 0.0) << i;
    EXPECT_GT(responses[i]->stages.predict_seconds, 0.0) << i;
  }
}

/// Records the address of every query its EstimateBatch receives, so a test
/// can tell the callers' own queries from copies of them.
class AddressRecordingEstimator : public est::CardinalityEstimator {
 public:
  common::StatusOr<double> EstimateCard(const query::Query&) const override {
    return 7.0;
  }
  common::StatusOr<std::vector<double>> EstimateBatch(
      common::Gathered<query::Query> queries) const override {
    common::MutexLock lock(&mu_);
    for (size_t i = 0; i < queries.size(); ++i) seen_.insert(&queries[i]);
    return std::vector<double>(queries.size(), 7.0);
  }
  std::string name() const override { return "address-recorder"; }

  std::set<const query::Query*> TakeSeen() const {
    common::MutexLock lock(&mu_);
    return std::exchange(seen_, {});
  }

 private:
  mutable common::Mutex mu_;
  mutable std::set<const query::Query*> seen_ QFCARD_GUARDED_BY(mu_);
};

// The estimate path reads the callers' queries in place: through the
// server's micro-batches and the ServingEstimator, and through the adaptive
// front's ML tier (directly and behind the server), the batch primitive
// sees each caller's &request.query, not a copy.
TEST(EstimationServer, BatchPrimitiveReadsCallersQueriesInPlace) {
  const storage::Catalog catalog = ServerCatalog();
  const auto recorder = std::make_shared<const AddressRecordingEstimator>();
  adapt::AdaptiveOptions aopts;
  aopts.mode = adapt::AdaptiveMode::kOff;
  const auto front = std::make_shared<const adapt::AdaptiveEstimator>(
      Postgres(catalog), recorder,
      std::shared_ptr<const featurize::Featurizer>(featurize::MakeFeaturizer(
          featurize::QftKind::kComplex,
          featurize::FeatureSchema::FromTable(catalog.table(0)))),
      aopts);

  std::vector<est::EstimateRequest> requests(10);
  std::set<const query::Query*> callers;
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].query = i % 2 == 0 ? ShapeA(4.0 * static_cast<double>(i))
                                   : ShapeB(i % 11, i % 5);
    callers.insert(&requests[i].query);
  }

  auto direct = front->EstimateRequests(requests);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(recorder->TakeSeen(), callers) << "adaptive ML tier";

  using Model = std::shared_ptr<const est::CardinalityEstimator>;
  for (const Model& model : {Model(recorder), Model(front)}) {
    ModelRouter router(SharedModelOptions(model));
    EstimationServer server(&router);
    server.Start();
    const auto responses = server.EstimateMany(requests);
    EXPECT_TRUE(server.Estimate(requests[3]).ok());
    server.Stop();
    for (const auto& response : responses) {
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->estimate, 7.0);
    }
    EXPECT_EQ(recorder->TakeSeen(), callers) << model->name();
  }
}

class TracedServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceEnabled(true);
    obs::TraceBuffer::Global().Reset();
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::TraceBuffer::Global().Reset();
  }
};

// Follows child edges from `from` looking for a span named `name`.
bool SubtreeContains(
    const std::map<uint64_t, std::vector<const obs::SpanRecord*>>& children,
    uint64_t from, const std::string& name) {
  std::vector<uint64_t> frontier{from};
  while (!frontier.empty()) {
    const uint64_t id = frontier.back();
    frontier.pop_back();
    const auto it = children.find(id);
    if (it == children.end()) continue;
    for (const obs::SpanRecord* child : it->second) {
      if (child->name == name) return true;
      frontier.push_back(child->id);
    }
  }
  return false;
}

// The tentpole guarantee for tracing: a 2-client micro-batched run yields
// one fully connected span tree per request ACROSS the thread boundary —
// serve.submit and serve.queue_wait on the client side, serve.batch and the
// estimate.* spans on the worker side, all under the serve.request root,
// with the batch span linking every member trace. No orphans.
TEST_F(TracedServerTest, TwoClientMicroBatchedRunIsFullyConnected) {
  const storage::Catalog catalog = ServerCatalog();
  const auto model = TrainedGb(catalog);
  ModelRouter router(SharedModelOptions(model));
  EstimationServer server(&router);
  server.Start();

  constexpr int kClients = 2;
  constexpr int kPerClient = 16;
  std::vector<std::vector<common::StatusOr<est::EstimateResponse>>> results(
      kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::vector<est::EstimateRequest> requests;
      for (int i = 0; i < kPerClient; ++i) {
        est::EstimateRequest request;
        request.query = i % 2 == 0 ? ShapeA(2.0 * i + t, 5.0 + t)
                                   : ShapeB(i % 11, (i + t) % 13);
        requests.push_back(std::move(request));
      }
      results[static_cast<size_t>(t)] = server.EstimateMany(requests);
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  const std::vector<obs::SpanRecord> spans =
      obs::TraceBuffer::Global().Snapshot();
  std::map<uint64_t, const obs::SpanRecord*> by_id;
  std::map<uint64_t, std::vector<const obs::SpanRecord*>> children;
  for (const obs::SpanRecord& s : spans) by_id[s.id] = &s;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id != 0) {
      // No orphans: every parent reference resolves inside the dump.
      EXPECT_EQ(by_id.count(s.parent_id), 1u)
          << "orphaned span " << s.id << " (" << s.name << ")";
      children[s.parent_id].push_back(&s);
    }
  }
  // serve.batch spans, indexed by every trace they served (own + links).
  std::map<uint64_t, const obs::SpanRecord*> batch_by_trace;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "serve.batch") continue;
    batch_by_trace[s.trace_id] = &s;
    for (const uint64_t link : s.links) batch_by_trace[link] = &s;
  }

  for (const auto& client : results) {
    ASSERT_EQ(client.size(), static_cast<size_t>(kPerClient));
    for (const auto& response : client) {
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const uint64_t trace = response->trace_id;
      ASSERT_NE(trace, 0u);
      // The request root exists, spans the full latency, and is clean.
      const auto root_it = by_id.find(trace);
      ASSERT_NE(root_it, by_id.end());
      EXPECT_EQ(root_it->second->name, "serve.request");
      EXPECT_FALSE(root_it->second->error);
      // The worker-side batch span serves this trace and reaches the
      // estimator: the tree is connected across the thread boundary.
      const auto batch_it = batch_by_trace.find(trace);
      ASSERT_NE(batch_it, batch_by_trace.end())
          << "no serve.batch served trace " << trace;
      EXPECT_TRUE(
          SubtreeContains(children, batch_it->second->id, "estimate.batch"));
      // Latency attribution came back with the response.
      EXPECT_GE(response->stages.queue_wait_seconds, 0.0);
      EXPECT_GT(response->stages.batch_exec_seconds, 0.0);
      EXPECT_GT(response->stages.featurize_seconds, 0.0);
      EXPECT_GT(response->stages.predict_seconds, 0.0);
      EXPECT_GE(response->latency_seconds,
                response->stages.batch_exec_seconds);
    }
  }
  // Every request contributed a queue-wait span under its root.
  int queue_waits = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "serve.queue_wait") ++queue_waits;
  }
  EXPECT_EQ(queue_waits, kClients * kPerClient);
}

// The span-tree SHAPE (multiset of parent-name -> child-name edges) must not
// depend on the thread-pool size: parallelism inside featurize/predict moves
// work between threads but never invents or drops spans.
std::multiset<std::string> RunTracedWorkloadAndCollectShape(
    const std::shared_ptr<const est::CardinalityEstimator>& model,
    int pool_threads) {
  common::SetGlobalThreads(pool_threads);
  obs::TraceBuffer::Global().Reset();
  ModelRouter router(SharedModelOptions(model));
  EstimationServer server(&router);
  server.Start();
  for (int i = 0; i < 12; ++i) {
    est::EstimateRequest request;
    request.query = i % 2 == 0 ? ShapeA(3.0 * i, 6.0) : ShapeB(i % 7, i % 5);
    QFCARD_CHECK_OK(server.Estimate(request).status());
  }
  server.Stop();
  const std::vector<obs::SpanRecord> spans =
      obs::TraceBuffer::Global().Snapshot();
  std::map<uint64_t, std::string> names;
  for (const obs::SpanRecord& s : spans) names[s.id] = s.name;
  std::multiset<std::string> shape;
  for (const obs::SpanRecord& s : spans) {
    const auto parent = names.find(s.parent_id);
    const std::string parent_name =
        s.parent_id == 0 ? "(root)"
        : parent != names.end() ? parent->second
                                : "(missing)";
    shape.insert(parent_name + " > " + s.name);
  }
  common::SetGlobalThreads(1);
  return shape;
}

TEST_F(TracedServerTest, SpanTreeShapeIsIdenticalAcrossPoolSizes) {
  const storage::Catalog catalog = ServerCatalog();
  const auto model = TrainedGb(catalog);
  const std::multiset<std::string> serial =
      RunTracedWorkloadAndCollectShape(model, 1);
  const std::multiset<std::string> parallel =
      RunTracedWorkloadAndCollectShape(model, 8);
  EXPECT_EQ(serial, parallel);
  // Sanity: the canonical edges of the request tree are all present.
  EXPECT_EQ(serial.count("(root) > serve.request"), 12u);
  EXPECT_EQ(serial.count("serve.request > serve.submit"), 12u);
  EXPECT_EQ(serial.count("serve.request > serve.queue_wait"), 12u);
  EXPECT_EQ(serial.count("serve.request > serve.batch"), 12u);
  EXPECT_GE(serial.count("serve.batch > estimate.batch"), 12u);
}

TEST(EstimationServer, IdleDispatcherFlushesALoneRequest) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouter router(SharedModelOptions(Postgres(catalog)));
  EstimationServer server(&router);
  server.Start();
  est::EstimateRequest request;
  request.query = ShapeA(30.0);
  // Nothing else is queued and no size or deadline gates the flush: an idle
  // dispatcher answers the lone request as a batch of one.
  EXPECT_TRUE(server.Estimate(request).ok());
  EXPECT_EQ(server.BatchesFlushed(), 1u);
  server.Stop();
}

// Whole-call admission: the single dispatcher of an idle server sees either
// none or all of an EstimateMany call on one route, never a prefix of it.
TEST(EstimationServer, EstimateManyCallIsOneBatchOnAnIdleServer) {
  const storage::Catalog catalog = ServerCatalog();
  ModelRouter router(SharedModelOptions(Postgres(catalog)));
  EstimationServerOptions sopts;
  sopts.num_workers = 1;
  EstimationServer server(&router, sopts);
  server.Start();
  std::vector<est::EstimateRequest> requests(48);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].query = ShapeA(static_cast<double>(i), 4.0 + i % 7);
  }
  const auto results = server.EstimateMany(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->route_id, results.front()->route_id);
  }
  EXPECT_EQ(server.BatchesFlushed(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace qfcard::serve
