// qfcard_server: the estimation server of docs/serving.md end to end —
// feature-space routing, cross-request micro-batching, and a hot swap under
// concurrent traffic.
//
//   $ ./build/examples/qfcard_server                      # intelligent mode
//   $ ./build/examples/qfcard_server --mode=controlled
//
// N client threads (default 4) stream three families of query shapes at an
// EstimationServer:
//   - conjunctive ranges   (A0 between x and y, A1 >= z)      [the busiest]
//   - IN-lists             (A2 = a OR A2 = b OR A2 = c)
//   - mixed disjuncts      ((A0 between x and y OR A0 = v) AND A3 = w)
// Every family hashes to its own feature space (serve/fss.h), so the
// ModelRouter gives each its own hot-swappable model.
//
// Flags:
//   --mode=M      routing policy: intelligent (default) auto-creates a route
//                 per new shape via a factory that serves a statistics-based
//                 postgres model instantly; forced sends every shape to one
//                 default route; controlled serves only the pre-registered
//                 range family and rejects the rest
//   --clients=N   number of concurrent client threads (default 4)
//
// Telemetry flags (--metrics-out, --trace-out) and
// --adaptive=<off|knn|residual|auto> are shared with the other examples;
// see examples/common_flags.h. The snapshot carries the serve.route.*
// families that tools/validate_metrics.py --profile=server checks in CI.
//
// With --adaptive=MODE the demo appends a drift episode (docs/adaptive.md):
// the forest regenerates with new correlations and 4x fewer rows, and the
// busiest route's (now stale) model keeps serving — but behind an
// adapt::AdaptiveEstimator front fed by the execution-feedback hook. The
// greppable "tier hand-off" lines show the arbiter demoting the route from
// the stale ML tier to the online learners as the feedback arrives.
//
// In intelligent mode the demo also trains a gradient-boosting model on the
// busiest family and swaps it into that route while the clients are still
// running, then proves the server transparent: a verification batch is
// answered once through the server and once directly on the route's model,
// and the two result vectors must be byte-identical (the greppable
// "server-vs-direct" line). Sized by QFCARD_SCALE like the benches.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common_flags.h"
#include "qfcard.h"

using namespace qfcard;  // NOLINT: example brevity

namespace {

struct ServerOptions {
  serve::RoutePolicy mode = serve::RoutePolicy::kIntelligent;
  int clients = 4;
  examples::CommonFlags common;
};

common::StatusOr<ServerOptions> ParseArgs(int argc, char** argv) {
  ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    QFCARD_ASSIGN_OR_RETURN(
        const bool consumed, examples::TryParseCommonFlag(arg, &opts.common));
    if (consumed) continue;
    if (arg.rfind("--mode=", 0) == 0) {
      QFCARD_ASSIGN_OR_RETURN(opts.mode,
                              serve::ParseRoutePolicy(arg.substr(7)));
    } else if (arg.rfind("--clients=", 0) == 0) {
      opts.clients = std::atoi(arg.substr(10).c_str());
      if (opts.clients < 1) {
        return common::Status::InvalidArgument(
            "--clients= wants a positive count, got: " + arg.substr(10));
      }
    } else {
      return common::Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (opts.common.save_model || opts.common.load_model) {
    return common::Status::InvalidArgument(
        "qfcard_server builds its models in-process; "
        "--save-model/--load-model are not supported");
  }
  return opts;
}

// --- The three workload shape families -------------------------------------
// Literals vary per call; the shape (and therefore the feature-space hash)
// never does.

query::CompoundPredicate Compound(
    int col, const std::vector<std::vector<std::pair<query::CmpOp, double>>>&
                 clauses) {
  const query::ColumnRef ref{0, col};
  query::CompoundPredicate cp;
  cp.col = ref;
  for (const auto& clause_spec : clauses) {
    query::ConjunctiveClause clause;
    for (const auto& [op, value] : clause_spec) {
      clause.preds.push_back(query::SimplePredicate{ref, op, value});
    }
    cp.disjuncts.push_back(std::move(clause));
  }
  return cp;
}

/// Family 0 (the busiest): conjunctive ranges, A0 in [lo, hi] AND A1 >= z.
query::Query RangeQuery(const std::string& table, common::Rng& rng) {
  query::Query q;
  q.tables.push_back(query::TableRef{table, table});
  const double lo = rng.Uniform(0.0, 2000.0);
  q.predicates.push_back(
      Compound(0, {{{query::CmpOp::kGe, lo},
                    {query::CmpOp::kLe, lo + rng.Uniform(50.0, 800.0)}}}));
  q.predicates.push_back(
      Compound(1, {{{query::CmpOp::kGe, rng.Uniform(0.0, 1500.0)}}}));
  return q;
}

/// Family 1: IN-lists, A2 = a OR A2 = b OR A2 = c.
query::Query InListQuery(const std::string& table, common::Rng& rng) {
  query::Query q;
  q.tables.push_back(query::TableRef{table, table});
  q.predicates.push_back(
      Compound(2, {{{query::CmpOp::kEq, rng.Uniform(0.0, 40.0)}},
                   {{query::CmpOp::kEq, rng.Uniform(0.0, 40.0)}},
                   {{query::CmpOp::kEq, rng.Uniform(0.0, 40.0)}}}));
  return q;
}

/// Family 2: mixed disjuncts, (A0 in [lo, hi] OR A0 = v) AND A3 = w.
query::Query MixedQuery(const std::string& table, common::Rng& rng) {
  query::Query q;
  q.tables.push_back(query::TableRef{table, table});
  const double lo = rng.Uniform(0.0, 2000.0);
  q.predicates.push_back(
      Compound(0, {{{query::CmpOp::kGe, lo},
                    {query::CmpOp::kLe, lo + rng.Uniform(50.0, 400.0)}},
                   {{query::CmpOp::kEq, rng.Uniform(0.0, 2000.0)}}}));
  q.predicates.push_back(
      Compound(3, {{{query::CmpOp::kEq, rng.Uniform(0.0, 30.0)}}}));
  return q;
}

query::Query FamilyQuery(int family, const std::string& table,
                         common::Rng& rng) {
  switch (family % 3) {
    case 0:
      return RangeQuery(table, rng);
    case 1:
      return InListQuery(table, rng);
    default:
      return MixedQuery(table, rng);
  }
}

std::shared_ptr<serve::ServingEstimator> PostgresServing(
    const storage::Catalog& catalog) {
  auto built =
      est::MakeEstimator("postgres", catalog, est::EstimatorOptions{}).value();
  return std::make_shared<serve::ServingEstimator>(
      std::shared_ptr<const est::CardinalityEstimator>(std::move(built)),
      /*version=*/1);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts_or = ParseArgs(argc, argv);
  if (!opts_or.ok()) {
    std::fprintf(stderr, "%s\n", opts_or.status().ToString().c_str());
    return 1;
  }
  const ServerOptions& opts = opts_or.value();
  examples::ApplyTelemetryFlags(opts.common);

  workload::ForestOptions fopts;
  fopts.num_rows = common::ScalePick(3000, 15000, 120000);
  fopts.num_attributes = 6;
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fopts)));
  const storage::Table& table = catalog.table(0);
  const std::string table_name = table.name();

  // The range family's feature space, computed up front: it seeds the
  // controlled-mode route table and names the hot-swap target.
  common::Rng probe_rng(1);
  const query::Query range_probe = RangeQuery(table_name, probe_rng);
  const uint64_t range_fss = serve::FeatureSpaceHash(range_probe);

  serve::ModelRouterOptions ropts;
  ropts.policy = opts.mode;
  // Every route's first model is v1; a hot swap publishes the route's
  // active version + 1, so versions never depend on traffic order.
  if (opts.mode == serve::RoutePolicy::kIntelligent) {
    // First sight of a shape serves a statistics-based model instantly; a
    // trained model can be hot-swapped in behind the same route id later.
    ropts.factory = [&catalog](uint64_t, const query::Query&)
        -> common::StatusOr<std::shared_ptr<serve::ServingEstimator>> {
      return PostgresServing(catalog);
    };
  }
  serve::ModelRouter router(ropts);
  if (opts.mode == serve::RoutePolicy::kForced) {
    router.SetDefaultRoute(PostgresServing(catalog));
  } else if (opts.mode == serve::RoutePolicy::kControlled) {
    QFCARD_CHECK_OK(router.AddRoute(range_fss, PostgresServing(catalog),
                                    serve::FeatureSpaceSignature(range_probe)));
  }

  serve::EstimationServer server(&router);
  server.Start();
  std::fprintf(stderr, "serving '%s' (%lld rows), policy=%s, clients=%d\n",
               table_name.c_str(), static_cast<long long>(table.num_rows()),
               serve::RoutePolicyToString(opts.mode), opts.clients);

  // --- Concurrent traffic --------------------------------------------------
  const int per_client =
      static_cast<int>(common::ScalePick(80, 240, 1200));
  std::atomic<long> served{0};
  std::atomic<long> rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(opts.clients));
  for (int c = 0; c < opts.clients; ++c) {
    clients.emplace_back([&, c] {
      common::Rng rng(100 + static_cast<uint64_t>(c));
      for (int i = 0; i < per_client; ++i) {
        // The range family gets a double share — it is the "busiest route"
        // the hot swap targets.
        const int family = (i % 4 == 0 || i % 4 == 2) ? 0 : (i % 4 == 1 ? 1 : 2);
        est::EstimateRequest request;
        request.query = FamilyQuery(family, table_name, rng);
        const auto resp_or = server.Estimate(request);
        if (resp_or.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // --- Hot swap under load (intelligent mode) ------------------------------
  if (opts.mode == serve::RoutePolicy::kIntelligent) {
    // Train the upgrade offline while the clients hammer the server.
    common::Rng train_rng(7);
    std::vector<query::Query> train_queries;
    const int num_train = static_cast<int>(common::ScalePick(200, 600, 4000));
    for (int i = 0; i < num_train; ++i) {
      train_queries.push_back(RangeQuery(table_name, train_rng));
    }
    const std::vector<workload::LabeledQuery> labeled =
        workload::LabelOnTable(table, train_queries, /*drop_empty=*/true)
            .value();
    est::EstimatorOptions eopts;
    eopts.gbm.num_trees = 40;
    auto gb = est::MakeEstimator("gb+conjunctive", catalog, eopts).value();
    {
      std::vector<query::Query> qs;
      std::vector<double> cards;
      for (const auto& lq : labeled) {
        qs.push_back(lq.query);
        cards.push_back(lq.card);
      }
      QFCARD_CHECK_OK(gb->Train(qs, cards, 0.1, 3));
    }

    // Wait until the clients have opened the busiest route, then swap the
    // trained model in behind its id — traffic in flight keeps running on
    // the model it pinned; the next micro-batch serves the upgrade.
    std::shared_ptr<serve::ServingEstimator> route;
    while ((route = router.FindRoute(range_fss)) == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const uint64_t gb_version = route->ActiveVersion() + 1;
    route->Swap(
        std::shared_ptr<const est::CardinalityEstimator>(std::move(gb)),
        gb_version);
    std::fprintf(stderr,
                 "hot-swapped gb+conjunctive v%llu into route %s (\"%s\") "
                 "under load\n",
                 static_cast<unsigned long long>(gb_version),
                 serve::FormatFss(range_fss).c_str(),
                 router.RouteLabel(range_fss).c_str());
  }

  for (std::thread& t : clients) t.join();

  // --- Transparency check: server vs direct, byte for byte -----------------
  // The same verification batch answered through the micro-batching server
  // and directly on the route's model must agree exactly (docs/serving.md).
  const uint64_t verify_route =
      opts.mode == serve::RoutePolicy::kForced ? 0 : range_fss;
  const std::shared_ptr<serve::ServingEstimator> direct =
      router.FindRoute(verify_route);
  if (direct != nullptr) {
    common::Rng verify_rng(17);
    std::vector<est::EstimateRequest> requests(64);
    std::vector<query::Query> queries;
    for (auto& request : requests) {
      request.query = RangeQuery(table_name, verify_rng);
      queries.push_back(request.query);
    }
    const auto via_server = server.EstimateMany(requests);
    const std::vector<double> via_direct =
        direct->EstimateBatch(queries).value();
    bool identical = true;
    for (size_t i = 0; i < requests.size(); ++i) {
      identical = identical && via_server[i].ok() &&
                  std::memcmp(&via_server[i].value().estimate, &via_direct[i],
                              sizeof(double)) == 0;
    }
    std::printf("server-vs-direct: %s (%zu queries, route %s, model v%llu)\n",
                identical ? "byte-identical" : "MISMATCH", requests.size(),
                serve::FormatFss(verify_route).c_str(),
                static_cast<unsigned long long>(direct->ActiveVersion()));
    if (!identical) return 1;
  }

  server.Stop();

  std::printf("traffic: served=%ld rejected=%ld over %zu route(s), "
              "%llu micro-batch(es)\n",
              served.load(), rejected.load(), router.NumRoutes(),
              static_cast<unsigned long long>(server.BatchesFlushed()));
  for (const uint64_t id : router.RouteIds()) {
    std::printf("  route %s  \"%s\"\n", serve::FormatFss(id).c_str(),
                router.RouteLabel(id).c_str());
  }
  if (opts.mode == serve::RoutePolicy::kControlled && rejected.load() == 0) {
    std::fprintf(stderr,
                 "error: controlled mode should have rejected the "
                 "unregistered families\n");
    return 1;
  }

  // --- Drift episode behind the adaptive front (--adaptive=MODE) -----------
  // The route keeps serving the model it trained on the ORIGINAL table, but
  // the data underneath drifts wholesale. The adaptive front watches the
  // executed truths and hands the route off to whichever tier the feedback
  // says is best — the online learners while the ML path is stale.
  if (opts.common.adaptive != adapt::AdaptiveMode::kOff) {
    const uint64_t episode_route_id =
        opts.mode == serve::RoutePolicy::kForced ? 0 : range_fss;
    const std::shared_ptr<serve::ServingEstimator> route =
        router.FindRoute(episode_route_id);
    if (route == nullptr) {
      std::fprintf(stderr, "error: adaptive episode needs route %s\n",
                   serve::FormatFss(episode_route_id).c_str());
      return 1;
    }

    // Instantaneous drift: new latent correlations, 4x fewer rows. The
    // route's model and the postgres synopses both describe the old table.
    workload::ForestOptions drift_opts = fopts;
    drift_opts.seed = 977;
    drift_opts.num_rows = std::max<int64_t>(fopts.num_rows / 4, 500);
    const storage::Table drifted = workload::MakeForestTable(drift_opts);

    est::EstimatorOptions base_opts;
    base_opts.table = table_name;
    const auto base = std::shared_ptr<const est::CardinalityEstimator>(
        est::MakeEstimator("postgres", catalog, base_opts).value());
    const auto featurizer = std::shared_ptr<const featurize::Featurizer>(
        featurize::MakeFeaturizer(featurize::QftKind::kComplex,
                                  featurize::FeatureSchema::FromTable(table)));
    adapt::AdaptiveOptions aopts;
    aopts.mode = opts.common.adaptive;
    aopts.arbiter.window = 32;
    aopts.arbiter.min_samples = 6;
    aopts.arbiter.hold_observations = 12;
    adapt::AdaptiveEstimator adaptive(base, route, featurizer, aopts);
    adaptive.TrackServingVersion(route.get());
    adapt::FeedbackBus bus;
    adaptive.ConnectTo(&bus);

    const int ticks = static_cast<int>(common::ScalePick(160, 320, 1200));
    // Served-tier counts per episode half, indexed by est::ServedTier.
    int tiers_served[2][4] = {};
    {
      // The hook is live only for this serial tick loop, so the feedback
      // order (and therefore the learner state) is reproducible.
      adapt::ExecutionFeedbackConnection conn(&bus);
      common::Rng rng(900);
      for (int i = 0; i < ticks; ++i) {
        est::EstimateRequest request;
        request.query = RangeQuery(table_name, rng);
        const auto resp_or = adaptive.Estimate(request);
        QFCARD_CHECK_OK(resp_or.status());
        ++tiers_served[i * 2 / ticks]
                      [static_cast<int>(resp_or.value().tier) & 3];
        // Executing the count on the drifted table publishes the truth into
        // the bus — after the serve, so no tier is graded on a query it
        // already absorbed.
        QFCARD_CHECK_OK(
            query::Executor::Count(drifted, request.query).status());
      }
    }
    adaptive.Disconnect();

    std::printf(
        "adaptive drift episode (mode=%s): %d ticks against drifted '%s' "
        "(%lld rows) behind route %s\n",
        adapt::AdaptiveModeName(opts.common.adaptive), ticks,
        table_name.c_str(), static_cast<long long>(drifted.num_rows()),
        serve::FormatFss(episode_route_id).c_str());
    for (int phase = 0; phase < 2; ++phase) {
      std::printf("  served %s half: residual=%d knn=%d ml=%d\n",
                  phase == 0 ? "first " : "second", tiers_served[phase][1],
                  tiers_served[phase][2], tiers_served[phase][3]);
    }
    const std::vector<adapt::TierArbiter::TierSwitch> switches =
        adaptive.arbiter().RecentSwitches();
    for (const auto& sw : switches) {
      std::printf(
          "  tier hand-off: %s->%s (challenger p95 %.2f vs incumbent %.2f) "
          "at observation %llu\n",
          est::ServedTierName(sw.from), est::ServedTierName(sw.to), sw.to_p95,
          sw.from_p95, static_cast<unsigned long long>(sw.at_observation));
    }
    if (switches.empty()) {
      std::printf("  no tier hand-off (feedback never beat the incumbent "
                  "by the switch margin)\n");
    }
  }

  if (!examples::WriteTelemetryOutputs(opts.common)) return 1;
  return 0;
}
