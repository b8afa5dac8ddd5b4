#include "testing/query_fuzzer.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/adaptive_estimator.h"
#include "adapt/feedback_bus.h"
#include "common/random.h"
#include "common/status.h"
#include "common/str_util.h"
#include "estimators/registry.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "query/executor.h"
#include "query/query.h"
#include "serve/serving_estimator.h"
#include "storage/catalog.h"
#include "workload/forest.h"
#include "workload/query_gen.h"

namespace qfcard::testing {

// Adaptation fuzzing (docs/adaptive.md): random mixed-predicate queries run
// through a live execution-feedback loop — estimate, execute, publish, learn
// — and the round cross-checks the two safety contracts the subsystem
// claims. First, the loop is an observer: the executor's counts with the
// feedback hook installed must equal the counts without it (an adaptive
// front that perturbs truth would poison every consumer downstream).
// Second, the learners are deterministic: a twin front fed the identical
// record stream through its own bus must reproduce every estimate byte for
// byte, tier choices included.
void AdaptiveFuzzRound(const FuzzRoundContext& ctx) {
  const int round = ctx.round;
  common::Rng rng(
      common::MixSeed(ctx.options->seed, static_cast<uint64_t>(round)));

  workload::ForestOptions fo;
  fo.num_rows = rng.UniformInt(150, 400);
  fo.num_attributes = static_cast<int>(rng.UniformInt(2, 5));
  fo.seed = rng.Next();
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fo)));
  const storage::Table& table = catalog.table(0);

  workload::PredicateGenOptions go;
  go.max_attrs = fo.num_attributes;
  go.max_not_equals = 2;
  const std::vector<query::Query> queries = workload::GeneratePredicateWorkload(
      table, ctx.options->queries_per_round, go, rng);

  // Ground truth with no feedback loop anywhere near the executor.
  std::vector<int64_t> baseline;
  baseline.reserve(queries.size());
  for (const query::Query& q : queries) {
    const auto count = query::Executor::Count(table, q);
    if (!count.ok()) {
      ctx.RecordFailure("adaptive-baseline-exec", count.status().ToString());
      return;
    }
    baseline.push_back(count.value());
  }

  // Both fronts share the deterministic const pieces; each owns its learner
  // state. Tight arbiter knobs so tier switches actually happen within one
  // round's query budget.
  const auto base = std::shared_ptr<const est::CardinalityEstimator>(
      est::MakeEstimator("postgres", catalog).value());
  const auto serving = std::make_shared<serve::ServingEstimator>(base, 1);
  const auto featurizer = std::shared_ptr<const featurize::Featurizer>(
      featurize::MakeFeaturizer(featurize::QftKind::kComplex,
                                featurize::FeatureSchema::FromTable(table)));
  adapt::AdaptiveOptions aopts;
  aopts.mode = adapt::AdaptiveMode::kAuto;
  aopts.arbiter.window = 16;
  aopts.arbiter.min_samples = 4;
  aopts.arbiter.hold_observations = 4;

  adapt::AdaptiveEstimator live(base, serving, featurizer, aopts);
  adapt::FeedbackBus live_bus;
  live.ConnectTo(&live_bus);

  // The live loop: predict, then execute with the hook publishing into the
  // front. Executor truth must match the hook-free baseline exactly.
  std::vector<est::EstimateResponse> live_responses;
  live_responses.reserve(queries.size());
  {
    adapt::ExecutionFeedbackConnection conn(&live_bus);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (ctx.Full()) {
        live.Disconnect();
        return;
      }
      ++ctx.report->queries;
      est::EstimateRequest request;
      request.query = queries[i];
      const auto resp = live.Estimate(request);
      if (!resp.ok()) {
        ctx.RecordFailure("adaptive-estimate", resp.status().ToString());
        live.Disconnect();
        return;
      }
      live_responses.push_back(resp.value());
      ++ctx.report->checks;
      if (resp.value().tier == est::ServedTier::kNone) {
        ctx.RecordFailure(
            "adaptive-tier-stamp",
            common::StrFormat("query %llu served with tier=none",
                              static_cast<unsigned long long>(i)));
      }
      const auto count = query::Executor::Count(table, queries[i]);
      if (!count.ok()) {
        ctx.RecordFailure("adaptive-live-exec", count.status().ToString());
        live.Disconnect();
        return;
      }
      ++ctx.report->checks;
      if (count.value() != baseline[i]) {
        ctx.RecordFailure(
            "adaptive-truth-changed",
            common::StrFormat(
                "query %llu: count %lld with the feedback loop live vs %lld "
                "without it",
                static_cast<unsigned long long>(i),
                static_cast<long long>(count.value()),
                static_cast<long long>(baseline[i])));
      }
    }
  }
  live.Disconnect();

  // Twin determinism: an identically configured front fed the same records
  // through its own bus must reproduce every estimate byte for byte.
  adapt::AdaptiveEstimator twin(base, serving, featurizer, aopts);
  adapt::FeedbackBus twin_bus;
  twin.ConnectTo(&twin_bus);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (ctx.Full()) break;
    est::EstimateRequest request;
    request.query = queries[i];
    const auto resp = twin.Estimate(request);
    if (!resp.ok()) {
      ctx.RecordFailure("adaptive-twin-estimate", resp.status().ToString());
      break;
    }
    ++ctx.report->checks;
    const double live_estimate = live_responses[i].estimate;
    const double twin_estimate = resp.value().estimate;
    if (std::memcmp(&live_estimate, &twin_estimate, sizeof(double)) != 0 ||
        resp.value().tier != live_responses[i].tier) {
      ctx.RecordFailure(
          "adaptive-divergence",
          common::StrFormat(
              "query %llu: live %.17g (tier %s) vs twin %.17g (tier %s) on "
              "the identical feedback stream",
              static_cast<unsigned long long>(i), live_estimate,
              est::ServedTierName(live_responses[i].tier), twin_estimate,
              est::ServedTierName(resp.value().tier)));
    }
    adapt::FeedbackRecord record;
    record.query = queries[i];
    record.true_card = static_cast<double>(baseline[i]);
    twin_bus.Publish(std::move(record));
  }
  twin.Disconnect();
}

}  // namespace qfcard::testing
