// serving_loop: the full model lifecycle of docs/serving.md in one process.
//
//   1. Train a gradient-boosting estimator on a forest workload, publish it
//      to a serve::ModelStore, and serve it through a ServingEstimator.
//   2. Stream labeled traffic through the server; every true cardinality is
//      published to the adapt::FeedbackBus (whose window the Retrainer
//      trains on), and each batch's p95 q-error is checked for drift.
//   3. Shift the data distribution (a second forest with different latent
//      factors) so the batch p95 crosses the drift threshold, then retrain
//      synchronously on the recent feedback.
//   4. The retrainer promotes the candidate only because its holdout p95
//      improves, publishes it as version 2, and hot-swaps it under the
//      still-running traffic — the loop then shows the recovered accuracy.
//
//   $ ./build/examples/serving_loop [--model-dir=PATH] [--metrics-out=PATH]
//                                   [--trace-out=PATH]
//
// Telemetry flags are shared with the other examples (common_flags.h);
// --model-dir overrides the default on-disk store location. Sized by
// QFCARD_SCALE (smoke / default / full) like the benches.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common_flags.h"
#include "qfcard.h"

using namespace qfcard;  // NOLINT: example brevity

namespace {

/// A batch whose p95 q-error exceeds this (over at least kDriftMinSamples
/// queries) is flagged as drifted.
constexpr double kDriftP95 = 8.0;
constexpr size_t kDriftMinSamples = 30;

struct Traffic {
  std::vector<query::Query> queries;
  std::vector<double> truths;
};

/// Labeled single-table traffic drawn from `table`.
Traffic MakeTraffic(const storage::Table& table, int count, uint64_t seed) {
  common::Rng rng(seed);
  const std::vector<query::Query> raw = workload::GeneratePredicateWorkload(
      table, count, workload::ConjunctiveWorkloadOptions(4), rng);
  const std::vector<workload::LabeledQuery> labeled =
      workload::LabelOnTable(table, raw, /*drop_empty=*/true).value();
  Traffic t;
  for (const auto& lq : labeled) {
    t.queries.push_back(lq.query);
    t.truths.push_back(lq.card);
  }
  return t;
}

/// Streams one batch through the server via the request/response API
/// (docs/batch_api.md), publishing every truth to the feedback bus and
/// reporting the batch's q-error. The responses also carry which model
/// version served the batch; a p95 above kDriftP95 is flagged as drift.
void ServeBatch(const serve::ServingEstimator& serving,
                adapt::FeedbackBus& bus, const Traffic& traffic,
                const char* label) {
  std::vector<est::EstimateRequest> requests(traffic.queries.size());
  for (size_t i = 0; i < traffic.queries.size(); ++i) {
    requests[i].query = traffic.queries[i];
  }
  const std::vector<est::EstimateResponse> responses =
      serving.EstimateRequests(requests).value();
  std::vector<double> qerrors;
  for (size_t i = 0; i < responses.size(); ++i) {
    adapt::FeedbackRecord record;
    record.query = traffic.queries[i];
    record.true_card = traffic.truths[i];
    bus.Publish(std::move(record));
    qerrors.push_back(ml::QError(traffic.truths[i], responses[i].estimate));
  }
  const uint64_t served_version =
      responses.empty() ? serving.ActiveVersion() : responses[0].model_version;
  const ml::QErrorSummary summary =
      ml::QErrorSummary::FromErrors(std::move(qerrors));
  const bool drifted = responses.size() >= kDriftMinSamples &&
                       summary.p95 > kDriftP95;
  std::printf("%-22s v%llu  %4zu queries  median=%6.2f  p95=%8.2f%s\n", label,
              static_cast<unsigned long long>(served_version),
              traffic.queries.size(), summary.median, summary.p95,
              drifted ? "  [drift flagged]" : "");
}

}  // namespace

int main(int argc, char** argv) {
  examples::CommonFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto consumed_or = examples::TryParseCommonFlag(arg, &flags);
    if (!consumed_or.ok() || !consumed_or.value()) {
      std::fprintf(stderr, "%s\n",
                   consumed_or.ok()
                       ? ("unknown flag: " + arg).c_str()
                       : consumed_or.status().ToString().c_str());
      return 1;
    }
  }
  if (flags.save_model || flags.load_model) {
    std::fprintf(stderr,
                 "serving_loop scripts its own publish/load cycle; "
                 "--save-model/--load-model are not supported\n");
    return 1;
  }
  examples::ApplyTelemetryFlags(flags);

  const int64_t rows = common::ScalePick(3000, 20000, 200000);
  const int traffic_size = static_cast<int>(common::ScalePick(150, 400, 2000));

  // Two tables with the same schema but different latent correlation: the
  // second one is the "after the upstream pipeline changed" world.
  workload::ForestOptions before_opts;
  before_opts.num_rows = rows;
  before_opts.num_attributes = 6;
  before_opts.seed = 42;
  workload::ForestOptions after_opts = before_opts;
  after_opts.seed = 977;
  after_opts.num_rows = rows / 4;  // the upstream feed also shrank 4x

  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(before_opts)));
  // Same schema and table name, different correlation structure: labeling
  // traffic on it yields the truths the production table would produce
  // after the upstream pipeline changed.
  const storage::Table shifted = workload::MakeForestTable(after_opts);
  const Traffic train = MakeTraffic(catalog.table(0), 3 * traffic_size, 7);
  const Traffic live_before = MakeTraffic(catalog.table(0), traffic_size, 11);
  const Traffic live_after = MakeTraffic(shifted, traffic_size, 13);

  // Train v1 and publish it.
  est::EstimatorOptions eopts;
  eopts.gbm.num_trees = 60;
  auto estimator = est::MakeEstimator("gb+conjunctive", catalog, eopts).value();
  QFCARD_CHECK_OK(estimator->Train(train.queries, train.truths, 0.1, 1));
  serve::ModelStore store(
      flags.model_dir.empty() ? "serving_loop_store" : flags.model_dir);
  const uint64_t v1 =
      store.Publish(
               serve::BundleFromEstimator(*estimator, "gb+conjunctive").value())
          .value();
  serve::ServingEstimator serving(
      std::shared_ptr<const est::CardinalityEstimator>(std::move(estimator)),
      v1);

  // Keep only the most recent batch of feedback, so a retrain after the
  // shift trains on post-shift truths instead of averaging both worlds.
  adapt::FeedbackBusOptions bopts;
  bopts.capacity = static_cast<size_t>(traffic_size);
  adapt::FeedbackBus bus(bopts);
  adapt::RetrainerOptions ropts;
  ropts.estimator_name = "gb+conjunctive";
  ropts.estimator_opts = eopts;
  ropts.min_feedback = 64;
  ropts.store = &store;
  adapt::Retrainer retrainer(&serving, &catalog, &bus, ropts);

  std::printf("serving '%s' from %s\n\n", serving.name().c_str(),
              store.root().c_str());
  ServeBatch(serving, bus, live_before, "in-distribution");

  // The world changes: the same traffic shape now reflects the shifted
  // table and the batch p95 blows through the threshold. Retrain once on the
  // feedback gathered above (also when this scale never crosses it).
  ServeBatch(serving, bus, live_after, "after data shift");
  const adapt::RetrainResult result = retrainer.RetrainNow().value();
  std::printf("\nretrain: %s (holdout p95 %.2f -> %.2f)\n",
              result.detail.c_str(), result.stale_p95, result.candidate_p95);

  ServeBatch(serving, bus, live_after, "after hot-swap");
  std::printf("\nstore now holds %zu version(s); swaps=%llu\n",
              store.ListVersions().value().size(),
              static_cast<unsigned long long>(serving.SwapCount()));
  if (!examples::WriteTelemetryOutputs(flags)) return 1;
  return 0;
}
