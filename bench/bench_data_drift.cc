// Section 5.5.2 (data drift): when data changes, the paper recommends simply
// reconstructing the estimator, because the expensive step is obtaining
// labeled queries, not featurization or training. This bench measures the
// full reconstruction pipeline stage by stage — query generation + labeling
// (the paper spent 3.5 days on 125k queries), featurization (1.5 minutes),
// and training (GB 6s / NN 21min / MSCN 41min at paper scale) — so the
// *ratios* can be compared to the paper's.
//
// The second half exercises the serve/ recovery loop the paper's
// recommendation implies: a ServingEstimator holds the stale model while a
// Retrainer rebuilds from drifted feedback, promotes only because the
// holdout p95 improves, and hot-swaps — then a deliberately weak candidate
// demonstrates the other side of the promotion gate (rejected, no swap).
//
// --stream replaces the one-shot recovery with a continuous drift stream
// (docs/adaptive.md): after an instantaneous data drift, every tick
// estimates one live query, executes it (the execution-feedback hook
// publishes the truth into an adapt::FeedbackBus), and the bus feeds both
// recovery paths — the Retrainer (retrain-only baseline), which trains on
// the bus window, and the adapt::AdaptiveEstimator (kNN + residual tiers in
// front of the SAME shared ServingEstimator), which subscribes to it. A
// route-aligned holdout is scored every few ticks; the report (kind
// "drift_stream", tools/bench_schema.json) records how many ticks each path
// needed to recover. With --deterministic the report zeroes timings and
// records threads=0, so the bytes are identical at every QFCARD_THREADS
// (feedback order is the serial tick loop).

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <utility>

#include "bench_common.h"
#include "obs/snapshot.h"

namespace qfcard::bench {
namespace {

/// Bus window for both recovery modes: the Retrainer trains on the 4096 most
/// recent feedback records.
adapt::FeedbackBusOptions FeedbackWindow() {
  adapt::FeedbackBusOptions opts;
  opts.capacity = 4096;
  return opts;
}

void Run() {
  workload::ForestOptions fopts;
  fopts.num_rows = ForestRows();
  fopts.num_attributes = ForestAttrs();
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fopts)));
  const storage::Table& forest = *catalog.GetTable("forest").value();
  const featurize::FeatureSchema schema =
      featurize::FeatureSchema::FromTable(forest);

  const int n_queries = TrainQueries();
  eval::TablePrinter table({"stage", "time", "notes"});

  // Stage 1: generate + label (the dominant cost in the paper).
  obs::ScopedTimer label_timer;
  common::Rng rng(9090);
  const std::vector<query::Query> queries =
      workload::GeneratePredicateWorkload(
          forest, n_queries, workload::MixedWorkloadOptions(MaxQueryAttrs()),
          rng);
  const std::vector<workload::LabeledQuery> labeled =
      workload::LabelOnTable(forest, queries, true).value();
  table.AddRow({"generate + label queries",
                common::StrFormat("%.2fs", label_timer.Seconds()),
                common::StrFormat("%zu labeled queries", labeled.size())});

  // Stage 2: featurization (Limited Disjunction Encoding).
  const auto featurizer = MakeQft("complex", schema);
  obs::ScopedTimer feat_timer;
  std::vector<std::vector<float>> features;
  std::vector<float> labels;
  features.reserve(labeled.size());
  for (const workload::LabeledQuery& lq : labeled) {
    features.push_back(featurizer->Featurize(lq.query).value());
    labels.push_back(ml::CardToLabel(lq.card));
  }
  table.AddRow({"featurize (complex)",
                common::StrFormat("%.2fs", feat_timer.Seconds()),
                common::StrFormat("%.1f us/query",
                                  feat_timer.Seconds() * 1e6 /
                                      static_cast<double>(labeled.size()))});
  const ml::Dataset data = ml::Dataset::FromVectors(features, labels).value();

  // Stage 3: training, per model type.
  {
    obs::ScopedTimer timer;
    ml::GradientBoosting gb(DefaultGbm());
    QFCARD_CHECK_OK(gb.Fit(data, nullptr));
    table.AddRow({"train GB", common::StrFormat("%.2fs", timer.Seconds()),
                  common::StrFormat("%d trees", gb.num_trees())});
  }
  {
    obs::ScopedTimer timer;
    ml::FeedForwardNet nn(DefaultNn());
    QFCARD_CHECK_OK(nn.Fit(data, nullptr));
    table.AddRow({"train NN", common::StrFormat("%.2fs", timer.Seconds()),
                  common::StrFormat("%zu params",
                                    nn.SizeBytes() / sizeof(float))});
  }
  {
    obs::ScopedTimer timer;
    featurize::MscnFeaturizer mscn_feat(
        &catalog, nullptr,
        featurize::MscnFeaturizer::PredMode::kPerAttributeQft,
        DefaultConjOptions());
    est::MscnEstimator mscn(std::move(mscn_feat), DefaultMscn());
    std::vector<query::Query> qs;
    std::vector<double> cards;
    for (const workload::LabeledQuery& lq : labeled) {
      qs.push_back(lq.query);
      cards.push_back(lq.card);
    }
    QFCARD_CHECK_OK(mscn.Train(qs, cards, 0.1));
    table.AddRow({"train MSCN", common::StrFormat("%.2fs", timer.Seconds()),
                  "includes set featurization"});
  }

  std::printf(
      "Section 5.5.2: cost of reconstructing an estimator after data drift\n");
  table.Print(std::cout);
  std::printf(
      "\nPaper-scale reference: 3.5 days generating 125k queries, 1.5 min "
      "featurization, 6 s GB / 21 min NN / 41 min MSCN training. The shape "
      "to reproduce: labeling dominates; GB retrains orders of magnitude "
      "faster than the neural models.\n\n");

  // -------------------------------------------------------------------------
  // Recovery via serve/: stale model keeps serving while the retrainer
  // rebuilds from post-drift feedback and hot-swaps on improvement only.
  // -------------------------------------------------------------------------
  eval::TablePrinter recovery({"step", "time", "p95 q-error", "notes"});

  // v1: the pre-drift model, trained on the labeled workload from stage 1.
  est::EstimatorOptions eopts;
  eopts.gbm = DefaultGbm();
  eopts.conj = DefaultConjOptions();
  std::vector<query::Query> train_qs;
  std::vector<double> train_cards;
  for (const workload::LabeledQuery& lq : labeled) {
    train_qs.push_back(lq.query);
    train_cards.push_back(lq.card);
  }
  auto v1 = est::MakeEstimator("gb+complex", catalog, eopts).value();
  QFCARD_CHECK_OK(v1->Train(train_qs, train_cards, 0.1, 1));
  const std::filesystem::path store_root =
      std::filesystem::temp_directory_path() / "qfcard_bench_drift_store";
  std::filesystem::remove_all(store_root);
  serve::ModelStore store(store_root.string());
  const uint64_t v1_version =
      store.Publish(serve::BundleFromEstimator(*v1, "gb+complex").value())
          .value();
  serve::ServingEstimator serving(
      std::shared_ptr<const est::CardinalityEstimator>(std::move(v1)),
      v1_version);

  // The drifted world: same schema, new latent correlations, 4x fewer rows.
  workload::ForestOptions drift_opts = fopts;
  drift_opts.seed = 977;
  drift_opts.num_rows = ForestRows() / 4;
  const storage::Table drifted = workload::MakeForestTable(drift_opts);
  common::Rng drift_rng(4711);
  const int n_feedback = TestQueries();
  const std::vector<workload::LabeledQuery> feedback =
      workload::LabelOnTable(
          drifted,
          workload::GeneratePredicateWorkload(
              drifted, n_feedback,
              workload::MixedWorkloadOptions(MaxQueryAttrs()), drift_rng),
          true)
          .value();
  const std::vector<workload::LabeledQuery> drift_eval =
      workload::LabelOnTable(
          drifted,
          workload::GeneratePredicateWorkload(
              drifted, n_feedback / 2,
              workload::MixedWorkloadOptions(MaxQueryAttrs()), drift_rng),
          true)
          .value();

  const auto p95_on = [&](const std::vector<workload::LabeledQuery>& set) {
    std::vector<query::Query> qs;
    std::vector<double> truths;
    for (const workload::LabeledQuery& lq : set) {
      qs.push_back(lq.query);
      truths.push_back(lq.card);
    }
    const std::vector<double> est = serving.EstimateBatch(qs).value();
    return ml::QErrorSummary::FromErrors(ml::QErrors(truths, est)).p95;
  };

  const double stale_p95 = p95_on(drift_eval);
  recovery.AddRow({"serve stale v1 on drifted data", "-",
                   eval::FormatQ(stale_p95), "pre-recovery baseline"});

  // The drifted feedback is published once; both retrainers below train on
  // the same bus window.
  adapt::FeedbackBus bus(FeedbackWindow());
  for (const workload::LabeledQuery& lq : feedback) {
    adapt::FeedbackRecord record;
    record.query = lq.query;
    record.true_card = lq.card;
    bus.Publish(std::move(record));
  }
  adapt::RetrainerOptions ropts;
  ropts.estimator_name = "gb+complex";
  ropts.estimator_opts = eopts;
  ropts.store = &store;
  adapt::Retrainer retrainer(&serving, &catalog, &bus, ropts);
  obs::ScopedTimer retrain_timer;
  const adapt::RetrainResult promoted = retrainer.RetrainNow().value();
  recovery.AddRow(
      {"retrain + promote (gb+complex)",
       common::StrFormat("%.2fs", retrain_timer.Seconds()),
       common::StrFormat("%.2f -> %.2f", promoted.stale_p95,
                         promoted.candidate_p95),
       promoted.promoted ? common::StrFormat(
                               "promoted v%llu on %zu feedback queries",
                               static_cast<unsigned long long>(
                                   promoted.version),
                               promoted.feedback_used)
                         : promoted.detail});
  const double recovered_p95 = p95_on(drift_eval);
  recovery.AddRow({"serve promoted model on drifted data", "-",
                   eval::FormatQ(recovered_p95),
                   recovered_p95 < stale_p95 ? "recovered" : "NOT recovered"});

  // The gate's other half: a linear model cannot beat the fresh GB on the
  // same feedback, so the retrainer must refuse to swap it in.
  adapt::RetrainerOptions weak = ropts;
  weak.estimator_name = "linear+complex";
  adapt::Retrainer weak_retrainer(&serving, &catalog, &bus, weak);
  const uint64_t swaps_before = serving.SwapCount();
  obs::ScopedTimer weak_timer;
  const adapt::RetrainResult rejected = weak_retrainer.RetrainNow().value();
  recovery.AddRow(
      {"weak candidate (linear+complex)",
       common::StrFormat("%.2fs", weak_timer.Seconds()),
       common::StrFormat("%.2f vs %.2f", rejected.candidate_p95,
                         rejected.stale_p95),
       !rejected.promoted && serving.SwapCount() == swaps_before
           ? "rejected, no swap"
           : "UNEXPECTED promotion"});

  std::printf("serve/ drift recovery (store: %s)\n", store.root().c_str());
  recovery.Print(std::cout);
  std::printf(
      "\nThe stale model served every query during the %.1fs retrain; the "
      "swap is one atomic pointer publication (docs/serving.md).\n",
      retrain_timer.Seconds());
  std::filesystem::remove_all(store_root);
}

// ---------------------------------------------------------------------------
// --stream: continuous drift stream (docs/adaptive.md)
// ---------------------------------------------------------------------------

struct StreamFlags {
  bool stream = false;
  bool deterministic = false;
  std::string stream_out;   // BENCH_drift_stream.json path
  std::string metrics_out;  // obs snapshot path
  uint64_t seed = 20230808;
};

int StreamTicks() { return static_cast<int>(common::ScalePick(320, 600, 4000)); }
int StreamEvalEvery() { return static_cast<int>(common::ScalePick(20, 40, 200)); }
int StreamHoldout() { return static_cast<int>(common::ScalePick(80, 200, 600)); }
/// Cap on distinct feature-space routes the stream concentrates on: few
/// enough that every route gets dense feedback, so tier switches have
/// evidence. Routes are added densest-first until the stream is covered.
constexpr int kMaxStreamRoutes = 8;
/// Query-shape width of the live traffic: narrow on purpose (the stream
/// models a hot application pattern, not the full ad-hoc mix) so routes
/// repeat and the per-route windows fill within a few dozen ticks.
int StreamMaxAttrs() { return std::min(3, MaxQueryAttrs()); }

std::string JNum(double v) {
  if (!std::isfinite(v)) return "0";
  return common::StrFormat("%.6g", v);
}

/// p95 q-error of `serving_like` over the labeled holdout.
double HoldoutP95(const est::CardinalityEstimator& estimator,
                  const std::vector<workload::LabeledQuery>& holdout) {
  std::vector<query::Query> qs;
  std::vector<double> truths;
  qs.reserve(holdout.size());
  for (const workload::LabeledQuery& lq : holdout) {
    qs.push_back(lq.query);
    truths.push_back(lq.card);
  }
  const std::vector<double> est = estimator.EstimateBatch(qs).value();
  return ml::QErrorSummary::FromErrors(ml::QErrors(truths, est)).p95;
}

struct EvalPoint {
  int tick = 0;
  double retrain_p95 = 0.0;
  double adaptive_p95 = 0.0;
  // Tiers the adaptive front served on stream queries since the last eval.
  int served_residual = 0;
  int served_knn = 0;
  int served_ml = 0;
};

int RunStream(const StreamFlags& flags) {
  // Pre-drift world: train v1 (gb+complex) exactly like the one-shot half.
  workload::ForestOptions fopts;
  fopts.num_rows = ForestRows();
  fopts.num_attributes = ForestAttrs();
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fopts)));
  const storage::Table& forest = *catalog.GetTable("forest").value();
  const featurize::FeatureSchema schema =
      featurize::FeatureSchema::FromTable(forest);

  common::Rng rng(flags.seed);
  const std::vector<workload::LabeledQuery> pre_drift =
      workload::LabelOnTable(
          forest,
          workload::GeneratePredicateWorkload(
              forest, TrainQueries(),
              workload::MixedWorkloadOptions(MaxQueryAttrs()), rng),
          true)
          .value();
  est::EstimatorOptions eopts;
  eopts.gbm = DefaultGbm();
  eopts.conj = DefaultConjOptions();
  std::vector<query::Query> train_qs;
  std::vector<double> train_cards;
  for (const workload::LabeledQuery& lq : pre_drift) {
    train_qs.push_back(lq.query);
    train_cards.push_back(lq.card);
  }
  auto v1 = est::MakeEstimator("gb+complex", catalog, eopts).value();
  QFCARD_CHECK_OK(v1->Train(train_qs, train_cards, 0.1, 1));
  auto serving = std::make_shared<serve::ServingEstimator>(
      std::shared_ptr<const est::CardinalityEstimator>(std::move(v1)), 1);

  // The stale synopses tier: Postgres-style statistics built BEFORE the
  // drift. The residual corrector has to recover them from feedback alone.
  auto base = std::shared_ptr<const est::CardinalityEstimator>(
      est::MakeEstimator("postgres", catalog, eopts).value());
  auto featurizer = std::shared_ptr<const featurize::Featurizer>(
      MakeQft("complex", schema).release());

  // Instantaneous drift: new latent correlations, 4x fewer rows.
  workload::ForestOptions drift_opts = fopts;
  drift_opts.seed = 977;
  drift_opts.num_rows = ForestRows() / 4;
  const storage::Table drifted = workload::MakeForestTable(drift_opts);

  // Live traffic: one query pool over the drifted data, concentrated on the
  // densest feature-space routes so every route accumulates evidence. The
  // holdout comes from the SAME routes (it measures the traffic the stream
  // serves) and is labeled BEFORE the feedback hook is installed — nothing
  // the learners train on.
  const int ticks = StreamTicks();
  common::Rng stream_rng(common::MixSeed(flags.seed, 7));
  // Generation is cheap (only the holdout is labeled), and route density is
  // what matters: a big pool filtered to its densest routes yields a stream
  // of mostly-distinct queries per route instead of verbatim repeats.
  const std::vector<query::Query> pool = workload::GeneratePredicateWorkload(
      drifted, 40 * (ticks + StreamHoldout()),
      workload::MixedWorkloadOptions(StreamMaxAttrs()), stream_rng);
  std::map<uint64_t, int> route_freq;
  for (const query::Query& q : pool) ++route_freq[serve::FeatureSpaceHash(q)];
  std::vector<std::pair<int, uint64_t>> ranked;
  for (const auto& [fss, count] : route_freq) ranked.push_back({count, fss});
  std::sort(ranked.rbegin(), ranked.rend());
  std::map<uint64_t, bool> kept_routes;
  int covered = 0;
  for (const auto& [count, fss] : ranked) {
    if (static_cast<int>(kept_routes.size()) >= kMaxStreamRoutes) break;
    if (covered >= ticks + StreamHoldout()) break;
    kept_routes[fss] = true;
    covered += count;
  }
  // Interleaved split: every 4th kept query goes to the holdout (up to the
  // scale budget), the rest become the tick stream — same routes, same
  // literal distribution, disjoint queries.
  std::vector<query::Query> kept;
  std::vector<query::Query> holdout_qs;
  for (const query::Query& q : pool) {
    if (!kept_routes.count(serve::FeatureSpaceHash(q))) continue;
    if ((kept.size() + holdout_qs.size()) % 4 == 3 &&
        holdout_qs.size() < static_cast<size_t>(StreamHoldout())) {
      holdout_qs.push_back(q);
    } else {
      kept.push_back(q);
    }
  }
  if (kept.size() < 8 || holdout_qs.size() < 8) {
    std::fprintf(stderr,
                 "bench_data_drift: top routes too sparse (%zu stream / %zu "
                 "holdout queries)\n",
                 kept.size(), holdout_qs.size());
    return 1;
  }
  const std::vector<workload::LabeledQuery> holdout =
      workload::LabelOnTable(drifted, holdout_qs, true).value();

  // Both recovery paths share ONE ServingEstimator: retrain swaps land
  // under the adaptive front too, so the report isolates what the online
  // tiers add on top of (not instead of) the paper's retrain loop.
  adapt::FeedbackBus bus(FeedbackWindow());
  adapt::RetrainerOptions ropts;
  ropts.estimator_name = "gb+complex";
  ropts.estimator_opts = eopts;
  adapt::Retrainer retrainer(serving.get(), &catalog, &bus, ropts);

  adapt::AdaptiveOptions aopts;
  aopts.mode = adapt::AdaptiveMode::kAuto;
  aopts.arbiter.window = 32;
  aopts.arbiter.min_samples = 6;
  aopts.arbiter.hold_observations = 12;
  adapt::AdaptiveEstimator adaptive(base, serving, featurizer, aopts);
  adaptive.TrackServingVersion(serving.get());

  adaptive.ConnectTo(&bus);

  // Baseline before any feedback: both paths serve the stale v1 model
  // (empty learners fall through to ML), so they start from the same p95.
  const double stale_p95 = HoldoutP95(*serving, holdout);
  const double threshold = std::max(1.5, stale_p95 * 0.5);
  std::printf(
      "drift stream: %d ticks over %zu routes, holdout %zu queries\n"
      "stale holdout p95 %.2f, recovery threshold %.2f\n\n",
      ticks, kept_routes.size(), holdout.size(), stale_p95, threshold);

  std::vector<EvalPoint> timeline;
  {
    EvalPoint p0;
    p0.retrain_p95 = stale_p95;
    p0.adaptive_p95 = HoldoutP95(adaptive, holdout);
    timeline.push_back(p0);
  }

  obs::ScopedTimer wall_timer;
  const int swap_tick = ticks * 3 / 5;
  adapt::RetrainResult retrain_result;
  int tiers_r = 0, tiers_k = 0, tiers_m = 0;
  {
    // From here on, every executed count(*) feeds the bus.
    adapt::ExecutionFeedbackConnection conn(&bus);
    for (int tick = 1; tick <= ticks; ++tick) {
      const query::Query& q = kept[static_cast<size_t>(tick - 1) % kept.size()];
      // Predict BEFORE executing: the adaptive front must answer the live
      // query without having seen its truth (predict-then-learn, the same
      // order the arbiter's counterfactual scoring uses).
      est::EstimateRequest request;
      request.query = q;
      const est::EstimateResponse response = adaptive.Estimate(request).value();
      switch (response.tier) {
        case est::ServedTier::kHistogramResidual: ++tiers_r; break;
        case est::ServedTier::kKnn: ++tiers_k; break;
        default: ++tiers_m; break;
      }
      // Execute: the hook publishes (query, truth) into the bus, which keeps
      // it for the retrainer and fans it out to the adaptive learners.
      QFCARD_CHECK_OK(query::Executor::Count(drifted, q).status());

      // The retrain-only path recovers the paper's way: one full rebuild
      // once enough drifted feedback accumulated.
      if (tick == swap_tick) {
        retrain_result = retrainer.RetrainNow().value();
        std::printf("[tick %4d] retrain: %s\n", tick,
                    retrain_result.promoted
                        ? common::StrFormat(
                              "promoted v%llu (holdout p95 %.2f -> %.2f)",
                              static_cast<unsigned long long>(
                                  retrain_result.version),
                              retrain_result.stale_p95,
                              retrain_result.candidate_p95)
                              .c_str()
                        : retrain_result.detail.c_str());
      }
      if (tick % StreamEvalEvery() == 0) {
        EvalPoint p;
        p.tick = tick;
        p.retrain_p95 = HoldoutP95(*serving, holdout);
        p.adaptive_p95 = HoldoutP95(adaptive, holdout);
        p.served_residual = tiers_r;
        p.served_knn = tiers_k;
        p.served_ml = tiers_m;
        tiers_r = tiers_k = tiers_m = 0;
        timeline.push_back(p);
        std::printf(
            "[tick %4d] holdout p95: retrain-only %8.2f | adaptive %8.2f "
            "(served r/k/m %d/%d/%d)\n",
            p.tick, p.retrain_p95, p.adaptive_p95, p.served_residual,
            p.served_knn, p.served_ml);
      }
    }
  }
  const double wall_seconds = flags.deterministic ? 0.0 : wall_timer.Seconds();
  adaptive.Disconnect();

  // Tier arbitration history — the greppable promotion evidence.
  const std::vector<adapt::TierArbiter::TierSwitch> switches =
      adaptive.arbiter().RecentSwitches();
  int promotions = 0;
  std::printf("\ntier switches (%zu):\n", switches.size());
  for (const adapt::TierArbiter::TierSwitch& s : switches) {
    const bool promotion = static_cast<int>(s.to) > static_cast<int>(s.from);
    promotions += promotion ? 1 : 0;
    std::printf("  route %016llx: %s->%s (p95 %.2f vs %.2f)%s\n",
                static_cast<unsigned long long>(s.fss),
                est::ServedTierName(s.from), est::ServedTierName(s.to),
                s.from_p95, s.to_p95, promotion ? " [promotion]" : "");
  }

  // Recovery: first eval tick at or below the threshold, per path.
  int retrain_recovery = -1, adaptive_recovery = -1;
  int retrain_stale_ticks = 0, adaptive_stale_ticks = 0;
  for (const EvalPoint& p : timeline) {
    if (retrain_recovery < 0 && p.retrain_p95 <= threshold) {
      retrain_recovery = p.tick;
    }
    if (adaptive_recovery < 0 && p.adaptive_p95 <= threshold) {
      adaptive_recovery = p.tick;
    }
    retrain_stale_ticks += p.retrain_p95 > threshold ? 1 : 0;
    adaptive_stale_ticks += p.adaptive_p95 > threshold ? 1 : 0;
  }
  const bool faster =
      adaptive_recovery >= 0 &&
      (retrain_recovery < 0 || adaptive_recovery < retrain_recovery);
  std::printf(
      "\nrecovery to p95 <= %.2f: adaptive tick %d, retrain-only tick %d\n%s\n",
      threshold, adaptive_recovery, retrain_recovery,
      faster ? "adaptive recovered faster than retrain-only"
             : "adaptive NOT faster than retrain-only");

  if (!flags.stream_out.empty()) {
    const EvalPoint& last = timeline.back();
    std::string out = "{\"version\":1,\"kind\":\"drift_stream\"";
    out += ",\"name\":\"drift_stream\"";
    out += ",\"context\":{\"scale\":\"" +
           std::string(common::ScaleName(common::GetScale())) + "\"";
    out += common::StrFormat(
        ",\"threads\":%d",
        flags.deterministic ? 0 : common::GlobalPool().num_threads());
    out += common::StrFormat(",\"seed\":%llu",
                             static_cast<unsigned long long>(flags.seed));
    out += std::string(",\"deterministic\":") +
           (flags.deterministic ? "true" : "false") + "}";
    out += ",\"timeline\":[";
    for (size_t i = 0; i < timeline.size(); ++i) {
      const EvalPoint& p = timeline[i];
      if (i > 0) out += ",";
      out += common::StrFormat("{\"tick\":%d", p.tick);
      out += ",\"retrain_p95\":" + JNum(p.retrain_p95);
      out += ",\"adaptive_p95\":" + JNum(p.adaptive_p95);
      out += common::StrFormat(
          ",\"served\":{\"residual\":%d,\"knn\":%d,\"ml\":%d}}",
          p.served_residual, p.served_knn, p.served_ml);
    }
    out += "],\"metrics\":[";
    const auto metric = [&out](const char* name, const char* unit, double v,
                               bool first = false) {
      if (!first) out += ",";
      out += common::StrFormat("{\"name\":\"%s\",\"unit\":\"%s\",\"value\":",
                               name, unit) +
             JNum(v) + "}";
    };
    metric("ticks", "count", ticks, true);
    metric("routes", "count", static_cast<double>(kept_routes.size()));
    metric("holdout_queries", "count", static_cast<double>(holdout.size()));
    metric("feedback_records", "count", static_cast<double>(bus.published()));
    metric("tier_switches", "count",
           static_cast<double>(adaptive.arbiter().switches()));
    metric("promotions", "count", promotions);
    metric("retrain_swap_tick", "tick", swap_tick);
    metric("retrain_promoted", "bool", retrain_result.promoted ? 1 : 0);
    metric("stale_holdout_p95", "qerror", stale_p95);
    metric("recovery_threshold", "qerror", threshold);
    metric("adaptive_recovery_tick", "tick", adaptive_recovery);
    metric("retrain_recovery_tick", "tick", retrain_recovery);
    metric("adaptive_stale_ticks", "count", adaptive_stale_ticks);
    metric("retrain_stale_ticks", "count", retrain_stale_ticks);
    metric("adaptive_final_p95", "qerror", last.adaptive_p95);
    metric("retrain_final_p95", "qerror", last.retrain_p95);
    metric("wall_seconds", "seconds", wall_seconds);
    out += "]}\n";
    std::ofstream file(flags.stream_out);
    if (!file) {
      std::fprintf(stderr, "bench_data_drift: cannot write %s\n",
                   flags.stream_out.c_str());
      return 1;
    }
    file << out;
    std::printf("wrote %s\n", flags.stream_out.c_str());
  }
  if (!flags.metrics_out.empty() &&
      !obs::WriteSnapshotJson(flags.metrics_out)) {
    std::fprintf(stderr, "bench_data_drift: cannot write %s\n",
                 flags.metrics_out.c_str());
    return 1;
  }
  return 0;
}

bool ParseStreamFlags(int argc, char** argv, StreamFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg == "--stream") {
      flags->stream = true;
    } else if (arg == "--deterministic") {
      flags->deterministic = true;
    } else if (arg.rfind("--stream-out=", 0) == 0) {
      flags->stream_out = value("--stream-out=");
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      flags->metrics_out = value("--metrics-out=");
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags->seed = static_cast<uint64_t>(
          std::strtoull(value("--seed=").c_str(), nullptr, 10));
    } else {
      std::fprintf(
          stderr,
          "bench_data_drift: unknown flag '%s'\n"
          "usage: bench_data_drift [--stream] [--deterministic] [--seed=N]\n"
          "                        [--stream-out=PATH] [--metrics-out=PATH]\n",
          arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace qfcard::bench

int main(int argc, char** argv) {
  qfcard::bench::StreamFlags flags;
  if (!qfcard::bench::ParseStreamFlags(argc, argv, &flags)) return 2;
  if (!flags.metrics_out.empty()) qfcard::obs::SetMetricsEnabled(true);
  if (flags.stream) return qfcard::bench::RunStream(flags);
  qfcard::bench::Run();
  return 0;
}
