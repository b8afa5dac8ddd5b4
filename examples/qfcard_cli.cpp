// qfcard_cli: train a cardinality estimator on a CSV table and answer SQL
// count(*) estimates interactively (or from piped stdin).
//
//   $ ./build/examples/qfcard_cli data.csv tablename
//   $ ./build/examples/qfcard_cli --synthetic
//   > SELECT count(*) FROM forest WHERE A1 >= 2500 AND A1 <= 3000;
//   estimate=412  true=398  q-error=1.04
//
// Flags:
//   --synthetic     use the built-in forest generator instead of a CSV
//                   (sized by QFCARD_SCALE: smoke / default / full)
//   --no-truth      skip executing queries for the true count (faster)
//   --model=NAME    estimator from est::MakeEstimator, e.g. gb+complex,
//                   nn+complex, postgres, sampling ("gb"/"nn" are accepted
//                   as shorthand for <model>+complex; default gb+complex)
//   --workload=FAM  build catalog + train/test sets from a registered
//                   workload family (e.g. strings, in_heavy, zipf_skew;
//                   see docs/benchmarks.md) instead of a CSV / the forest;
//                   join families answer truth checks via the catalog
//                   labeler, so joined SQL works at the prompt too
//
// Telemetry and model-store flags (--metrics-out, --trace-out, --model-dir,
// --save-model, --load-model[=N]) and --adaptive=<off|knn|residual|auto>
// are shared across the example binaries; see examples/common_flags.h for
// their documentation.
//
// The served model always sits behind a serve::ServingEstimator, so the
// serve.swaps counter and serve.active_version gauge appear in every
// telemetry snapshot and a retraining loop could hot-swap it live (see
// examples/serving_loop.cpp). With --adaptive=MODE the adaptive front
// (docs/adaptive.md) additionally sits in front of that serving path: every
// truth-checked answer is published as execution feedback, the kNN and
// residual tiers learn from it, and each answer line reports which tier
// served it (tier=residual|knn|ml).
//
// Labeling, training featurization, and the held-out accuracy report all
// run through the batch API; set QFCARD_THREADS to parallelize them. Every
// truth-checked query feeds a rolling q-error window (seeded with the
// held-out q-errors), and the CLI warns when its p95 crosses 10
// (docs/observability.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common_flags.h"
#include "qfcard.h"

using namespace qfcard;  // NOLINT: example brevity

namespace {

// Drift check over labeled q-errors: the paper's Figure 5 observation that
// drift shows in the p95 tail, not the mean. No verdict before
// kDriftMinSamples q-errors.
constexpr size_t kDriftWindow = 256;
constexpr double kDriftP95 = 10.0;
constexpr size_t kDriftMinSamples = 30;

/// Rolling p95 of `window`, or 0 while it holds too few q-errors.
double DriftP95(const common::Ring<double>& window) {
  if (window.size() < kDriftMinSamples) return 0.0;
  return common::Quantiles(window.Snapshot(), {0.95})[0];
}

struct CliOptions {
  std::string csv_path;
  std::string table_name = "data";
  bool synthetic = false;
  bool truth = true;
  std::string model = "gb+complex";
  examples::CommonFlags common;
};

common::StatusOr<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions opts;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    QFCARD_ASSIGN_OR_RETURN(
        const bool consumed, examples::TryParseCommonFlag(arg, &opts.common));
    if (consumed) continue;
    if (arg == "--synthetic") {
      opts.synthetic = true;
    } else if (arg == "--no-truth") {
      opts.truth = false;
    } else if (arg.rfind("--model=", 0) == 0) {
      opts.model = arg.substr(8);
      // Shorthands from before the registry existed.
      if (opts.model == "gb" || opts.model == "nn") {
        opts.model += "+complex";
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return common::Status::InvalidArgument("unknown flag: " + arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (!opts.common.workload.empty()) {
    if (opts.synthetic || !positional.empty()) {
      return common::Status::InvalidArgument(
          "--workload= already provides the data; drop --synthetic and the "
          "CSV argument");
    }
  } else if (!opts.synthetic) {
    if (positional.empty()) {
      return common::Status::InvalidArgument(
          "usage: qfcard_cli <csv> [table-name] | qfcard_cli --synthetic | "
          "qfcard_cli --workload=FAMILY");
    }
    opts.csv_path = positional[0];
    if (positional.size() > 1) opts.table_name = positional[1];
  }
  if (opts.common.adaptive != adapt::AdaptiveMode::kOff && !opts.truth) {
    return common::Status::InvalidArgument(
        "--adaptive= learns from the truth-checked answers; it cannot work "
        "with --no-truth (no execution feedback to learn from)");
  }
  QFCARD_RETURN_IF_ERROR(examples::ValidateCommonFlags(opts.common));
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts_or = ParseArgs(argc, argv);
  if (!opts_or.ok()) {
    std::fprintf(stderr, "%s\n", opts_or.status().ToString().c_str());
    return 1;
  }
  const CliOptions& opts = opts_or.value();

  examples::ApplyTelemetryFlags(opts.common);
  obs::TraceSpan cli_span("cli.main");

  storage::Catalog catalog;
  // Family mode: the instance supplies catalog, schema graph, and the
  // labeled train/test split; kept alive for the graph (table addresses are
  // stable across the catalog move).
  std::optional<workload::FamilyInstance> family_inst;
  const workload::WorkloadFamily* family = nullptr;
  std::string primary_table = opts.table_name;
  if (!opts.common.workload.empty()) {
    // FamilyNamed fails unknown names with a did-you-mean suggestion.
    auto family_or = workload::FamilyNamed(opts.common.workload);
    if (!family_or.ok()) {
      std::fprintf(stderr, "%s\n", family_or.status().ToString().c_str());
      return 1;
    }
    family = family_or.value();
    auto inst_or = family->build(workload::ScaledFamilySizes(), /*seed=*/2);
    if (!inst_or.ok()) {
      std::fprintf(stderr, "building family '%s': %s\n", family->name.c_str(),
                   inst_or.status().ToString().c_str());
      return 1;
    }
    family_inst = std::move(inst_or).value();
    primary_table = family_inst->primary_table;
    catalog = std::move(family_inst->catalog);
    std::fprintf(stderr,
                 "workload family '%s': %s (%d table(s), %zu train / %zu "
                 "test queries)\n",
                 family->name.c_str(), family->description.c_str(),
                 catalog.num_tables(), family_inst->train.size(),
                 family_inst->test.size());
  } else if (opts.synthetic) {
    workload::ForestOptions fopts;
    fopts.num_rows = static_cast<int>(common::ScalePick(4000, 30000, 580000));
    fopts.num_attributes =
        static_cast<int>(common::ScalePick(6, 10, 55));
    QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fopts)));
  } else {
    auto table_or = storage::ReadCsv(opts.csv_path, opts.table_name);
    if (!table_or.ok()) {
      std::fprintf(stderr, "loading '%s': %s\n", opts.csv_path.c_str(),
                   table_or.status().ToString().c_str());
      return 1;
    }
    QFCARD_CHECK_OK(catalog.AddTable(std::move(table_or).value()));
  }
  const storage::Table& table =
      family_inst ? *catalog.GetTable(primary_table).value()
                  : catalog.table(0);
  primary_table = table.name();
  std::fprintf(stderr, "table '%s': %lld rows x %d columns\n",
               table.name().c_str(), static_cast<long long>(table.num_rows()),
               table.num_columns());

  std::unique_ptr<est::CardinalityEstimator> estimator;
  std::string model_name = opts.model;
  uint64_t served_version = 0;  // 0 = trained in-process, never published
  size_t num_train = 0;
  common::Ring<double> drift_window(kDriftWindow);

  if (opts.common.load_model) {
    // Serve a published bundle: no workload, no training. The bundle
    // carries the featurizer's schema and partitioner state, so the
    // restored model estimates exactly like the process that saved it.
    const serve::ModelStore store(opts.common.model_dir);
    common::StatusOr<serve::ModelBundle> bundle_or =
        [&]() -> common::StatusOr<serve::ModelBundle> {
      if (opts.common.load_version != 0) {
        served_version = opts.common.load_version;
        return store.Load(opts.common.load_version);
      }
      auto latest_or = store.LoadLatest();
      if (!latest_or.ok()) return latest_or.status();
      served_version = latest_or.value().first;
      return std::move(latest_or).value().second;
    }();
    if (!bundle_or.ok()) {
      std::fprintf(stderr, "loading model from '%s': %s\n",
                   opts.common.model_dir.c_str(),
                   bundle_or.status().ToString().c_str());
      return 1;
    }
    model_name = bundle_or.value().estimator;
    auto loaded_or = serve::EstimatorFromBundle(bundle_or.value(), catalog);
    if (!loaded_or.ok()) {
      std::fprintf(stderr, "restoring model: %s\n",
                   loaded_or.status().ToString().c_str());
      return 1;
    }
    estimator = std::move(loaded_or).value();
    std::fprintf(stderr, "loaded '%s' v%llu from %s\n", model_name.c_str(),
                 static_cast<unsigned long long>(served_version),
                 opts.common.model_dir.c_str());
  } else {
    // Build the estimator by registry name and train it on an auto-generated
    // mixed workload (statistics-based estimators ignore Train).
    std::fprintf(stderr, "building '%s' on auto-generated workload...\n",
                 opts.model.c_str());
    if (family != nullptr) {
      // Fail fast on capability mismatches (same gate the benchmark matrix
      // applies) instead of erroring deep inside Train/EstimateBatch.
      const auto info_or = est::EstimatorInfoFor(opts.model);
      if (info_or.ok()) {
        const est::EstimatorInfo& info = *info_or.value();
        if (family->joins && !info.supports_joins) {
          std::fprintf(stderr,
                       "'%s' does not support join queries; family '%s' "
                       "needs one of: postgres, true, mscn*\n",
                       opts.model.c_str(), family->name.c_str());
          return 1;
        }
        if (family->disjunctions && !info.supports_disjunctions) {
          std::fprintf(stderr,
                       "'%s' does not support disjunctions; family '%s' "
                       "needs a +complex variant, postgres, or sampling\n",
                       opts.model.c_str(), family->name.c_str());
          return 1;
        }
      }
    }
    est::EstimatorOptions eopts;
    eopts.conj.max_partitions = 64;
    eopts.table = primary_table;
    if (family != nullptr && family->joins) {
      eopts.schema_graph = &family_inst->graph;
    }
    auto estimator_or = est::MakeEstimator(opts.model, catalog, eopts);
    if (!estimator_or.ok()) {
      std::fprintf(stderr, "%s\n", estimator_or.status().ToString().c_str());
      return 1;
    }
    estimator = std::move(estimator_or).value();

    std::vector<workload::LabeledQuery> labeled;
    if (family_inst) {
      // The family supplies its own train/test split; train on the head,
      // report held-out accuracy on the family's test slice.
      labeled = family_inst->train;
      labeled.insert(labeled.end(), family_inst->test.begin(),
                     family_inst->test.end());
      num_train = family_inst->train.size();
    } else {
      common::Rng rng(1);
      const int num_workload =
          static_cast<int>(common::ScalePick(800, 4000, 60000));
      const std::vector<query::Query> queries =
          workload::GeneratePredicateWorkload(
              table, num_workload,
              workload::MixedWorkloadOptions(std::min(table.num_columns(), 6)),
              rng);
      labeled = workload::LabelOnTable(table, queries, true).value();
      // Hold out a tail slice for the post-training accuracy report below.
      num_train = labeled.size() - labeled.size() / 10;
    }
    const size_t num_held_out = labeled.size() - num_train;
    {
      std::vector<query::Query> qs;
      std::vector<double> cards;
      for (size_t i = 0; i < num_train; ++i) {
        qs.push_back(labeled[i].query);
        cards.push_back(labeled[i].card);
      }
      QFCARD_CHECK_OK(estimator->Train(qs, cards, 0.1, 2));
    }

    // Batched accuracy report on the held-out slice (one EstimateBatch call
    // instead of a per-query loop).
    if (num_held_out > 0) {
      std::vector<query::Query> held_out;
      for (size_t i = num_train; i < labeled.size(); ++i) {
        held_out.push_back(labeled[i].query);
      }
      const auto ests_or = estimator->EstimateBatch(held_out);
      if (ests_or.ok()) {
        // Held-out truths are labeled q-errors: they seed the drift window
        // (the post-training baseline) and the qerror histogram.
        obs::Histogram* qerr_hist =
            obs::MetricsEnabled()
                ? obs::MetricsRegistry::Global().HistogramNamed(
                      "qerror", obs::QErrorBounds(), "backend=" + opts.model)
                : nullptr;
        std::vector<double> qerrors;
        for (size_t i = 0; i < held_out.size(); ++i) {
          qerrors.push_back(
              ml::QError(labeled[num_train + i].card, ests_or.value()[i]));
          drift_window.Push(qerrors.back());
          if (qerr_hist != nullptr) qerr_hist->Observe(qerrors.back());
        }
        const ml::QErrorSummary summary =
            ml::QErrorSummary::FromErrors(qerrors);
        std::fprintf(
            stderr,
            "held-out q-error over %zu queries: median=%.2f p95=%.2f\n",
            held_out.size(), summary.median, summary.p95);
      } else {
        std::fprintf(stderr, "held-out eval failed: %s\n",
                     ests_or.status().ToString().c_str());
      }
    }

    if (opts.common.save_model) {
      serve::ModelStore store(opts.common.model_dir);
      auto bundle_or = serve::BundleFromEstimator(*estimator, model_name);
      if (!bundle_or.ok()) {
        std::fprintf(stderr, "cannot save '%s': %s\n", model_name.c_str(),
                     bundle_or.status().ToString().c_str());
        return 1;
      }
      auto version_or = store.Publish(bundle_or.value());
      if (!version_or.ok()) {
        std::fprintf(stderr, "publishing to '%s': %s\n",
                     opts.common.model_dir.c_str(),
                     version_or.status().ToString().c_str());
        return 1;
      }
      served_version = version_or.value();
      std::fprintf(stderr, "saved '%s' as v%llu in %s\n", model_name.c_str(),
                   static_cast<unsigned long long>(served_version),
                   opts.common.model_dir.c_str());
    }
  }

  // Serve through the hot-swap front so the serve.* metric families are
  // always live (a retraining loop could swap this model without downtime).
  const auto serving = std::make_shared<serve::ServingEstimator>(
      std::shared_ptr<const est::CardinalityEstimator>(std::move(estimator)),
      served_version);

  // --adaptive=MODE: put the online-learning front (docs/adaptive.md) in
  // front of the served ML path. The stale-statistics base is a
  // Postgres-style estimator over the live table, the kNN tier featurizes
  // with the complex QFT, and every truth-checked answer below feeds the
  // learners through the execution-feedback hook. Installed AFTER training
  // and the held-out report, so only the interactive (serial) truth checks
  // publish — that fixed feedback order keeps the learners deterministic.
  std::unique_ptr<adapt::AdaptiveEstimator> adaptive;
  std::optional<adapt::FeedbackBus> bus;
  std::optional<adapt::ExecutionFeedbackConnection> feedback;
  if (opts.common.adaptive != adapt::AdaptiveMode::kOff) {
    if (family != nullptr && family->joins) {
      std::fprintf(stderr,
                   "--adaptive= fronts are single-table (featurizer + "
                   "executor feedback); family '%s' has joins\n",
                   family->name.c_str());
      return 1;
    }
    est::EstimatorOptions base_opts;
    base_opts.table = primary_table;
    auto base_or = est::MakeEstimator("postgres", catalog, base_opts);
    if (!base_or.ok()) {
      std::fprintf(stderr, "building adaptive base: %s\n",
                   base_or.status().ToString().c_str());
      return 1;
    }
    const auto base = std::shared_ptr<const est::CardinalityEstimator>(
        std::move(base_or).value());
    const auto featurizer = std::shared_ptr<const featurize::Featurizer>(
        featurize::MakeFeaturizer(featurize::QftKind::kComplex,
                                  featurize::FeatureSchema::FromTable(table)));
    adapt::AdaptiveOptions aopts;
    aopts.mode = opts.common.adaptive;
    adaptive = std::make_unique<adapt::AdaptiveEstimator>(base, serving,
                                                          featurizer, aopts);
    adaptive->TrackServingVersion(serving.get());
    bus.emplace();
    adaptive->ConnectTo(&*bus);
    feedback.emplace(&*bus);
    const est::EstimatorInfo info = adapt::AdaptiveEstimatorInfo();
    std::fprintf(stderr,
                 "adaptive front on: mode=%s, tiers=residual|knn|ml, "
                 "learns_online=%s (every truth-checked answer is feedback)\n",
                 adapt::AdaptiveModeName(opts.common.adaptive),
                 info.learns_online ? "true" : "false");
  }

  std::fprintf(stderr,
               "ready (%zu training queries, %zu byte model). Enter SQL "
               "count(*) queries, one per line.\n",
               num_train, serving->SizeBytes());

  bool was_degraded = DriftP95(drift_window) > kDriftP95;
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string_view stripped = common::StripWhitespace(line);
    if (stripped.empty()) continue;
    if (stripped == "quit" || stripped == "exit") break;
    const auto q_or = query::ParseQuery(stripped, catalog);
    if (!q_or.ok()) {
      std::printf("error: %s\n", q_or.status().ToString().c_str());
      continue;
    }
    // The request/response API (docs/batch_api.md) is the serving entry
    // point: the response carries the estimate plus provenance (which model
    // version answered, and how long the call took).
    est::EstimateRequest request;
    request.query = q_or.value();
    const auto resp_or =
        adaptive ? adaptive->Estimate(request) : serving->Estimate(request);
    if (!resp_or.ok()) {
      std::printf("error: %s\n", resp_or.status().ToString().c_str());
      continue;
    }
    const est::EstimateResponse& resp = resp_or.value();
    if (opts.truth) {
      // Family mode labels through the catalog so truth checks also cover
      // joined SQL; the classic paths stay on the single-table executor.
      const auto truth_or = [&]() -> common::StatusOr<double> {
        if (family_inst) {
          QFCARD_ASSIGN_OR_RETURN(
              const std::vector<workload::LabeledQuery> one,
              workload::LabelOnCatalog(catalog, {q_or.value()},
                                       /*drop_empty=*/false));
          return one.empty() ? 0.0 : one[0].card;
        }
        QFCARD_ASSIGN_OR_RETURN(const int64_t count,
                                query::Executor::Count(table, q_or.value()));
        return static_cast<double>(count);
      }();
      if (truth_or.ok()) {
        const double truth = truth_or.value();
        const double qerr = ml::QError(truth, resp.estimate);
        if (resp.tier != est::ServedTier::kNone) {
          std::printf(
              "estimate=%.0f  true=%.0f  q-error=%.2f  tier=%s  [v%llu]\n",
              resp.estimate, truth, qerr, est::ServedTierName(resp.tier),
              static_cast<unsigned long long>(resp.model_version));
        } else {
          std::printf("estimate=%.0f  true=%.0f  q-error=%.2f  [v%llu]\n",
                      resp.estimate, truth, qerr,
                      static_cast<unsigned long long>(resp.model_version));
        }
        // Every truth-checked query is labeled feedback for the drift
        // window; warn once per healthy->degraded flip.
        drift_window.Push(qerr);
        const double p95 = DriftP95(drift_window);
        const bool degraded = p95 > kDriftP95;
        if (degraded && !was_degraded) {
          std::fprintf(stderr,
                       "warning: q-error drift detected (rolling p95=%.2f > "
                       "%.2f); the workload has likely left the training "
                       "distribution — consider retraining\n",
                       p95, kDriftP95);
        }
        was_degraded = degraded;
        continue;
      }
    }
    if (resp.tier != est::ServedTier::kNone) {
      std::printf("estimate=%.0f  tier=%s  [v%llu]\n", resp.estimate,
                  est::ServedTierName(resp.tier),
                  static_cast<unsigned long long>(resp.model_version));
    } else {
      std::printf("estimate=%.0f  [v%llu]\n", resp.estimate,
                  static_cast<unsigned long long>(resp.model_version));
    }
  }

  // Drop the execution-feedback hook and bus subscription before the
  // learners (members of `adaptive`) go away.
  feedback.reset();
  if (adaptive) {
    adaptive->Disconnect();
    std::fprintf(stderr,
                 "adaptive front: %llu feedback record(s), %zu route(s), "
                 "%llu tier switch(es)\n",
                 static_cast<unsigned long long>(adaptive->ingested()),
                 adaptive->arbiter().RouteCount(),
                 static_cast<unsigned long long>(adaptive->arbiter().switches()));
  }

  cli_span.End();
  if (!examples::WriteTelemetryOutputs(opts.common)) return 1;
  return 0;
}
