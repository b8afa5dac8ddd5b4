// Batch-API scaling: wall-clock of the pipeline stages (labeling of a
// conjunctive and of a mixed forest draw and of a JOB-light draw on the
// IMDb instance, featurization, batched estimation, GB training,
// statistics-route creation) at 1 thread vs N threads, asserting
// on the way that every parallel result (the serialized GB model and every
// Postgres-style synopsis too) is byte-identical to the serial one.
// N defaults to the hardware concurrency; override with QFCARD_THREADS.
// Speedup is ~1x on a single-core machine by construction.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.h"

namespace qfcard::bench {
namespace {

struct StageTimes {
  double label_s = 0.0;
  double label_mixed_s = 0.0;
  double label_join_s = 0.0;
  double featurize_s = 0.0;
  double gb_batch_s = 0.0;
  double sampling_batch_s = 0.0;
  double train_gb_s = 0.0;
  double route_create_s = 0.0;
};

// Per-stage outputs of one pipeline run, compared across thread counts.
struct StageOutputs {
  std::vector<double> cards;
  std::vector<double> mixed_cards;
  std::vector<double> join_cards;
  ml::Matrix features;
  std::vector<double> gb_ests;
  std::vector<double> sampling_ests;
  std::vector<uint8_t> gb_model;
  std::vector<std::vector<double>> synopses;  // one flattened set per build
};

// One Postgres-style build per point_routes shape: the intelligent router's
// factory runs one for every new feature space.
constexpr int kRouteBuilds = 31;

// A copy of `catalog` whose column stats are not computed yet, so a stage
// timed on it pays for the one count pass per column, as a new process does.
storage::Catalog FreshCopy(const storage::Catalog& catalog) {
  storage::Catalog out;
  for (int t = 0; t < catalog.num_tables(); ++t) {
    const storage::Table& table = catalog.table(t);
    storage::Table copy(table.name());
    for (int c = 0; c < table.num_columns(); ++c) {
      QFCARD_CHECK_OK(copy.AddColumn(storage::Column(table.column(c))));
    }
    QFCARD_CHECK_OK(out.AddTable(std::move(copy)));
  }
  return out;
}

// Every field of every synopsis of `pg`, flattened for comparison.
std::vector<double> FlattenSynopses(const est::PostgresStyleEstimator& pg,
                                    const storage::Catalog& catalog) {
  std::vector<double> out;
  for (int t = 0; t < catalog.num_tables(); ++t) {
    for (int c = 0; c < catalog.table(t).num_columns(); ++c) {
      const est::ColumnSynopsis& s = pg.synopsis(t, c);
      out.insert(out.end(), s.hist_bounds.begin(), s.hist_bounds.end());
      for (const auto& [value, freq] : s.mcv) {
        out.push_back(value);
        out.push_back(freq);
      }
      out.push_back(s.mcv_total_freq);
      out.push_back(static_cast<double>(s.distinct));
      out.push_back(static_cast<double>(s.rows));
      out.push_back(s.min);
      out.push_back(s.max);
      out.push_back(s.integral ? 1.0 : 0.0);
    }
  }
  return out;
}

std::vector<double> Cards(const std::vector<workload::LabeledQuery>& labeled) {
  std::vector<double> cards;
  for (const workload::LabeledQuery& lq : labeled) cards.push_back(lq.card);
  return cards;
}

// The mixed training draw, featurized by the complex QFT with log labels:
// the set a gb+complex estimator fits.
ml::Dataset MixedTrainingSet(const ForestBundle& bundle) {
  const auto featurizer = MakeQft("complex", bundle.schema);
  std::vector<query::Query> queries;
  ml::Dataset data;
  for (const workload::LabeledQuery& lq : bundle.mixed_train) {
    queries.push_back(lq.query);
    data.y.push_back(ml::CardToLabel(lq.card));
  }
  data.x = ml::Matrix(static_cast<int>(queries.size()), featurizer->dim());
  QFCARD_CHECK_OK(featurizer->FeaturizeBatch(queries, data.x.data().data()));
  return data;
}

// JOB-light queries labeled by the label_join stage.
int JoinQueries() {
  return static_cast<int>(common::ScalePick(100, 400, 2000));
}

// Runs the pipeline stages at the current global pool size. `queries` are
// conjunctive; `mixed_queries` are labeled too, so the disjunction path of
// the executor is timed, and so are `join_queries` on `imdb`, the join
// engine's path.
StageTimes RunPipeline(const ForestBundle& bundle,
                       const std::vector<query::Query>& queries,
                       const std::vector<query::Query>& mixed_queries,
                       const workload::ImdbDatabase& imdb,
                       const std::vector<query::Query>& join_queries,
                       const est::CardinalityEstimator& gb,
                       const ml::Dataset& gb_train, StageOutputs* out) {
  StageTimes times;
  {
    obs::ScopedTimer timer;
    out->cards = Cards(
        workload::LabelOnTable(*bundle.forest, queries, false).value());
    times.label_s = timer.Seconds();
  }
  {
    obs::ScopedTimer timer;
    out->mixed_cards = Cards(
        workload::LabelOnTable(*bundle.forest, mixed_queries, false).value());
    times.label_mixed_s = timer.Seconds();
  }
  {
    obs::ScopedTimer timer;
    out->join_cards = Cards(
        workload::LabelOnCatalog(imdb.catalog, join_queries, false).value());
    times.label_join_s = timer.Seconds();
  }
  {
    const auto featurizer = MakeQft("conjunctive", bundle.schema);
    out->features =
        ml::Matrix(static_cast<int>(queries.size()), featurizer->dim());
    obs::ScopedTimer timer;
    QFCARD_CHECK_OK(
        featurizer->FeaturizeBatch(queries, out->features.data().data()));
    times.featurize_s = timer.Seconds();
  }
  {
    obs::ScopedTimer timer;
    out->gb_ests = gb.EstimateBatch(queries).value();
    times.gb_batch_s = timer.Seconds();
  }
  {
    // Fresh same-seed instance per run so both thread counts consume the
    // same draw tickets.
    const std::unique_ptr<est::CardinalityEstimator> sampling =
        est::MakeEstimator("sampling", bundle.catalog).value();
    obs::ScopedTimer timer;
    out->sampling_ests = sampling->EstimateBatch(queries).value();
    times.sampling_batch_s = timer.Seconds();
  }
  {
    ml::GradientBoosting model(DefaultGbm());
    obs::ScopedTimer timer;
    QFCARD_CHECK_OK(model.Fit(gb_train, nullptr));
    times.train_gb_s = timer.Seconds();
    QFCARD_CHECK_OK(model.Serialize(&out->gb_model));
  }
  {
    // Route creation: kRouteBuilds statistics models on one fresh catalog,
    // from the pool (serially at 1 thread).
    const storage::Catalog catalog = FreshCopy(bundle.catalog);
    out->synopses.assign(kRouteBuilds, {});
    obs::ScopedTimer timer;
    common::GlobalPool().ParallelFor(kRouteBuilds, [&](int64_t i) {
      const est::PostgresStyleEstimator pg =
          est::PostgresStyleEstimator::Build(&catalog).value();
      out->synopses[static_cast<size_t>(i)] = FlattenSynopses(pg, catalog);
    });
    times.route_create_s = timer.Seconds();
  }
  return times;
}

template <typename T>
void CheckIdentical(const std::vector<T>& serial, const std::vector<T>& parallel,
                    const char* stage) {
  if (serial != parallel) {
    std::fprintf(stderr, "FATAL: %s differs between 1 and N threads\n", stage);
    std::abort();
  }
}

// Writes the kind="batch_scaling" trajectory report (tools/bench_schema.json)
// CI archives as BENCH_batch_scaling.json: per-stage serial/parallel seconds
// plus the query counts, as flat {name, unit, value} metric rows.
bool WriteBenchmarkOut(const std::string& path, size_t queries,
                       size_t mixed_queries, size_t join_queries, int threads,
                       const StageTimes& serial, const StageTimes& parallel) {
  std::ofstream out(path);
  if (!out) return false;
  std::string json = "{\"version\":1,\"kind\":\"batch_scaling\"";
  json += ",\"name\":\"batch_scaling\"";
  json += common::StrFormat(
      ",\"context\":{\"scale\":\"%s\",\"threads\":%d}",
      common::ScaleName(common::GetScale()), threads);
  json += ",\"metrics\":[";
  json += common::StrFormat(
      "{\"name\":\"queries\",\"unit\":\"count\",\"value\":%zu}", queries);
  json += common::StrFormat(
      ",{\"name\":\"mixed_queries\",\"unit\":\"count\",\"value\":%zu}",
      mixed_queries);
  json += common::StrFormat(
      ",{\"name\":\"join_queries\",\"unit\":\"count\",\"value\":%zu}",
      join_queries);
  const auto stage = [&json](const char* name, double s1, double sn) {
    json += common::StrFormat(
        ",{\"name\":\"%s_seconds_serial\",\"unit\":\"seconds\","
        "\"value\":%.6g}", name, s1);
    json += common::StrFormat(
        ",{\"name\":\"%s_seconds_parallel\",\"unit\":\"seconds\","
        "\"value\":%.6g}", name, sn);
    json += common::StrFormat(
        ",{\"name\":\"%s_speedup\",\"unit\":\"x\",\"value\":%.6g}", name,
        sn > 0 ? s1 / sn : 0.0);
  };
  stage("label", serial.label_s, parallel.label_s);
  stage("label_mixed", serial.label_mixed_s, parallel.label_mixed_s);
  stage("label_join", serial.label_join_s, parallel.label_join_s);
  stage("featurize", serial.featurize_s, parallel.featurize_s);
  stage("gb_batch", serial.gb_batch_s, parallel.gb_batch_s);
  stage("sampling_batch", serial.sampling_batch_s, parallel.sampling_batch_s);
  stage("train_gb", serial.train_gb_s, parallel.train_gb_s);
  json += common::StrFormat(
      ",{\"name\":\"route_builds\",\"unit\":\"count\",\"value\":%d}",
      kRouteBuilds);
  stage("route_create", serial.route_create_s, parallel.route_create_s);
  json += "]}\n";
  out << json;
  return static_cast<bool>(out);
}

void Run(const std::string& benchmark_out) {
  int threads = common::ThreadPoolSizeFromEnv();
  if (threads <= 1) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
  }

  ForestBundle bundle = MakeForestBundle(/*need_conj=*/true,
                                         /*need_mixed=*/true);
  const auto train_and_test =
      [](const std::vector<workload::LabeledQuery>& train,
         const std::vector<workload::LabeledQuery>& test) {
        std::vector<query::Query> out;
        for (const auto* set : {&train, &test}) {
          for (const workload::LabeledQuery& lq : *set) out.push_back(lq.query);
        }
        return out;
      };
  const std::vector<query::Query> queries =
      train_and_test(bundle.conj_train, bundle.conj_test);
  const std::vector<query::Query> mixed_queries =
      train_and_test(bundle.mixed_train, bundle.mixed_test);
  workload::ImdbOptions iopts;
  iopts.num_titles = ImdbTitles();
  const workload::ImdbDatabase imdb = workload::MakeImdbDatabase(iopts);
  common::Rng join_rng(3003);
  workload::JobLightOptions jopts;
  jopts.count = JoinQueries();
  const std::vector<query::Query> join_queries =
      workload::MakeJobLightWorkload(imdb, jopts, join_rng);
  // The one count pass per column runs before either timed run, as it
  // does for the forest during the bundle's labeling, so both runs time the
  // scans and the joins only.
  for (int t = 0; t < imdb.catalog.num_tables(); ++t) {
    const storage::Table& table = imdb.catalog.table(t);
    for (int c = 0; c < table.num_columns(); ++c) table.column(c).GetStats();
  }

  // Train one GB estimator serially; both timing runs share it.
  common::SetGlobalThreads(1);
  const std::unique_ptr<est::CardinalityEstimator> gb =
      est::MakeEstimator("gb+conj", bundle.catalog, DefaultEstimatorOptions())
          .value();
  {
    std::vector<query::Query> train_queries(
        queries.begin(), queries.begin() + bundle.conj_train.size());
    QFCARD_CHECK_OK(gb->Train(train_queries, Cards(bundle.conj_train), 0.1, 7));
  }

  const ml::Dataset gb_train = MixedTrainingSet(bundle);

  StageOutputs out1, outN;
  common::SetGlobalThreads(1);
  const StageTimes serial =
      RunPipeline(bundle, queries, mixed_queries, imdb, join_queries, *gb,
                  gb_train, &out1);
  common::SetGlobalThreads(threads);
  const StageTimes parallel =
      RunPipeline(bundle, queries, mixed_queries, imdb, join_queries, *gb,
                  gb_train, &outN);
  common::SetGlobalThreads(1);

  CheckIdentical(out1.cards, outN.cards, "labeling");
  CheckIdentical(out1.mixed_cards, outN.mixed_cards, "mixed labeling");
  CheckIdentical(out1.join_cards, outN.join_cards, "JOB-light labeling");
  CheckIdentical(out1.features.data(), outN.features.data(), "featurization");
  CheckIdentical(out1.gb_ests, outN.gb_ests, "GB EstimateBatch");
  CheckIdentical(out1.sampling_ests, outN.sampling_ests,
                 "Sampling EstimateBatch");
  CheckIdentical(out1.gb_model, outN.gb_model, "GB Fit model bytes");
  for (int i = 0; i < kRouteBuilds; ++i) {
    // Every build, at either thread count, equals the first serial one.
    CheckIdentical(out1.synopses[0], out1.synopses[static_cast<size_t>(i)],
                   "Postgres-style synopses");
    CheckIdentical(out1.synopses[0], outN.synopses[static_cast<size_t>(i)],
                   "Postgres-style synopses");
  }

  eval::TablePrinter table({"stage", "1 thread (s)",
                            common::StrFormat("%d threads (s)", threads),
                            "speedup"});
  const auto add = [&](const char* stage, double s1, double sn) {
    table.AddRow({stage, common::StrFormat("%.3f", s1),
                  common::StrFormat("%.3f", sn),
                  common::StrFormat("%.2fx", sn > 0 ? s1 / sn : 0.0)});
  };
  add("labeling (LabelOnTable)", serial.label_s, parallel.label_s);
  add("labeling, mixed (LabelOnTable)", serial.label_mixed_s,
      parallel.label_mixed_s);
  add("labeling, JOB-light (LabelOnCatalog)", serial.label_join_s,
      parallel.label_join_s);
  add("featurization (FeaturizeBatch)", serial.featurize_s,
      parallel.featurize_s);
  add("GB EstimateBatch", serial.gb_batch_s, parallel.gb_batch_s);
  add("Sampling EstimateBatch", serial.sampling_batch_s,
      parallel.sampling_batch_s);
  const std::string fit_stage = common::StrFormat(
      "GB Fit (%d x %d, complex)", gb_train.num_rows(), gb_train.dim());
  add(fit_stage.c_str(), serial.train_gb_s, parallel.train_gb_s);
  const std::string route_stage = common::StrFormat(
      "route create (%d x Postgres-style Build)", kRouteBuilds);
  add(route_stage.c_str(), serial.route_create_s, parallel.route_create_s);

  std::printf("Batch pipeline scaling, %zu queries, %zu mixed and %zu "
              "JOB-light on %d titles (results byte-identical across thread "
              "counts)\n",
              queries.size(), mixed_queries.size(), join_queries.size(),
              ImdbTitles());
  table.Print(std::cout);
  eval::PrintTelemetrySnapshot(std::cout);

  if (!benchmark_out.empty()) {
    if (!WriteBenchmarkOut(benchmark_out, queries.size(),
                           mixed_queries.size(), join_queries.size(), threads,
                           serial, parallel)) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", benchmark_out.c_str());
      std::exit(1);
    }
    std::printf("Wrote %s\n", benchmark_out.c_str());
  }
}

}  // namespace
}  // namespace qfcard::bench

int main(int argc, char** argv) {
  std::string benchmark_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark_out=", 0) == 0) {
      benchmark_out = arg.substr(std::string("--benchmark_out=").size());
    } else if (arg == "--help") {
      std::printf("usage: bench_batch_scaling [--benchmark_out=PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  qfcard::bench::Run(benchmark_out);
  return 0;
}
