// qfbench: end-to-end load generator for the qfcard estimation server.
//
// One process builds a workload's table, labeled queries and models, serves
// them through serve::EstimationServer with the program's default options,
// drives the server from closed-loop client threads (plus one open-loop
// feedback writer on adaptive_drift), checks the answers, and prints one
// JSON line of metrics on stdout. bench/qfbench/run.py builds this binary,
// runs it once per workload in a fresh process and compares sets of runs;
// bench/qfbench/README.md describes the workloads and metrics.
//
//   qfbench --workload bulk_gb --seed 1 --seconds 20 [--trace 0|1]
//           [--smoke] [--trace-out FILE]
//
// A run is: set-up (repeated 3 times; setup_s is the median) -> 1 s
// warm-up -> timed phase -> the evaluation set answered through the server
// and checked -> (traced runs) a serial replay of each layer. --smoke runs
// reduced sizes with one set-up and a 0.5 s warm-up. Throughput and latency
// percentiles are medians over 1 s windows of the timed phase.
//
// --seed drives the traffic: which queries each client sends and in which
// order, and therefore the replay sample. The tables, the training and
// evaluation sets and the feedback stream come from a fixed scenario seed,
// so q-error is comparable across traffic seeds and identical across runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace qfcard::qfbench {
namespace {

using obs::Clock;

constexpr uint64_t kScenarioSeed = 0x71f3c0de2023edb7ULL;
// MixSeed streams of the scenario seed (data) and of --seed (traffic).
constexpr uint64_t kForestStream = 1;
constexpr uint64_t kMixedStream = 2;
constexpr uint64_t kShapeStream = 3;
constexpr uint64_t kDriftForestStream = 4;
constexpr uint64_t kPoolStream = 5;
constexpr uint64_t kTrainStream = 6;
constexpr uint64_t kClientStream = 100;

/// Pool size while setting up (see Deploy); serving always runs serially.
constexpr int kSetupThreads = 4;
/// Feedback records per second published by the adaptive_drift writer.
constexpr double kWriterRate = 1000.0;
/// Requests per server call while answering the evaluation set; well under
/// EstimationServerOptions::max_pending, so no evaluation request is refused.
constexpr size_t kEvalChunk = 256;
/// Requests each client draws before the warm-up and then sends cyclically.
constexpr size_t kRequestsPerClient = 4096;
/// Requests each client contributes to the replay sample (its first ones).
constexpr size_t kReplaySamplePerClient = 256;
/// Feedback records the ingest replay feeds its twin front at most.
constexpr size_t kReplayRecords = 2048;
constexpr int kReplayReps = 5;
/// Traced runs alternate untraced and traced segments of this length, so the
/// tracing overhead is measured under the same machine conditions.
constexpr double kTraceSegmentSeconds = 0.5;
/// The timed phase is cut into windows of about this length; throughput and
/// latency percentiles are the medians of their per-window values, so a
/// slow stretch of a shared host that covers less than half of the run
/// does not move them.
constexpr double kWindowSeconds = 1.0;

enum class Kind { kBulkGb, kPointRoutes, kAdaptiveDrift };

struct WorkloadSpec {
  Kind kind;
  const char* name;
  int readers;       ///< closed-loop client threads
  size_t call_size;  ///< queries per call (1 = Estimate, else EstimateMany)
};

// Why each workload exists is in README.md; in short: bulk_gb is plan-costing
// calls through one trained model, point_routes is single requests over 31
// statistics routes that isolate the server/router, adaptive_drift mixes
// reads with an open-loop feedback writer against the same adaptive front.
// The call sizes are assumed, not taken from measured traffic. bulk_gb keeps
// 4 x 64 requests outstanding against max_batch 64, so every flush is
// size-triggered and the run is compute-bound; point_routes (2 x 1) and
// adaptive_drift (2 x 16) stay below max_batch, so their flushes wait for
// the 1 ms deadline. Those two run 2 clients, not 4: on a shared 4-vCPU
// host their tail latency with 4 (or 3 plus the writer) spread several
// times wider between identical runs, because every call there is a chain
// of wake-ups.
constexpr WorkloadSpec kWorkloads[] = {
    {Kind::kBulkGb, "bulk_gb", 4, 64},
    {Kind::kPointRoutes, "point_routes", 2, 1},
    {Kind::kAdaptiveDrift, "adaptive_drift", 2, 16},
};

/// The sizes qfbench alone sets. The forest, the training and test sets and
/// the query width come from bench_common.h (bench::ForestRows() etc.),
/// which follow the QFCARD_SCALE main() pins. --smoke selects the reduced
/// set.
struct Sizes {
  int shape_draw;      ///< point_routes: mixed draw the shapes are ranked in
  size_t shapes;       ///< point_routes and adaptive_drift: shapes kept
  int pool_draw;       ///< adaptive_drift: draw on the drifted table
  int pool_max_attrs;  ///< adaptive_drift: attributes per pool query
  size_t pool_cap;     ///< adaptive_drift: pool size
  double warmup_seconds;
  int setup_reps;  ///< set-ups per run; setup_s is their median
};

Sizes SizesFor(bool smoke) {
  if (smoke) return {8000, 32, 6000, 3, 800, 0.5, 1};
  return {50000, 32, 30000, 3, 4096, 1.0, 3};
}

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

common::StatusOr<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke") {
      if (i + 1 >= argc) {
        return common::Status::InvalidArgument(arg + " wants a value");
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      flags.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (arg == "--smoke") {
      flags.smoke = true;
      continue;
    } else if (arg == "--trace-out") {
      flags.trace_out = value;
      continue;
    } else {
      return common::Status::InvalidArgument("unknown flag: " + arg);
    }
    if (arg != "--workload" && (end == value.c_str() || *end != '\0')) {
      return common::Status::InvalidArgument(arg + " wants a number, got: " +
                                             value);
    }
  }
  if (!(flags.seconds > 0.0)) {
    return common::Status::InvalidArgument("--seconds must be > 0");
  }
  if (flags.trace && flags.seconds < 2 * kTraceSegmentSeconds) {
    // obs.trace_overhead_pct needs one untraced and one traced segment.
    return common::Status::InvalidArgument(common::StrFormat(
        "--trace 1 wants --seconds >= %g", 2 * kTraceSegmentSeconds));
  }
  return flags;
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return obs::SecondsBetween(a, b) * 1e6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return common::QuantileSorted(v, 0.5);
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return common::QuantileSorted(v, q);
}

/// The median over windows of each window's q-quantile; windows without
/// samples are skipped.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return per_window.empty() ? 0.0 : Median(per_window);
}

/// Bucket edges 1% apart from 0.01 to about 1.6e9 (microseconds), for
/// per-response samples. A histogram's memory is fixed however many
/// responses a run serves, so the benchmark's own bookkeeping does not grow
/// with throughput and move peak_rss_mb.
std::vector<double> LogBounds() {
  std::vector<double> bounds;
  for (double edge = 0.01; edge < 1.6e9; edge *= 1.01) bounds.push_back(edge);
  return bounds;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double table_build_s = 0.0;
  double generate_s = 0.0;
  double label_s = 0.0;
  size_t labeled = 0;  ///< queries executed by the labeler
  double train_s = 0.0;
  double route_create_s = 0.0;
};

/// Everything one workload serves. Members are declared in dependency
/// order, so destruction runs server -> router -> adaptive front -> bus ->
/// models -> tables.
struct Deployment {
  storage::Catalog catalog;
  std::unique_ptr<storage::Table> drifted;  ///< adaptive_drift's new data
  /// Table the traffic, evaluation and feedback queries run against.
  const storage::Table* truth_table = nullptr;
  std::vector<workload::LabeledQuery> traffic;   ///< what clients draw from
  std::vector<workload::LabeledQuery> eval;      ///< answered after the run
  std::vector<workload::LabeledQuery> feedback;  ///< the writer's stream
  std::shared_ptr<const featurize::Featurizer> featurizer;  ///< complex QFT
  std::shared_ptr<const est::CardinalityEstimator> model;   ///< trained
  std::shared_ptr<const est::CardinalityEstimator> postgres;
  std::unique_ptr<adapt::FeedbackBus> bus;
  std::shared_ptr<adapt::AdaptiveEstimator> front;
  std::unique_ptr<serve::ModelRouter> router;
  std::unique_ptr<serve::EstimationServer> server;
  SetupTimes times;
};

std::vector<query::Query> Generate(const storage::Table& table, int count,
                                   const workload::PredicateGenOptions& opts,
                                   common::Rng& rng, SetupTimes* times) {
  obs::ScopedTimer timer;
  std::vector<query::Query> queries =
      workload::GeneratePredicateWorkload(table, count, opts, rng);
  times->generate_s += timer.Seconds();
  return queries;
}

common::StatusOr<std::vector<workload::LabeledQuery>> Label(
    const storage::Table& table, const std::vector<query::Query>& queries,
    SetupTimes* times) {
  obs::ScopedTimer timer;
  QFCARD_ASSIGN_OR_RETURN(
      std::vector<workload::LabeledQuery> labeled,
      workload::LabelOnTable(table, queries, /*drop_empty=*/true));
  times->label_s += timer.Seconds();
  times->labeled += queries.size();
  return labeled;
}

/// Draws mixed queries (Definition 3.3) until `count` have non-empty
/// results, in draw order.
common::StatusOr<std::vector<workload::LabeledQuery>> LabeledMixed(
    const storage::Table& table, size_t count, int max_attrs, uint64_t seed,
    SetupTimes* times) {
  common::Rng rng(seed);
  std::vector<workload::LabeledQuery> out;
  for (int round = 0; out.size() < count; ++round) {
    if (round == 8) {
      return common::Status::Internal("too few non-empty mixed queries");
    }
    const size_t missing = count - out.size();
    const std::vector<query::Query> queries =
        Generate(table, static_cast<int>(missing + missing / 4 + 16),
                 workload::MixedWorkloadOptions(max_attrs), rng, times);
    QFCARD_ASSIGN_OR_RETURN(std::vector<workload::LabeledQuery> labeled,
                            Label(table, queries, times));
    for (workload::LabeledQuery& lq : labeled) {
      if (out.size() == count) break;
      out.push_back(std::move(lq));
    }
  }
  return out;
}

/// The queries of `draw` whose feature space is among the `shapes` most
/// frequent ones, in draw order, at most `cap` of them.
std::vector<query::Query> TopShapes(const std::vector<query::Query>& draw,
                                    size_t shapes, size_t cap) {
  std::vector<uint64_t> hashes;
  hashes.reserve(draw.size());
  std::map<uint64_t, size_t> freq;
  for (const query::Query& q : draw) {
    hashes.push_back(serve::FeatureSpaceHash(q));
    ++freq[hashes.back()];
  }
  std::vector<std::pair<size_t, uint64_t>> ranked;
  for (const auto& [fss, n] : freq) ranked.push_back({n, fss});
  std::sort(ranked.rbegin(), ranked.rend());
  std::map<uint64_t, bool> keep;
  for (size_t i = 0; i < ranked.size() && i < shapes; ++i) {
    keep[ranked[i].second] = true;
  }
  std::vector<query::Query> out;
  for (size_t i = 0; i < draw.size() && out.size() < cap; ++i) {
    if (keep.count(hashes[i]) != 0) out.push_back(draw[i]);
  }
  return out;
}

common::Status AddForest(Deployment& d) {
  obs::ScopedTimer timer;
  workload::ForestOptions fopts;
  fopts.num_rows = bench::ForestRows();
  fopts.num_attributes = bench::ForestAttrs();
  fopts.seed = common::MixSeed(kScenarioSeed, kForestStream);
  QFCARD_RETURN_IF_ERROR(d.catalog.AddTable(workload::MakeForestTable(fopts)));
  d.times.table_build_s += timer.Seconds();
  d.truth_table = &d.catalog.table(0);
  d.featurizer = bench::MakeQft(
      "complex", featurize::FeatureSchema::FromTable(d.catalog.table(0)));
  return common::Status::Ok();
}

common::StatusOr<std::shared_ptr<const est::CardinalityEstimator>> TrainModel(
    const std::string& name, Deployment& d,
    std::span<const workload::LabeledQuery> train) {
  obs::ScopedTimer timer;
  QFCARD_ASSIGN_OR_RETURN(
      std::unique_ptr<est::CardinalityEstimator> model,
      est::MakeEstimator(name, d.catalog, bench::DefaultEstimatorOptions()));
  std::vector<query::Query> queries;
  std::vector<double> cards;
  for (const workload::LabeledQuery& lq : train) {
    queries.push_back(lq.query);
    cards.push_back(lq.card);
  }
  QFCARD_RETURN_IF_ERROR(model->Train(
      queries, cards, 0.1, common::MixSeed(kScenarioSeed, kTrainStream)));
  d.times.train_s += timer.Seconds();
  return std::shared_ptr<const est::CardinalityEstimator>(std::move(model));
}

common::StatusOr<std::shared_ptr<const est::CardinalityEstimator>> Postgres(
    const storage::Catalog& catalog) {
  QFCARD_ASSIGN_OR_RETURN(std::unique_ptr<est::CardinalityEstimator> pg,
                          est::MakeEstimator("postgres", catalog));
  return std::shared_ptr<const est::CardinalityEstimator>(std::move(pg));
}

std::shared_ptr<serve::ServingEstimator> Serving(
    std::shared_ptr<const est::CardinalityEstimator> model) {
  return std::make_shared<serve::ServingEstimator>(std::move(model), 1);
}

/// A forced-policy router whose default route serves `model`.
void ForcedRoute(Deployment& d,
                 std::shared_ptr<const est::CardinalityEstimator> model) {
  obs::ScopedTimer timer;
  serve::ModelRouterOptions ropts;
  ropts.policy = serve::RoutePolicy::kForced;
  d.router = std::make_unique<serve::ModelRouter>(ropts);
  d.router->SetDefaultRoute(Serving(std::move(model)));
  d.times.route_create_s += timer.Seconds();
}

/// bulk_gb: the paper's mixed workload; clients draw plans from the
/// held-out queries, one trained gb+complex model serves everything.
common::Status DeployBulk(Deployment& d) {
  QFCARD_RETURN_IF_ERROR(AddForest(d));
  const size_t train = static_cast<size_t>(bench::TrainQueries());
  QFCARD_ASSIGN_OR_RETURN(
      std::vector<workload::LabeledQuery> mixed,
      LabeledMixed(*d.truth_table,
                   train + static_cast<size_t>(bench::TestQueries()),
                   bench::MaxQueryAttrs(),
                   common::MixSeed(kScenarioSeed, kMixedStream), &d.times));
  d.eval.assign(mixed.begin() + static_cast<long>(train), mixed.end());
  mixed.resize(train);
  QFCARD_ASSIGN_OR_RETURN(d.model, TrainModel("gb+complex", d, mixed));
  d.traffic = d.eval;
  ForcedRoute(d, d.model);
  return common::Status::Ok();
}

/// point_routes: the most frequent shapes of a large mixed draw, one
/// statistics route per shape, created by the intelligent policy's factory.
common::Status DeployPointRoutes(Deployment& d, const Sizes& sizes) {
  QFCARD_RETURN_IF_ERROR(AddForest(d));
  common::Rng rng(common::MixSeed(kScenarioSeed, kShapeStream));
  const std::vector<query::Query> draw =
      Generate(*d.truth_table, sizes.shape_draw,
               workload::MixedWorkloadOptions(bench::MaxQueryAttrs()), rng,
               &d.times);
  QFCARD_ASSIGN_OR_RETURN(
      d.traffic,
      Label(*d.truth_table, TopShapes(draw, sizes.shapes, draw.size()),
            &d.times));
  d.eval = d.traffic;

  obs::ScopedTimer timer;
  serve::ModelRouterOptions ropts;
  ropts.policy = serve::RoutePolicy::kIntelligent;
  const storage::Catalog* catalog = &d.catalog;
  ropts.factory = [catalog](uint64_t, const query::Query&)
      -> common::StatusOr<std::shared_ptr<serve::ServingEstimator>> {
    QFCARD_ASSIGN_OR_RETURN(auto pg, Postgres(*catalog));
    return Serving(std::move(pg));
  };
  d.router = std::make_unique<serve::ModelRouter>(ropts);
  for (const workload::LabeledQuery& lq : d.traffic) {
    QFCARD_RETURN_IF_ERROR(d.router->Resolve(lq.query).status());
  }
  d.times.route_create_s += timer.Seconds();
  return common::Status::Ok();
}

/// adaptive_drift: a gb+complex model trained on the original table keeps
/// serving after the data drifts, behind an adaptive front that learns from
/// executed-truth feedback on the drifted table.
common::Status DeployAdaptiveDrift(Deployment& d, const Sizes& sizes) {
  QFCARD_RETURN_IF_ERROR(AddForest(d));
  QFCARD_ASSIGN_OR_RETURN(
      const std::vector<workload::LabeledQuery> train,
      LabeledMixed(*d.truth_table, static_cast<size_t>(bench::TrainQueries()),
                   bench::MaxQueryAttrs(),
                   common::MixSeed(kScenarioSeed, kMixedStream), &d.times));
  QFCARD_ASSIGN_OR_RETURN(d.model, TrainModel("gb+complex", d, train));

  {
    obs::ScopedTimer timer;
    workload::ForestOptions fopts;
    fopts.num_rows = bench::ForestRows() / 4;
    fopts.num_attributes = bench::ForestAttrs();
    fopts.seed = common::MixSeed(kScenarioSeed, kDriftForestStream);
    d.drifted =
        std::make_unique<storage::Table>(workload::MakeForestTable(fopts));
    d.times.table_build_s += timer.Seconds();
  }
  d.truth_table = d.drifted.get();
  common::Rng rng(common::MixSeed(kScenarioSeed, kPoolStream));
  const std::vector<query::Query> draw =
      Generate(*d.drifted, sizes.pool_draw,
               workload::MixedWorkloadOptions(sizes.pool_max_attrs), rng,
               &d.times);
  QFCARD_ASSIGN_OR_RETURN(
      d.traffic,
      Label(*d.drifted, TopShapes(draw, sizes.shapes, sizes.pool_cap),
            &d.times));
  // The last fifth is the holdout: never published, so the learner state
  // after the run -- and the holdout q-error -- is a function of the
  // scenario alone.
  const size_t holdout = d.traffic.size() / 5;
  d.feedback.assign(d.traffic.begin(),
                    d.traffic.end() - static_cast<long>(holdout));
  d.eval.assign(d.traffic.end() - static_cast<long>(holdout),
                d.traffic.end());

  obs::ScopedTimer timer;
  // The statistics base is stale too: built on the original table.
  QFCARD_ASSIGN_OR_RETURN(d.postgres, Postgres(d.catalog));
  const std::shared_ptr<serve::ServingEstimator> ml = Serving(d.model);
  d.bus = std::make_unique<adapt::FeedbackBus>();
  d.front = std::make_shared<adapt::AdaptiveEstimator>(d.postgres, ml,
                                                       d.featurizer);
  d.front->TrackServingVersion(ml.get());
  d.front->ConnectTo(d.bus.get());
  d.times.route_create_s += timer.Seconds();
  ForcedRoute(d, d.front);
  return common::Status::Ok();
}

/// Builds and starts one workload's server; `start` is where its set-up
/// time is measured from.
common::StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                                     const Sizes& sizes,
                                                     Clock::time_point start) {
  // Labeling and featurization fan out on the global pool and are
  // byte-identical at any pool size, so set-up -- which runs three times per
  // run -- labels on kSetupThreads threads; serving then runs on the
  // program's default serial pool.
  common::SetGlobalThreads(kSetupThreads);
  auto d = std::make_unique<Deployment>();
  switch (spec.kind) {
    case Kind::kBulkGb:
      QFCARD_RETURN_IF_ERROR(DeployBulk(*d));
      break;
    case Kind::kPointRoutes:
      QFCARD_RETURN_IF_ERROR(DeployPointRoutes(*d, sizes));
      break;
    case Kind::kAdaptiveDrift:
      QFCARD_RETURN_IF_ERROR(DeployAdaptiveDrift(*d, sizes));
      break;
  }
  if (d->traffic.empty() || d->eval.empty()) {
    return common::Status::Internal("workload has no traffic or eval queries");
  }
  common::SetGlobalThreads(1);
  d->server = std::make_unique<serve::EstimationServer>(d->router.get());
  d->server->Start();
  d->times.total_s = obs::SecondsBetween(start, obs::Now());
  return d;
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

struct Schedule {
  Clock::time_point timed_start;
  Clock::time_point end;
  size_t segments = 0;  ///< trace segments in the timed phase
  size_t windows = 0;   ///< statistics windows in the timed phase
  double window_seconds = 0.0;
};

/// Which of `count` consecutive `length`-second pieces of the timed phase
/// `t` falls in.
size_t PieceOf(const Schedule& s, Clock::time_point t, double length,
               size_t count) {
  const double since = obs::SecondsBetween(s.timed_start, t);
  return std::min(count - 1, static_cast<size_t>(std::max(0.0, since) / length));
}

size_t SegmentOf(const Schedule& s, Clock::time_point t) {
  return PieceOf(s, t, kTraceSegmentSeconds, s.segments);
}

size_t WindowOf(const Schedule& s, Clock::time_point t) {
  return PieceOf(s, t, s.window_seconds, s.windows);
}

/// Per-response stage times of the timed phase; every client observes into
/// the same pair.
struct StageHistograms {
  obs::Histogram queue_wait_us{LogBounds()};
  obs::Histogram batch_exec_us{LogBounds()};
};

/// What one closed-loop client saw during the timed phase.
struct ReaderResult {
  std::vector<std::vector<double>> window_call_us;  ///< by the call's start
  std::vector<uint64_t> window_answered;
  std::vector<double> overhead_us;  ///< call minus queue wait minus exec
  double exec_s = 0.0;  ///< response sums of the stage breakdown
  double featurize_s = 0.0;
  double predict_s = 0.0;
  uint64_t tiers[4] = {0, 0, 0, 0};  ///< responses by est::ServedTier
  uint64_t attempted = 0;
  uint64_t answered = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  ///< failed with ResourceExhausted/FailedPrecondition
  std::vector<uint64_t> segment_answered;
  std::vector<size_t> sample;  ///< traffic indices of the first requests
};

void RunReader(const Deployment& d, const WorkloadSpec& spec,
               const Schedule& sched, uint64_t seed, int client,
               StageHistograms* stages, ReaderResult* out) {
  // The client's calls are drawn up front and then cycled, so between calls
  // the client only reads the clock: its own allocations and copies stay
  // out of the server's way.
  common::Rng rng(common::MixSeed(seed, kClientStream + client));
  const int64_t n = static_cast<int64_t>(d.traffic.size());
  std::vector<std::vector<est::EstimateRequest>> calls(
      std::max<size_t>(1, kRequestsPerClient / spec.call_size));
  for (std::vector<est::EstimateRequest>& call : calls) {
    call.resize(spec.call_size);
    for (est::EstimateRequest& request : call) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, n - 1));
      request.query = d.traffic[pick].query;
      if (out->sample.size() < kReplaySamplePerClient) {
        out->sample.push_back(pick);
      }
    }
  }
  out->segment_answered.assign(sched.segments, 0);
  out->window_call_us.resize(sched.windows);
  out->window_answered.assign(sched.windows, 0);
  std::vector<common::StatusOr<est::EstimateResponse>> results;
  for (size_t next = 0;; next = (next + 1) % calls.size()) {
    const std::vector<est::EstimateRequest>& requests = calls[next];
    const Clock::time_point t0 = obs::Now();
    if (t0 >= sched.end) break;
    {
      obs::TraceSpan span("qfbench.call");
      if (requests.size() == 1) {
        results.clear();
        results.push_back(d.server->Estimate(requests[0]));
      } else {
        results = d.server->EstimateMany(requests);
      }
    }
    const Clock::time_point t1 = obs::Now();
    if (t0 < sched.timed_start) continue;  // warm-up

    double attributed_s = 0.0;
    uint64_t answered = 0;
    for (const common::StatusOr<est::EstimateResponse>& r : results) {
      ++out->attempted;
      if (!r.ok()) {
        ++out->failed;
        const common::StatusCode code = r.status().code();
        if (code == common::StatusCode::kResourceExhausted ||
            code == common::StatusCode::kFailedPrecondition) {
          ++out->rejected;
        }
        continue;
      }
      ++answered;
      const est::StageBreakdown& st = r.value().stages;
      stages->queue_wait_us.Observe(st.queue_wait_seconds * 1e6);
      stages->batch_exec_us.Observe(st.batch_exec_seconds * 1e6);
      out->exec_s += st.batch_exec_seconds;
      out->featurize_s += st.featurize_seconds;
      out->predict_s += st.predict_seconds;
      ++out->tiers[static_cast<int>(r.value().tier) & 3];
      attributed_s = std::max(attributed_s, st.queue_wait_seconds +
                                                st.batch_exec_seconds);
    }
    out->answered += answered;
    const double call_us = Micros(t0, t1);
    const size_t window = WindowOf(sched, t0);
    out->window_call_us[window].push_back(call_us);
    out->window_answered[window] += answered;
    out->overhead_us.push_back(call_us - attributed_s * 1e6);
    out->segment_answered[SegmentOf(sched, t0)] += answered;
  }
}

/// The adaptive_drift open-loop writer: exactly rate x seconds records, the
/// i-th due at timed_start + i / rate, each timed from when it was due.
struct WriterResult {
  /// due -> Publish returned, by the window the record was due in
  std::vector<std::vector<double>> window_write_us;
  std::vector<double> late_us;  ///< due -> Publish called
  uint64_t expected = 0;
};

void RunWriter(const Deployment& d, const Schedule& sched, double seconds,
               WriterResult* out) {
  out->expected = static_cast<uint64_t>(std::llround(kWriterRate * seconds));
  out->window_write_us.resize(sched.windows);
  out->late_us.reserve(out->expected);
  for (uint64_t i = 0; i < out->expected; ++i) {
    const workload::LabeledQuery& lq = d.feedback[i % d.feedback.size()];
    adapt::FeedbackRecord record;
    record.query = lq.query;
    record.true_card = lq.card;
    const Clock::time_point due =
        sched.timed_start +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(static_cast<double>(i) /
                                          kWriterRate));
    std::this_thread::sleep_until(due);
    const Clock::time_point start = obs::Now();
    {
      obs::TraceSpan span("qfbench.write");
      d.bus->Publish(std::move(record));
    }
    const Clock::time_point done = obs::Now();
    out->late_us.push_back(Micros(due, start));
    out->window_write_us[WindowOf(sched, due)].push_back(Micros(due, done));
  }
}

// ---------------------------------------------------------------------------
// Correctness: the evaluation set through the server
// ---------------------------------------------------------------------------

struct EvalResult {
  std::vector<double> qerrors;
  size_t failed = 0;
  bool identical = true;  ///< server answers == direct on the active model
  bool finite = true;
  std::string detail;
};

EvalResult Evaluate(const Deployment& d) {
  EvalResult r;
  const size_t n = d.eval.size();
  std::vector<double> via_server(n, 0.0);
  for (size_t lo = 0; lo < n; lo += kEvalChunk) {
    const size_t hi = std::min(n, lo + kEvalChunk);
    std::vector<est::EstimateRequest> requests(hi - lo);
    for (size_t i = lo; i < hi; ++i) requests[i - lo].query = d.eval[i].query;
    const auto results = d.server->EstimateMany(requests);
    for (size_t i = lo; i < hi; ++i) {
      if (!results[i - lo].ok()) {
        ++r.failed;
        r.detail = results[i - lo].status().ToString();
        continue;
      }
      via_server[i] = results[i - lo].value().estimate;
    }
  }

  // Direct: each query on its route's active model, grouped by route.
  est::EstimateOptions no_create;
  no_create.allow_route_creation = false;
  std::map<uint64_t, std::vector<size_t>> members;
  std::map<uint64_t, std::shared_ptr<serve::ServingEstimator>> routes;
  for (size_t i = 0; i < n; ++i) {
    const auto res = d.router->Resolve(d.eval[i].query, no_create);
    if (!res.ok()) {
      r.identical = false;
      r.detail = res.status().ToString();
      return r;
    }
    members[res.value().route_id].push_back(i);
    routes[res.value().route_id] = res.value().serving;
  }
  for (const auto& [route_id, idx] : members) {
    std::vector<est::EstimateRequest> requests(idx.size());
    for (size_t k = 0; k < idx.size(); ++k) {
      requests[k].query = d.eval[idx[k]].query;
    }
    const auto direct = routes[route_id]->Active()->EstimateRequests(requests);
    if (!direct.ok()) {
      r.identical = false;
      r.detail = direct.status().ToString();
      return r;
    }
    for (size_t k = 0; k < idx.size(); ++k) {
      const double a = via_server[idx[k]];
      const double b = direct.value()[k].estimate;
      if (std::memcmp(&a, &b, sizeof(double)) != 0) {
        r.identical = false;
        r.detail = common::StrFormat("query %zu: server %.17g vs direct %.17g",
                                     idx[k], a, b);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double q = ml::QError(d.eval[i].card, via_server[i]);
    if (!std::isfinite(via_server[i]) || !std::isfinite(q)) r.finite = false;
    r.qerrors.push_back(q);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Replay: each layer's public function on its own (traced runs)
// ---------------------------------------------------------------------------

struct ReplaySpan {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

struct ReplayResult {
  double hash_us = 0.0;
  double resolve_us = 0.0;
  double featurize_us = 0.0;
  double estimate_us = -1.0;  ///< trained model EstimateBatch; < 0 if none
  double direct_us = 0.0;
  double postgres_us = 0.0;
  double ingest_p50_us = 0.0;
  double ingest_p95_us = 0.0;
  std::vector<ReplaySpan> spans;
  common::Status status;
};

/// Median over kReplayReps of `fn`'s wall time per query, in microseconds.
template <typename Fn>
double TimePerQuery(const char* span, size_t n, ReplayResult* r, Fn&& fn) {
  std::vector<double> reps;
  const Clock::time_point start = obs::Now();
  for (int rep = 0; rep < kReplayReps; ++rep) {
    obs::ScopedTimer timer;
    const common::Status s = fn();
    reps.push_back(timer.Seconds() * 1e6 / static_cast<double>(n));
    if (!s.ok() && r->status.ok()) r->status = s;
  }
  r->spans.push_back({span, start, obs::Now()});
  return Median(reps);
}

ReplayResult Replay(const Deployment& d, const std::vector<size_t>& sample,
                    uint64_t published) {
  ReplayResult r;
  std::vector<query::Query> queries;
  std::vector<est::EstimateRequest> requests(sample.size());
  for (size_t i = 0; i < sample.size(); ++i) {
    queries.push_back(d.traffic[sample[i]].query);
    requests[i].query = queries.back();
  }
  const size_t n = queries.size();

  uint64_t sink = 0;
  r.hash_us = TimePerQuery("qfbench.replay.fss", n, &r, [&] {
    for (const query::Query& q : queries) sink ^= serve::FeatureSpaceHash(q);
    return common::Status::Ok();
  });
  est::EstimateOptions no_create;
  no_create.allow_route_creation = false;
  std::map<uint64_t, std::vector<est::EstimateRequest>> by_route;
  std::map<uint64_t, std::shared_ptr<serve::ServingEstimator>> routes;
  r.resolve_us = TimePerQuery("qfbench.replay.router", n, &r, [&] {
    for (const query::Query& q : queries) {
      QFCARD_ASSIGN_OR_RETURN(const serve::ModelRouter::Resolution res,
                              d.router->Resolve(q, no_create));
      sink ^= res.route_id;
    }
    return common::Status::Ok();
  });
  for (const query::Query& q : queries) {
    const auto res = d.router->Resolve(q, no_create);
    if (!res.ok()) {
      r.status = res.status();
      return r;
    }
    by_route[res.value().route_id].push_back(est::EstimateRequest{q, {}, 0});
    routes[res.value().route_id] = res.value().serving;
  }
  std::vector<float> features(n * static_cast<size_t>(d.featurizer->dim()));
  r.featurize_us = TimePerQuery("qfbench.replay.featurize", n, &r, [&] {
    return d.featurizer->FeaturizeBatch(queries, features.data());
  });
  if (d.model != nullptr) {
    r.estimate_us = TimePerQuery("qfbench.replay.predict", n, &r, [&] {
      return d.model->EstimateBatch(queries).status();
    });
  }
  r.direct_us = TimePerQuery("qfbench.replay.serving", n, &r, [&] {
    for (const auto& [route_id, group] : by_route) {
      QFCARD_RETURN_IF_ERROR(
          routes.at(route_id)->EstimateRequests(group).status());
    }
    return common::Status::Ok();
  });
  std::shared_ptr<const est::CardinalityEstimator> postgres = d.postgres;
  if (postgres == nullptr) {
    auto built = Postgres(d.catalog);
    if (!built.ok()) {
      r.status = built.status();
      return r;
    }
    postgres = built.value();
  }
  r.postgres_us = TimePerQuery("qfbench.replay.postgres", n, &r, [&] {
    return postgres->EstimateBatch(queries).status();
  });

  // Ingest: a twin front, fed the identical record stream the workload
  // publishes (adaptive_drift: the writer's first records; elsewhere the
  // sample with its executed truth), one IngestFeedback call at a time.
  adapt::AdaptiveEstimator twin(
      postgres, d.model != nullptr ? d.model : postgres, d.featurizer);
  std::vector<double> ingest_us;
  const Clock::time_point ingest_start = obs::Now();
  const size_t records =
      d.feedback.empty()
          ? n
          : static_cast<size_t>(std::min<uint64_t>(published, kReplayRecords));
  for (size_t i = 0; i < records; ++i) {
    const workload::LabeledQuery& lq =
        d.feedback.empty() ? d.traffic[sample[i]]
                           : d.feedback[i % d.feedback.size()];
    adapt::FeedbackRecord record;
    record.query = lq.query;
    record.true_card = lq.card;
    obs::ScopedTimer timer;
    twin.IngestFeedback(record);
    ingest_us.push_back(timer.Seconds() * 1e6);
  }
  r.spans.push_back({"qfbench.replay.ingest", ingest_start, obs::Now()});
  r.ingest_p50_us = Quantile(ingest_us, 0.5);
  r.ingest_p95_us = Quantile(ingest_us, 0.95);
  if (sink == 0x5eed) std::fprintf(stderr, "%c", ' ');  // keeps `sink` live
  return r;
}

/// Records the replay's spans (timed with tracing off) under one
/// qfbench.replay root.
void RecordReplaySpans(const std::vector<ReplaySpan>& spans) {
  if (spans.empty()) return;
  const uint64_t root = obs::MintTraceId();
  for (const ReplaySpan& s : spans) {
    obs::RecordSpan(s.name, obs::TraceContext{root, root}, s.start, s.end);
  }
  obs::RecordTraceRoot("qfbench.replay", root, spans.front().start,
                       spans.back().end, 0, false);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

  std::string MetricsJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ",";
      out += common::StrFormat("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                               metrics_[i].name.c_str(), metrics_[i].value,
                               metrics_[i].unit);
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

common::StatusOr<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return common::Status::NotFound("VmHWM missing from /proc/self/status");
}

std::string Bool(bool b) { return b ? "true" : "false"; }

int Run(const Flags& flags, Clock::time_point process_start) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (flags.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "qfbench: unknown --workload '%s' (bulk_gb, point_routes, "
                 "adaptive_drift)\n",
                 flags.workload.c_str());
    return 1;
  }
  const Sizes sizes = SizesFor(flags.smoke);

  // Set-up, repeated: each repetition builds everything from scratch (the
  // previous one is torn down first, untimed); the last one serves.
  std::unique_ptr<Deployment> d;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    d.reset();
    auto deployed =
        Deploy(*spec, sizes, rep == 0 ? process_start : obs::Now());
    if (!deployed.ok()) {
      std::fprintf(stderr, "qfbench: set-up failed: %s\n",
                   deployed.status().ToString().c_str());
      return 1;
    }
    d = std::move(deployed).value();
    setups.push_back(d->times);
  }
  std::fprintf(stderr,
               "qfbench %s: %zu traffic / %zu eval / %zu feedback queries, "
               "%zu route(s), set-up %.2fs\n",
               spec->name, d->traffic.size(), d->eval.size(),
               d->feedback.size(), d->router->NumRoutes(), d->times.total_s);

  // Warm-up, timed phase, writer.
  Schedule sched;
  sched.timed_start =
      obs::Now() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(sizes.warmup_seconds));
  sched.end = sched.timed_start +
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(flags.seconds));
  sched.segments = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(flags.seconds / kTraceSegmentSeconds)));
  sched.windows = std::max<size_t>(
      1, static_cast<size_t>(std::llround(flags.seconds / kWindowSeconds)));
  sched.window_seconds = flags.seconds / static_cast<double>(sched.windows);
  uint64_t batches_at_start = 0;
  const uint64_t published_before = d->bus != nullptr ? d->bus->published() : 0;

  std::vector<ReaderResult> readers(static_cast<size_t>(spec->readers));
  StageHistograms stages;
  WriterResult writer;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec->readers; ++c) {
      threads.emplace_back(RunReader, std::cref(*d), std::cref(*spec),
                           std::cref(sched), flags.seed, c, &stages,
                           &readers[static_cast<size_t>(c)]);
    }
    std::this_thread::sleep_until(sched.timed_start);
    batches_at_start = d->server->BatchesFlushed();
    if (d->bus != nullptr) {
      threads.emplace_back(RunWriter, std::cref(*d), std::cref(sched),
                           flags.seconds, &writer);
    }
    if (flags.trace) {
      // Even segments untraced, odd segments traced.
      for (size_t seg = 0; seg < sched.segments; ++seg) {
        std::this_thread::sleep_until(
            sched.timed_start +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(static_cast<double>(seg) *
                                              kTraceSegmentSeconds)));
        obs::SetTraceEnabled(seg % 2 == 1);
      }
    }
    for (std::thread& t : threads) t.join();
  }
  const uint64_t batches = d->server->BatchesFlushed() - batches_at_start;
  obs::SetTraceEnabled(false);

  // Merge the clients' views.
  ReaderResult all;
  all.segment_answered.assign(sched.segments, 0);
  all.window_call_us.resize(sched.windows);
  all.window_answered.assign(sched.windows, 0);
  std::vector<double> call_us;  // every call of the timed phase
  for (const ReaderResult& r : readers) {
    for (size_t w = 0; w < sched.windows; ++w) {
      const std::vector<double>& calls = r.window_call_us[w];
      all.window_call_us[w].insert(all.window_call_us[w].end(), calls.begin(),
                                   calls.end());
      call_us.insert(call_us.end(), calls.begin(), calls.end());
      all.window_answered[w] += r.window_answered[w];
    }
    all.overhead_us.insert(all.overhead_us.end(), r.overhead_us.begin(),
                           r.overhead_us.end());
    all.exec_s += r.exec_s;
    all.featurize_s += r.featurize_s;
    all.predict_s += r.predict_s;
    for (int t = 0; t < 4; ++t) all.tiers[t] += r.tiers[t];
    all.attempted += r.attempted;
    all.answered += r.answered;
    all.failed += r.failed;
    all.rejected += r.rejected;
    for (size_t s = 0; s < sched.segments; ++s) {
      all.segment_answered[s] += r.segment_answered[s];
    }
    all.sample.insert(all.sample.end(), r.sample.begin(), r.sample.end());
  }
  std::vector<double> window_qps;
  for (const uint64_t n : all.window_answered) {
    window_qps.push_back(static_cast<double>(n) / sched.window_seconds);
  }

  // Correctness gates.
  const EvalResult eval = Evaluate(*d);
  const uint64_t published =
      d->bus != nullptr ? d->bus->published() - published_before : 0;
  const bool writer_exact =
      d->bus == nullptr ||
      (published == writer.expected && d->front->ingested() == published);

  ReplayResult replay;
  if (flags.trace) {
    replay = Replay(*d, all.sample, published);
    obs::SetTraceEnabled(true);
    RecordReplaySpans(replay.spans);
    obs::SetTraceEnabled(false);
    if (!flags.trace_out.empty() && !obs::WriteTraceEventJson(flags.trace_out)) {
      std::fprintf(stderr, "qfbench: cannot write %s\n",
                   flags.trace_out.c_str());
      return 1;
    }
  }

  const auto rss = PeakRssMb();
  Report report;
  std::vector<double> setup_total;
  for (const SetupTimes& s : setups) setup_total.push_back(s.total_s);
  auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  const double answered = static_cast<double>(all.answered);
  const double exec_s = std::max(all.exec_s, 1e-12);

  // End to end.
  report.Add("setup_s", Median(setup_total), "s");
  report.Add("throughput_qps", Median(window_qps), "estimates/s");
  report.Add("latency_p50_us", WindowedQuantile(all.window_call_us, 0.50),
             "us");
  report.Add("latency_p90_us", WindowedQuantile(all.window_call_us, 0.90),
             "us");
  report.Add("qerror_p50", Quantile(eval.qerrors, 0.50), "ratio");
  report.Add("qerror_p95", Quantile(eval.qerrors, 0.95), "ratio");
  report.Add("peak_rss_mb", rss.ok() ? rss.value() : 0.0, "MB");
  report.Add("failed_frac",
             static_cast<double>(all.failed) /
                 static_cast<double>(std::max<uint64_t>(all.attempted, 1)),
             "ratio");
  // Layers.
  report.Add("client.calls", static_cast<double>(call_us.size()), "count");
  report.Add("client.latency_p95_us",
             WindowedQuantile(all.window_call_us, 0.95), "us");
  report.Add("client.latency_p99_us", Quantile(call_us, 0.99), "us");
  report.Add("serve.server.queue_wait_p50_us", stages.queue_wait_us.P50(),
             "us");
  report.Add("serve.server.queue_wait_p95_us", stages.queue_wait_us.P95(),
             "us");
  report.Add("serve.server.batch_exec_p50_us", stages.batch_exec_us.P50(),
             "us");
  report.Add("serve.server.batch_size_mean",
             answered / static_cast<double>(std::max<uint64_t>(batches, 1)),
             "requests");
  report.Add("serve.server.batches", static_cast<double>(batches), "count");
  report.Add("serve.server.overhead_p50_us", Quantile(all.overhead_us, 0.5),
             "us");
  report.Add("serve.server.rejected", static_cast<double>(all.rejected),
             "count");
  // The forced policy's default route is not in the route table.
  report.Add("serve.router.routes",
             static_cast<double>(std::max<size_t>(d->router->NumRoutes(), 1)),
             "count");
  report.Add("serve.router.route_create_s", setup_median(&SetupTimes::route_create_s),
             "s");
  report.Add("featurize.exec_share", all.featurize_s / exec_s, "ratio");
  report.Add("ml.predict_exec_share", all.predict_s / exec_s, "ratio");
  const double tiered = static_cast<double>(std::max<uint64_t>(all.answered, 1));
  report.Add("adapt.tier_share_ml",
             static_cast<double>(all.tiers[static_cast<int>(est::ServedTier::kMl)]) / tiered,
             "ratio");
  report.Add("adapt.tier_share_knn",
             static_cast<double>(all.tiers[static_cast<int>(est::ServedTier::kKnn)]) / tiered,
             "ratio");
  report.Add("adapt.tier_share_residual",
             static_cast<double>(all.tiers[static_cast<int>(
                 est::ServedTier::kHistogramResidual)]) / tiered,
             "ratio");
  report.Add("adapt.knn_neighbors",
             d->front != nullptr
                 ? static_cast<double>(d->front->knn().TotalNeighbors())
                 : 0.0,
             "count");
  report.Add("adapt.feedback_published", static_cast<double>(published),
             "count");
  report.Add("adapt.feedback_dropped",
             d->bus != nullptr ? static_cast<double>(d->bus->dropped()) : 0.0,
             "count");
  report.Add("storage.table_build_s", setup_median(&SetupTimes::table_build_s),
             "s");
  report.Add("workload.generate_s", setup_median(&SetupTimes::generate_s), "s");
  report.Add("workload.label_s", setup_median(&SetupTimes::label_s), "s");
  report.Add("workload.label_us_per_query",
             setups.back().label_s * 1e6 /
                 static_cast<double>(std::max<size_t>(setups.back().labeled, 1)),
             "us");
  if (d->model != nullptr) {
    report.Add("ml.train_s", setup_median(&SetupTimes::train_s), "s");
  }
  if (d->bus != nullptr) {
    report.Add("write_p95_us", WindowedQuantile(writer.window_write_us, 0.95),
               "us");
    report.Add("client.writer_late_p95_us", Quantile(writer.late_us, 0.95),
               "us");
  }
  if (flags.trace) {
    // Each side's rate over its own segment time; the last segment is
    // shorter when --seconds is not a multiple of the segment length.
    double on = 0.0, off = 0.0, on_s = 0.0, off_s = 0.0;
    for (size_t s = 0; s < sched.segments; ++s) {
      const double length =
          std::min(kTraceSegmentSeconds,
                   flags.seconds - static_cast<double>(s) * kTraceSegmentSeconds);
      (s % 2 == 1 ? on : off) += static_cast<double>(all.segment_answered[s]);
      (s % 2 == 1 ? on_s : off_s) += length;
    }
    report.Add("obs.trace_overhead_pct",
               100.0 * (1.0 - (on / on_s) / (off / off_s)), "%");
    report.Add("serve.router.resolve_us", replay.resolve_us, "us");
    report.Add("serve.fss.hash_us", replay.hash_us, "us");
    report.Add("serve.serving.direct_us_per_query", replay.direct_us, "us");
    report.Add("featurize.us_per_query", replay.featurize_us, "us");
    if (replay.estimate_us >= 0.0) {
      report.Add("ml.predict_us_per_query",
                 replay.estimate_us - replay.featurize_us, "us");
    }
    report.Add("estimators.postgres_us_per_query", replay.postgres_us, "us");
    report.Add("adapt.ingest_p50_us", replay.ingest_p50_us, "us");
    report.Add("adapt.ingest_p95_us", replay.ingest_p95_us, "us");
  }

  // Correctness gates: any violation makes the run incorrect.
  std::vector<std::string> problems;
  if (!eval.identical) {
    problems.push_back("server answers differ from direct: " + eval.detail);
  }
  if (eval.failed > 0) {
    problems.push_back("evaluation requests failed: " + eval.detail);
  }
  if (!eval.finite) problems.push_back("non-finite estimate or q-error");
  if (!writer_exact) {
    problems.push_back(common::StrFormat(
        "writer published %llu of %llu records",
        static_cast<unsigned long long>(published),
        static_cast<unsigned long long>(writer.expected)));
  }
  if (!replay.status.ok()) {
    problems.push_back("replay: " + replay.status.ToString());
  }
  if (!rss.ok()) problems.push_back(rss.status().ToString());
  if (call_us.empty()) problems.push_back("no call in the timed phase");
  if (!report.AllFinite()) problems.push_back("non-finite metric");
  const bool correct = problems.empty();

  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%s,"
      "\"smoke\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"gates\":{\"server_vs_direct\":%s,\"finite\":%s,\"eval_failed\":%zu,"
      "\"writer_exact\":%s},\"problems\":\"%s\",\"metrics\":%s}\n",
      spec->name, static_cast<unsigned long long>(flags.seed), flags.seconds,
      Bool(flags.trace).c_str(), Bool(flags.smoke).c_str(),
      Bool(correct).c_str(), static_cast<unsigned long long>(all.attempted),
      static_cast<unsigned long long>(all.failed),
      Bool(eval.identical).c_str(), Bool(eval.finite).c_str(), eval.failed,
      Bool(writer_exact).c_str(),
      obs::internal::JsonEscape(common::Join(problems, "; ")).c_str(),
      report.MetricsJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 2;
}

}  // namespace
}  // namespace qfcard::qfbench

int main(int argc, char** argv) {
  const qfcard::obs::Clock::time_point process_start = qfcard::obs::Now();
  const auto flags = qfcard::qfbench::ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "qfbench: %s\n", flags.status().ToString().c_str());
    return 1;
  }
  // The program's own run settings, whatever the caller's environment:
  // fixed sizes (bench_common.h's sizes and estimator options read
  // QFCARD_SCALE), a
  // serial thread pool, production telemetry on, tracing per --trace.
  setenv("QFCARD_SCALE", flags.value().smoke ? "smoke" : "default", 1);
  qfcard::common::SetGlobalThreads(1);
  qfcard::obs::SetMetricsEnabled(true);
  qfcard::obs::SetTraceEnabled(flags.value().trace);
  return qfcard::qfbench::Run(flags.value(), process_start);
}
