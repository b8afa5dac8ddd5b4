#ifndef QFCARD_QFCARD_H_
#define QFCARD_QFCARD_H_

/// \mainpage qfcard
///
/// qfcard is a C++20 reproduction of "Enhanced Featurization of Queries
/// with Mixed Combinations of Predicates for ML-based Cardinality
/// Estimation" (Müller, Woltmann, Lehner; EDBT 2023).
///
/// Layering (bottom-up):
///  - common/   : Status/StatusOr, deterministic RNG, env knobs, the shared
///                ring buffer and quantile helpers
///  - obs/      : telemetry — metrics registry, stage tracing, drift monitor
///  - storage/  : columnar tables, dictionaries, catalog, CSV I/O
///  - query/    : mixed-query AST, SQL parser, executors, schema graph
///  - featurize/: the paper's four query featurization techniques
///  - ml/       : gradient boosting, feed-forward nets, MSCN, metrics
///  - estimators/: Postgres-style, sampling, QFT x model, local models
///  - optimizer/: DP join ordering + plan execution (end-to-end experiment)
///  - workload/ : synthetic forest/IMDb data and workload generators
///  - eval/     : experiment harness and reporting
///  - serve/    : model lifecycle and the estimation server — versioned
///                bundles on disk, hot-swap serving, feature-space routing,
///                cross-request micro-batching (docs/serving.md)
///  - adapt/    : online adaptive estimation — execution-feedback bus,
///                per-route kNN and residual-correction tiers, the
///                q-error-driven tier arbiter in front of the ML path, and
///                drift-triggered retraining on the bus window
///                (docs/adaptive.md)
///
/// Estimation is batch-first: prefer est::CardinalityEstimator::EstimateBatch
/// and featurize::Featurizer::FeaturizeBatch over per-query calls; both fan
/// out over a process-wide thread pool sized by the QFCARD_THREADS
/// environment variable and return results byte-identical to the serial
/// path at every thread count. Estimators are constructed by name through
/// est::MakeEstimator (estimators/registry.h). See docs/batch_api.md.
///
/// The pipeline is observable end to end: obs::MetricsRegistry collects
/// counters/gauges/histograms (per-stage latency, per-backend q-error),
/// and obs::TraceSpan records nested stage spans into a bounded ring
/// buffer. Rolling p95 q-error is tracked per route and tier by
/// adapt::TierArbiter. Telemetry is off by default and ~free when off; enable with
/// QFCARD_METRICS=1 / QFCARD_TRACE=1. See docs/observability.md.
///
/// This umbrella header pulls in the full public API.

#include "adapt/adaptive_estimator.h"
#include "adapt/arbiter.h"
#include "adapt/feedback_bus.h"
#include "adapt/online_knn.h"
#include "adapt/residual.h"
#include "adapt/retrainer.h"
#include "common/env.h"
#include "common/random.h"
#include "common/ring.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "estimators/estimator.h"
#include "estimators/iep.h"
#include "estimators/local_models.h"
#include "estimators/ml_estimator.h"
#include "estimators/postgres.h"
#include "estimators/registry.h"
#include "estimators/request.h"
#include "estimators/sampling.h"
#include "estimators/true_card.h"
#include "eval/harness.h"
#include "eval/matrix.h"
#include "eval/report.h"
#include "eval/summary.h"
#include "featurize/conjunction.h"
#include "featurize/disjunction.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "featurize/featurizer.h"
#include "featurize/join_encoding.h"
#include "featurize/mscn_featurizer.h"
#include "featurize/partitioner.h"
#include "featurize/range.h"
#include "featurize/singular.h"
#include "ml/dataset.h"
#include "ml/gbm.h"
#include "ml/grid_search.h"
#include "ml/linear.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/mscn.h"
#include "ml/nn.h"
#include "ml/tree.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/plan_executor.h"
#include "query/exec_feedback.h"
#include "query/executor.h"
#include "query/join_executor.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "query/query.h"
#include "query/schema_graph.h"
#include "serve/bundle.h"
#include "serve/fss.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/serving_estimator.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/csv.h"
#include "storage/table.h"
#include "workload/families.h"
#include "workload/forest.h"
#include "workload/imdb.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"
#include "workload/strings.h"

#endif  // QFCARD_QFCARD_H_
