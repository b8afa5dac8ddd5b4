#ifndef QFCARD_ESTIMATORS_REGISTRY_H_
#define QFCARD_ESTIMATORS_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimators/estimator.h"
#include "estimators/postgres.h"
#include "featurize/conjunction.h"
#include "ml/dataset.h"
#include "ml/gbm.h"
#include "ml/mscn.h"
#include "ml/nn.h"
#include "query/schema_graph.h"
#include "storage/catalog.h"

namespace qfcard::est {

/// Construction-time knobs for MakeEstimator. Every field has the default
/// the benches and examples used before the registry existed, so most
/// callers only touch what they study.
struct EstimatorOptions {
  /// Table whose schema single-table QFTs featurize; "" means the
  /// catalog's first table.
  std::string table;
  /// Partitioning knobs for the conjunctive/complex QFTs (and the MSCN
  /// per-attribute predicate modes).
  featurize::ConjunctionOptions conj;
  ml::GbmParams gbm;
  ml::NnParams nn;
  ml::MscnParams mscn;
  PostgresOptions postgres;
  double sampling_fraction = 0.001;  ///< the paper's 0.1%
  uint64_t sampling_seed = 424242;
  /// Schema graph for MSCN's join encoding, read once at construction;
  /// nullptr means no join edges (single-table catalogs).
  const query::SchemaGraph* schema_graph = nullptr;
};

/// Builds a cardinality estimator from one string key — the single entry
/// point benches, examples, and the CLI use to construct the paper's
/// comparison set instead of hand-wiring QFT x model combinations.
///
/// Recognized names (case-insensitive):
///   "postgres"              Postgres-style synopses (built immediately)
///   "sampling"              per-query Bernoulli sampling
///   "true"                  true-cardinality oracle
///   "mscn"                  MSCN, original per-predicate featurization
///   "mscn+range"            MSCN, per-attribute range adaptation
///   "mscn+conj"             MSCN, per-attribute QFT mode (Section 4.2)
///   "<model>+<qft>"         MlEstimator; model in {gb, nn, linear}, qft in
///                           {simple, range, conj|conjunctive, complex|comp}
///
/// ML estimators come back untrained: call Train() (on the base interface)
/// with a labeled workload. `catalog` must outlive the returned estimator.
/// A non-empty `opts.conj.per_attribute_partitions` must hold one budget per
/// attribute of the featurizer's schema (the table's columns for
/// "<model>+<qft>", the catalog's global attributes for "mscn*"); any other
/// length is kInvalidArgument.
common::StatusOr<std::unique_ptr<CardinalityEstimator>> MakeEstimator(
    const std::string& name, const storage::Catalog& catalog,
    const EstimatorOptions& opts = {});

/// Builds the untrained model MakeEstimator pairs with a QFT: "gb", "nn" or
/// "linear" (case-insensitive) with `opts`' hyperparameters; null for any
/// other key.
std::unique_ptr<ml::Model> MakeModel(const std::string& model_key,
                                     const EstimatorOptions& opts = {});

/// Names MakeEstimator recognizes, for help text and exhaustive sweeps.
std::vector<std::string> RegisteredEstimators();

/// Capability metadata for one registry entry, used by sweep drivers
/// (eval::MatrixRunner) to pair estimators with the workload families they
/// can actually serve instead of erroring mid-sweep.
struct EstimatorInfo {
  std::string name;  ///< canonical registry key ("gb+conjunctive")
  /// Coarse implementation class: "stats", "sampling", "oracle", "mscn",
  /// or "ml" (single-table QFT x model).
  std::string kind;
  bool needs_training = false;  ///< Train() required before estimating
  bool supports_joins = false;  ///< accepts multi-table join queries
  /// Accepts compound predicates with more than one disjunct (mixed
  /// queries, Definition 3.3). False for the simple/range/conjunctive QFTs
  /// and the original/range MSCN modes, which error on OR.
  bool supports_disjunctions = false;
  /// True when GROUP BY changes the estimate (the estimator predicts group
  /// counts); single-table QFTs and sampling ignore the clause and predict
  /// filtered row counts instead.
  bool group_aware = false;
  /// True when the estimator improves from execution feedback at serving
  /// time without an offline retrain (docs/adaptive.md). False for every
  /// registry entry here — the online-learning front
  /// (adapt::AdaptiveEstimator, see adapt::AdaptiveEstimatorInfo) is built
  /// above this layer and cannot be constructed by MakeEstimator.
  bool learns_online = false;
};

/// Metadata for every RegisteredEstimators() entry, in the same order.
const std::vector<EstimatorInfo>& RegisteredEstimatorInfos();

/// Looks up metadata by (case-insensitive) name, accepting the same QFT
/// aliases MakeEstimator does ("conj" = "conjunctive", "comp" = "complex").
/// Unknown names get the registry's did-you-mean error.
common::StatusOr<const EstimatorInfo*> EstimatorInfoFor(
    const std::string& name);

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_REGISTRY_H_
