#ifndef QFCARD_FEATURIZE_MSCN_FEATURIZER_H_
#define QFCARD_FEATURIZE_MSCN_FEATURIZER_H_

#include <array>
#include <vector>

#include "common/status.h"
#include "featurize/conjunction.h"
#include "featurize/feature_schema.h"
#include "query/query.h"
#include "query/schema_graph.h"
#include "storage/catalog.h"

namespace qfcard::featurize {

/// The three vector sets MSCN consumes (Section 2.1.2 / 4.2): tables, joins,
/// and predicates. Each inner vector has the fixed per-set dimension of the
/// producing MscnFeaturizer.
struct MscnSample {
  std::vector<std::vector<float>> table_vecs;
  std::vector<std::vector<float>> join_vecs;
  std::vector<std::vector<float>> pred_vecs;
};

/// Produces MSCN's set featurization. Two predicate modes:
///  - kPerPredicate reproduces the original MSCN ("MSCN w/o mods"): one
///    vector per simple predicate = [attribute one-hot | op 3-bit |
///    normalized literal]; disjunctions are unsupported (rejected), as in
///    the original implementation.
///  - kPerAttributeQft is the paper's modification (Section 4.2): all
///    predicates referencing one attribute become a single vector =
///    [attribute one-hot | per-attribute Universal-Conjunction/Limited-
///    Disjunction block, zero-padded]; supports mixed queries.
///  - kPerAttributeRange is the analogous adaptation of Range Predicate
///    Encoding: one vector per attribute = [attribute one-hot | normalized
///    lo | normalized hi]; conjunctions only.
class MscnFeaturizer {
 public:
  enum class PredMode { kPerPredicate, kPerAttributeQft, kPerAttributeRange };

  /// `catalog` is not owned and must outlive this object. `graph`'s edges
  /// are resolved to global attributes here, so it need not outlive it; a
  /// null graph means no join edges (single-table catalogs).
  MscnFeaturizer(const storage::Catalog* catalog,
                 const query::SchemaGraph* graph, PredMode mode,
                 ConjunctionOptions opts = {});

  /// Like the primary constructor, but featurizes against a previously
  /// captured `global` schema instead of deriving one from the live catalog.
  /// serve/ uses this so a restored model featurizes byte-identically to the
  /// one that was saved even when the catalog's statistics have drifted
  /// (the catalog is still used for structural name lookups).
  MscnFeaturizer(const storage::Catalog* catalog,
                 const query::SchemaGraph* graph, PredMode mode,
                 ConjunctionOptions opts, GlobalFeatureSchema global);

  int table_dim() const { return global_.num_tables(); }
  int join_dim() const {
    return edges_.empty() ? 1 : static_cast<int>(edges_.size());
  }
  int pred_dim() const { return pred_dim_; }
  PredMode mode() const { return mode_; }
  const ConjunctionOptions& options() const { return opts_; }
  const GlobalFeatureSchema& global() const { return global_; }

  common::StatusOr<MscnSample> Featurize(const query::Query& q) const;

 private:
  const storage::Catalog* catalog_;
  PredMode mode_;
  ConjunctionOptions opts_;
  GlobalFeatureSchema global_;
  // Per SchemaGraph edge: the global attributes of its foreign-key and key
  // columns, or -1 for an endpoint outside the catalog (never matches).
  std::vector<std::array<int, 2>> edges_;
  int num_attrs_ = 0;
  int pred_dim_ = 0;
  // Per global attribute (QFT mode); point into *opts_.partitioner.
  std::vector<PartitionLayout> layouts_;

  /// Index of the edge joining global attributes `join` in either
  /// direction, or kNotFound.
  common::StatusOr<int> EdgeIndexOf(const std::array<int, 2>& join) const;
};

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_MSCN_FEATURIZER_H_
