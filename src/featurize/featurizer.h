#ifndef QFCARD_FEATURIZE_FEATURIZER_H_
#define QFCARD_FEATURIZE_FEATURIZER_H_

#include <string>
#include <vector>

#include "common/gathered.h"
#include "common/status.h"
#include "query/query.h"

namespace qfcard::featurize {

/// A query featurization technique (QFT): encodes a query into a fixed-size
/// numeric feature vector consumed by any input-agnostic ML model
/// (Section 3). Implementations are pure functions of the query and the
/// FeatureSchema they were constructed with; they are model-independent by
/// design, which is the paper's plug-in-layer claim.
///
/// Queries passed to a featurizer are single-table queries whose
/// ColumnRef::column values index the featurizer's FeatureSchema attributes
/// (for local models this is the base table or materialized sub-schema
/// join). Featurizers for global models wrap one of these (join_encoding.h).
class Featurizer {
 public:
  virtual ~Featurizer() = default;

  /// Length of the produced feature vector.
  virtual int dim() const = 0;

  /// Short label used in reports ("simple", "range", "conjunctive",
  /// "complex", ...), matching the paper's abbreviations.
  virtual std::string name() const = 0;

  /// Writes the feature vector for `q` into `out`, which must hold dim()
  /// floats. Returns kInvalidArgument when `q` is outside the QFT's
  /// supported query class (e.g. disjunctions passed to a
  /// conjunction-only QFT).
  virtual common::Status FeaturizeInto(const query::Query& q,
                                       float* out) const = 0;

  /// Featurizes `queries[i]` into row i of `out`, a row-major
  /// [queries.size() x dim()] float buffer. The default implementation runs
  /// FeaturizeInto per query on the global thread pool
  /// (common/thread_pool.h): each query writes only its own row, so the
  /// buffer is byte-identical for every QFCARD_THREADS setting. On failure
  /// returns the error of the smallest failing query index (the same error
  /// a serial loop would hit first); `out` contents are then unspecified.
  /// FeaturizeInto implementations must be const-thread-safe, which holds
  /// for every QFT here (pure functions of the query and the schema).
  virtual common::Status FeaturizeBatch(common::Gathered<query::Query> queries,
                                        float* out) const;

  /// Convenience wrapper allocating the output vector.
  common::StatusOr<std::vector<float>> Featurize(const query::Query& q) const {
    std::vector<float> out(static_cast<size_t>(dim()), 0.0f);
    QFCARD_RETURN_IF_ERROR(FeaturizeInto(q, out.data()));
    return out;
  }
};

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_FEATURIZER_H_
