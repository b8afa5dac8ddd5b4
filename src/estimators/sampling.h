#ifndef QFCARD_ESTIMATORS_SAMPLING_H_
#define QFCARD_ESTIMATORS_SAMPLING_H_

#include <atomic>

#include "common/random.h"
#include "estimators/estimator.h"
#include "storage/catalog.h"

namespace qfcard::est {

/// Bernoulli sampling estimator (Section 7): per query, draws a fresh p-%
/// sample R' of the table (each row independently with probability p) and
/// returns |R'(Q)| / p. The paper's configuration is p = 0.1% with the
/// sample drawn independently per query, which is what this implements —
/// including the characteristic heavy tail for selective predicates.
///
/// Each estimate draws from its own random stream, derived from the base
/// seed and a monotone draw ticket (common::MixSeed): draw k answers with
/// the same sample whether it was issued by EstimateCard or by any thread
/// of EstimateBatch, so batched results are byte-identical to the serial
/// per-query loop at every QFCARD_THREADS setting, while repeated estimates
/// of the same query still see fresh samples.
///
/// Join queries are not supported (the paper evaluates sampling on the
/// single-table forest workloads only).
class SamplingEstimator : public CardinalityEstimator {
 public:
  /// `catalog` is not owned and must outlive this object.
  SamplingEstimator(const storage::Catalog* catalog, double sample_fraction,
                    uint64_t seed)
      : catalog_(catalog), p_(sample_fraction), seed_(seed) {}

  common::StatusOr<double> EstimateCard(const query::Query& q) const override;
  /// Parallel batch: reserves one draw ticket per query up front, then
  /// samples all queries concurrently with their per-ticket streams.
  common::StatusOr<std::vector<double>> EstimateBatch(
      common::Gathered<query::Query> queries) const override;
  std::string name() const override { return "sampling"; }
  /// Expected resident size of one sample (Section 5.7 reports ~0.1% of the
  /// data size).
  size_t SizeBytes() const override;

 private:
  common::StatusOr<double> EstimateWithRng(const query::Query& q,
                                           common::Rng& rng) const;

  const storage::Catalog* catalog_;
  double p_;
  uint64_t seed_;
  mutable std::atomic<uint64_t> draws_{0};  // next fresh-sample ticket
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_SAMPLING_H_
