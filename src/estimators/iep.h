#ifndef QFCARD_ESTIMATORS_IEP_H_
#define QFCARD_ESTIMATORS_IEP_H_

#include "estimators/estimator.h"

namespace qfcard::est {

/// Inclusion-Exclusion Principle adapter (Section 6): answers mixed queries
/// using an estimator that only supports conjunctions, by expanding the
/// query's per-attribute disjunctions into DNF terms T_1 ... T_n and
/// estimating |T_1 v ... v T_n| = sum over non-empty S of
/// (-1)^(|S|+1) |AND of S| — i.e. 2^n - 1 conjunctive sub-estimates.
///
/// The paper argues this is impractical: one disjunctive query becomes
/// exponentially many estimation problems, each contributing error, which is
/// exactly what the bench_section6_iep experiment shows against Limited
/// Disjunction Encoding. Negative partial sums are possible when the inner
/// estimates are inconsistent; the final result clamps to >= 1.
class IepEstimator : public CardinalityEstimator {
 public:
  /// Size of one query's IEP expansion (the Section 6 experiment's
  /// subqueries/query column).
  struct CallStats {
    int dnf_terms = 0;
    int64_t subqueries = 0;  ///< 2^dnf_terms - 1, or 1 when conjunctive
  };

  /// `inner` must handle conjunctive queries over the same catalog; not
  /// owned. Queries expanding to more than `max_terms` DNF terms are
  /// rejected (2^n growth).
  IepEstimator(const CardinalityEstimator* inner, int max_terms = 16)
      : inner_(inner), max_terms_(max_terms) {}

  common::StatusOr<double> EstimateCard(const query::Query& q) const override;
  std::string name() const override { return "IEP(" + inner_->name() + ")"; }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }

  /// How EstimateCard expands `q`: its DNF term count and the number of
  /// inner estimates it costs. OutOfRange past `max_terms` DNF terms, the
  /// same rejection EstimateCard returns.
  common::StatusOr<CallStats> Expansion(const query::Query& q) const;

 private:
  const CardinalityEstimator* inner_;
  int max_terms_;
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_IEP_H_
