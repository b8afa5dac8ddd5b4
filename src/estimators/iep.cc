#include "estimators/iep.h"

#include <algorithm>

#include "common/str_util.h"

namespace qfcard::est {

common::StatusOr<IepEstimator::CallStats> IepEstimator::Expansion(
    const query::Query& q) const {
  // The conjunction of per-attribute disjunctions expands into DNF terms:
  // each term picks one clause per compound predicate.
  int64_t num_terms = 1;
  for (const query::CompoundPredicate& cp : q.predicates) {
    num_terms *= static_cast<int64_t>(cp.disjuncts.size());
    if (num_terms > max_terms_) {
      return common::Status::OutOfRange(common::StrFormat(
          "IEP expansion exceeds %d DNF terms (2^n subqueries)", max_terms_));
    }
  }
  CallStats stats;
  stats.dnf_terms = static_cast<int>(num_terms);
  stats.subqueries = num_terms == 1 ? 1 : (int64_t{1} << num_terms) - 1;
  return stats;
}

common::StatusOr<double> IepEstimator::EstimateCard(
    const query::Query& q) const {
  QFCARD_ASSIGN_OR_RETURN(const CallStats stats, Expansion(q));
  const int64_t num_terms = stats.dnf_terms;

  // Fast path: already conjunctive.
  if (num_terms == 1) return inner_->EstimateCard(q);

  // Term k is described by the clause index chosen for each compound.
  std::vector<std::vector<int>> term_choices;
  term_choices.reserve(static_cast<size_t>(num_terms));
  std::vector<int> current(q.predicates.size(), 0);
  for (int64_t k = 0; k < num_terms; ++k) {
    term_choices.push_back(current);
    for (size_t a = 0; a < current.size(); ++a) {
      if (++current[a] <
          static_cast<int>(q.predicates[a].disjuncts.size())) {
        break;
      }
      current[a] = 0;
    }
  }

  // Inclusion-exclusion over all non-empty subsets of terms.
  double estimate = 0.0;
  const uint64_t full = (1ULL << num_terms) - 1;
  for (uint64_t mask = 1; mask <= full; ++mask) {
    // AND of the selected terms: per attribute, concatenate each selected
    // term's clause into one conjunctive clause.
    query::Query sub;
    sub.tables = q.tables;
    sub.joins = q.joins;
    sub.group_by = q.group_by;
    for (size_t a = 0; a < q.predicates.size(); ++a) {
      query::CompoundPredicate cp;
      cp.col = q.predicates[a].col;
      query::ConjunctiveClause merged;
      for (int64_t k = 0; k < num_terms; ++k) {
        if (!(mask & (1ULL << k))) continue;
        const query::ConjunctiveClause& clause =
            q.predicates[a]
                .disjuncts[static_cast<size_t>(
                    term_choices[static_cast<size_t>(k)][a])];
        merged.preds.insert(merged.preds.end(), clause.preds.begin(),
                            clause.preds.end());
      }
      cp.disjuncts.push_back(std::move(merged));
      sub.predicates.push_back(std::move(cp));
    }
    QFCARD_ASSIGN_OR_RETURN(const double card, inner_->EstimateCard(sub));
    const bool add = (__builtin_popcountll(mask) % 2) == 1;
    estimate += add ? card : -card;
  }
  return std::max(estimate, 1.0);
}

}  // namespace qfcard::est
