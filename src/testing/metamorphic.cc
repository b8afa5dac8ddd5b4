#include "testing/metamorphic.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/str_util.h"
#include "estimators/true_card.h"
#include "query/join_executor.h"

namespace qfcard::testing {

namespace {

bool IsRangeOp(query::CmpOp op) {
  return op == query::CmpOp::kLt || op == query::CmpOp::kLe ||
         op == query::CmpOp::kGt || op == query::CmpOp::kGe;
}

bool IsPureRangeClause(const query::ConjunctiveClause& clause) {
  for (const query::SimplePredicate& p : clause.preds) {
    if (!IsRangeOp(p.op)) return false;
  }
  return !clause.preds.empty();
}

bool IsInList(const query::CompoundPredicate& cp) {
  if (cp.disjuncts.empty()) return false;
  for (const query::ConjunctiveClause& clause : cp.disjuncts) {
    if (clause.preds.size() != 1 ||
        clause.preds[0].op != query::CmpOp::kEq) {
      return false;
    }
  }
  return true;
}

common::Status Violation(const char* invariant, double base, double other) {
  return common::Status::FailedPrecondition(common::StrFormat(
      "%s violated: base estimate %.17g vs transformed %.17g", invariant,
      base, other));
}

// a <= b up to relative slack.
bool LeqWithTol(double a, double b, double tol) {
  return a <= b + tol * std::max({std::fabs(a), std::fabs(b), 1.0});
}

bool EqWithTol(double a, double b, double tol) {
  return LeqWithTol(a, b, tol) && LeqWithTol(b, a, tol);
}

}  // namespace

query::Query PermuteQuery(const query::Query& q, common::Rng& rng) {
  query::Query out = q;
  rng.Shuffle(out.predicates);
  for (query::CompoundPredicate& cp : out.predicates) {
    rng.Shuffle(cp.disjuncts);
    for (query::ConjunctiveClause& clause : cp.disjuncts) {
      rng.Shuffle(clause.preds);
    }
  }
  rng.Shuffle(out.joins);
  rng.Shuffle(out.group_by);
  return out;
}

common::Status CheckWideningMonotone(const est::CardinalityEstimator& est,
                                     const query::Query& q, common::Rng& rng,
                                     const MetamorphicOptions& opts) {
  // Collect (compound, disjunct, pred) sites inside pure range clauses.
  struct Site {
    size_t cp, d, p;
  };
  std::vector<Site> sites;
  for (size_t c = 0; c < q.predicates.size(); ++c) {
    for (size_t d = 0; d < q.predicates[c].disjuncts.size(); ++d) {
      const query::ConjunctiveClause& clause = q.predicates[c].disjuncts[d];
      if (!IsPureRangeClause(clause)) continue;
      for (size_t p = 0; p < clause.preds.size(); ++p) {
        sites.push_back({c, d, p});
      }
    }
  }
  if (sites.empty()) return common::Status::Ok();  // vacuous
  const Site site = sites[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(sites.size()) - 1))];

  query::Query widened = q;
  query::SimplePredicate& pred =
      widened.predicates[site.cp].disjuncts[site.d].preds[site.p];
  const double delta = (std::fabs(pred.value) + 1.0) * rng.Uniform(0.1, 1.0);
  if (pred.op == query::CmpOp::kGt || pred.op == query::CmpOp::kGe) {
    pred.value -= delta;  // lower bound moves down
  } else {
    pred.value += delta;  // upper bound moves up
  }

  QFCARD_ASSIGN_OR_RETURN(const double base, est.EstimateCard(q));
  QFCARD_ASSIGN_OR_RETURN(const double wide, est.EstimateCard(widened));
  if (!LeqWithTol(base, wide, opts.rel_tol)) {
    return Violation("widening-monotone", base, wide);
  }
  return common::Status::Ok();
}

common::Status CheckConjunctMonotone(const est::CardinalityEstimator& est,
                                     const storage::Catalog& catalog,
                                     const query::Query& q, common::Rng& rng,
                                     const MetamorphicOptions& opts) {
  // Attributes (table slot, column) not yet predicated.
  std::vector<query::ColumnRef> free_attrs;
  for (size_t t = 0; t < q.tables.size(); ++t) {
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* table,
                            catalog.GetTable(q.tables[t].name));
    for (int c = 0; c < table->num_columns(); ++c) {
      const query::ColumnRef ref{static_cast<int>(t), c};
      bool taken = false;
      for (const query::CompoundPredicate& cp : q.predicates) {
        if (cp.col == ref) {
          taken = true;
          break;
        }
      }
      if (!taken) free_attrs.push_back(ref);
    }
  }
  if (free_attrs.empty()) return common::Status::Ok();  // vacuous
  const query::ColumnRef ref = free_attrs[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(free_attrs.size()) - 1))];

  QFCARD_ASSIGN_OR_RETURN(
      const storage::Table* table,
      catalog.GetTable(q.tables[static_cast<size_t>(ref.table)].name));
  const storage::ColumnStats& stats = table->column(ref.column).GetStats();
  const double cut =
      stats.min + (stats.max - stats.min) * rng.Uniform(0.25, 0.75);

  query::Query narrowed = q;
  query::CompoundPredicate cp;
  cp.col = ref;
  query::ConjunctiveClause clause;
  clause.preds.push_back(query::SimplePredicate{
      ref, rng.Bernoulli(0.5) ? query::CmpOp::kGe : query::CmpOp::kLe, cut});
  cp.disjuncts.push_back(std::move(clause));
  narrowed.predicates.push_back(std::move(cp));

  QFCARD_ASSIGN_OR_RETURN(const double base, est.EstimateCard(q));
  QFCARD_ASSIGN_OR_RETURN(const double narrow, est.EstimateCard(narrowed));
  if (!LeqWithTol(narrow, base, opts.rel_tol)) {
    return Violation("conjunct-monotone", base, narrow);
  }
  return common::Status::Ok();
}

common::Status CheckInListMonotone(const est::CardinalityEstimator& est,
                                   const query::Query& q, common::Rng& rng,
                                   const MetamorphicOptions& opts) {
  std::vector<size_t> in_lists;
  for (size_t c = 0; c < q.predicates.size(); ++c) {
    if (IsInList(q.predicates[c])) in_lists.push_back(c);
  }
  if (in_lists.empty()) return common::Status::Ok();  // vacuous
  const size_t ci = in_lists[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(in_lists.size()) - 1))];

  query::Query superset = q;
  query::CompoundPredicate& cp = superset.predicates[ci];
  double max_value = cp.disjuncts[0].preds[0].value;
  for (const query::ConjunctiveClause& clause : cp.disjuncts) {
    max_value = std::max(max_value, clause.preds[0].value);
  }
  query::ConjunctiveClause extra;
  extra.preds.push_back(query::SimplePredicate{
      cp.col, query::CmpOp::kEq,
      max_value + static_cast<double>(rng.UniformInt(1, 100))});
  cp.disjuncts.push_back(std::move(extra));

  QFCARD_ASSIGN_OR_RETURN(const double base, est.EstimateCard(q));
  QFCARD_ASSIGN_OR_RETURN(const double super, est.EstimateCard(superset));
  if (!LeqWithTol(base, super, opts.rel_tol)) {
    return Violation("in-list-monotone", base, super);
  }
  return common::Status::Ok();
}

common::Status CheckPermutationInvariance(const est::CardinalityEstimator& est,
                                          const query::Query& q,
                                          common::Rng& rng,
                                          const MetamorphicOptions& opts) {
  const query::Query permuted = PermuteQuery(q, rng);
  QFCARD_ASSIGN_OR_RETURN(const double base, est.EstimateCard(q));
  QFCARD_ASSIGN_OR_RETURN(const double perm, est.EstimateCard(permuted));
  if (!EqWithTol(base, perm, opts.rel_tol)) {
    return Violation("permutation-invariance", base, perm);
  }
  return common::Status::Ok();
}

common::Status CheckFeaturizationPermutationInvariance(
    const featurize::Featurizer& featurizer, const query::Query& q,
    common::Rng& rng) {
  const query::Query permuted = PermuteQuery(q, rng);
  const size_t dim = static_cast<size_t>(featurizer.dim());
  std::vector<float> base(dim, 0.0f);
  std::vector<float> perm(dim, 0.0f);
  const common::Status s_base = featurizer.FeaturizeInto(q, base.data());
  const common::Status s_perm = featurizer.FeaturizeInto(permuted, perm.data());
  if (s_base.ok() != s_perm.ok()) {
    return common::Status::FailedPrecondition(
        "featurization-permutation violated: " + featurizer.name() +
        " accepted only one of two equivalent queries (" +
        s_base.ToString() + " vs " + s_perm.ToString() + ")");
  }
  if (!s_base.ok()) return common::Status::Ok();  // consistently unsupported
  if (std::memcmp(base.data(), perm.data(), dim * sizeof(float)) != 0) {
    return common::Status::FailedPrecondition(
        "featurization-permutation violated: " + featurizer.name() +
        " produced different vectors for permuted predicates");
  }
  return common::Status::Ok();
}

common::Status CheckTrueCardExact(const storage::Catalog& catalog,
                                  const query::Query& q) {
  const est::TrueCardEstimator oracle(&catalog);
  QFCARD_ASSIGN_OR_RETURN(const double estimate, oracle.EstimateCard(q));
  QFCARD_ASSIGN_OR_RETURN(const int64_t count,
                          query::JoinExecutor::Count(catalog, q));
  if (estimate != static_cast<double>(count)) {
    return Violation("true-card-exact", static_cast<double>(count), estimate);
  }
  return common::Status::Ok();
}

}  // namespace qfcard::testing
