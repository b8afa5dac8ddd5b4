#include "estimators/postgres.h"

#include <algorithm>
#include <cmath>

namespace qfcard::est {

namespace {

ColumnSynopsis BuildSynopsis(const storage::Column& col,
                             const PostgresOptions& options) {
  ColumnSynopsis s;
  s.rows = col.size();
  s.integral = col.integral();
  // The column's cached value counts: distinct values in ascending order,
  // each with its row count. NaN rows hold no value, so they only dilute
  // the MCV frequencies.
  const storage::ColumnStats& stats = col.GetStats();
  s.min = stats.min;
  s.max = stats.max;
  s.distinct = std::max<int64_t>(stats.distinct, 1);
  if (stats.values.empty()) return s;

  // Most common values.
  std::vector<std::pair<int64_t, double>> by_count;
  by_count.reserve(stats.values.size());
  for (size_t i = 0; i < stats.values.size(); ++i) {
    by_count.push_back({stats.counts[i], stats.values[i]});
  }
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const int n_mcv =
      std::min<int>(options.mcv_entries, static_cast<int>(by_count.size()));
  for (int i = 0; i < n_mcv; ++i) {
    const double f =
        static_cast<double>(by_count[static_cast<size_t>(i)].first) /
        static_cast<double>(col.size());
    s.mcv.push_back({by_count[static_cast<size_t>(i)].second, f});
    s.mcv_total_freq += f;
  }
  std::sort(s.mcv.begin(), s.mcv.end());

  // Equi-depth histogram over all values (Postgres builds it over non-MCV
  // values; including them only flattens the estimate slightly).
  s.hist_bounds = stats.RankValues(std::max(1, options.histogram_buckets));
  return s;
}

}  // namespace

double ColumnSynopsis::FractionLe(double v) const {
  if (hist_bounds.size() < 2) return v >= max ? 1.0 : 0.0;
  if (v < hist_bounds.front()) return 0.0;
  if (v >= hist_bounds.back()) return 1.0;
  // Locate bucket: bounds b_0 <= b_1 <= ... <= b_n; bucket i spans
  // [b_i, b_{i+1}] and holds 1/n of the rows. Linear interpolation inside.
  const size_t n = hist_bounds.size() - 1;
  const auto it = std::upper_bound(hist_bounds.begin(), hist_bounds.end(), v);
  size_t idx = static_cast<size_t>(it - hist_bounds.begin());
  if (idx == 0) return 0.0;
  idx -= 1;  // bucket index
  const double lo = hist_bounds[idx];
  const double hi = hist_bounds[idx + 1];
  const double within = hi > lo ? (v - lo) / (hi - lo) : 1.0;
  return (static_cast<double>(idx) + std::clamp(within, 0.0, 1.0)) /
         static_cast<double>(n);
}

double ColumnSynopsis::FractionEq(double v) const {
  const auto it = std::lower_bound(
      mcv.begin(), mcv.end(), std::make_pair(v, -1.0),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it != mcv.end() && it->first == v) return it->second;
  if (v < min || v > max) return 0.0;
  const int64_t non_mcv_distinct =
      std::max<int64_t>(distinct - static_cast<int64_t>(mcv.size()), 1);
  return std::max(0.0, 1.0 - mcv_total_freq) /
         static_cast<double>(non_mcv_distinct);
}

common::StatusOr<PostgresStyleEstimator> PostgresStyleEstimator::Build(
    const storage::Catalog* catalog, const PostgresOptions& options) {
  PostgresStyleEstimator est;
  est.catalog_ = catalog;
  est.synopses_.resize(static_cast<size_t>(catalog->num_tables()));
  for (int t = 0; t < catalog->num_tables(); ++t) {
    const storage::Table& table = catalog->table(t);
    for (int c = 0; c < table.num_columns(); ++c) {
      est.synopses_[static_cast<size_t>(t)].push_back(
          BuildSynopsis(table.column(c), options));
    }
  }
  return est;
}

double PostgresStyleEstimator::ClauseSelectivity(
    const ColumnSynopsis& s, const query::ConjunctiveClause& clause) const {
  // Accumulate the tightest range, equality value, and exclusions, mirroring
  // how Postgres' clauselist_selectivity pairs up range bounds.
  double lo = s.min;
  double hi = s.max;
  bool has_eq = false;
  double eq_value = 0.0;
  std::vector<double> nots;
  const double step = s.integral ? 1.0 : 0.0;
  for (const query::SimplePredicate& p : clause.preds) {
    switch (p.op) {
      case query::CmpOp::kEq:
        has_eq = true;
        eq_value = p.value;
        break;
      case query::CmpOp::kGe:
        lo = std::max(lo, p.value);
        break;
      case query::CmpOp::kGt:
        lo = std::max(lo, p.value + step);
        break;
      case query::CmpOp::kLe:
        hi = std::min(hi, p.value);
        break;
      case query::CmpOp::kLt:
        hi = std::min(hi, p.value - step);
        break;
      case query::CmpOp::kNe:
        nots.push_back(p.value);
        break;
    }
  }
  double sel;
  if (has_eq) {
    sel = (eq_value >= lo && eq_value <= hi) ? s.FractionEq(eq_value) : 0.0;
  } else if (lo > hi) {
    sel = 0.0;
  } else {
    // F(hi) - F(lo - step): inclusive bounds on an equi-depth CDF (for
    // continuous attributes the point mass at lo is negligible).
    const double f_hi = s.FractionLe(hi);
    const double f_lo = s.FractionLe(s.integral ? lo - 1.0 : lo);
    sel = std::max(0.0, f_hi - f_lo);
    for (const double v : nots) {
      if (v >= lo && v <= hi) sel = std::max(0.0, sel - s.FractionEq(v));
    }
  }
  return std::clamp(sel, 0.0, 1.0);
}

double PostgresStyleEstimator::CompoundSelectivity(
    const ColumnSynopsis& synopsis, const query::CompoundPredicate& cp) const {
  // Disjunction: s = s1 + s2 - s1*s2, folded left to right (Postgres'
  // clauselist OR treatment).
  double sel = 0.0;
  for (const query::ConjunctiveClause& clause : cp.disjuncts) {
    const double s = ClauseSelectivity(synopsis, clause);
    sel = sel + s - sel * s;
  }
  return std::clamp(sel, 0.0, 1.0);
}

common::StatusOr<double> PostgresStyleEstimator::EstimateCard(
    const query::Query& q) const {
  QFCARD_RETURN_IF_ERROR(query::ValidateQuery(q, *catalog_));
  // Per-table selected fractions under the independence assumption.
  std::vector<int> catalog_idx(q.tables.size());
  double card = 1.0;
  for (size_t t = 0; t < q.tables.size(); ++t) {
    QFCARD_ASSIGN_OR_RETURN(catalog_idx[t],
                            catalog_->TableIndex(q.tables[t].name));
    card *= static_cast<double>(
        catalog_->table(catalog_idx[t]).num_rows());
  }
  for (const query::CompoundPredicate& cp : q.predicates) {
    const ColumnSynopsis& s =
        synopses_[static_cast<size_t>(
            catalog_idx[static_cast<size_t>(cp.col.table)])]
                 [static_cast<size_t>(cp.col.column)];
    card *= CompoundSelectivity(s, cp);
  }
  // System R equi-join selectivity: 1 / max(ndv(a), ndv(b)).
  for (const query::JoinPredicate& j : q.joins) {
    const ColumnSynopsis& left =
        synopses_[static_cast<size_t>(
            catalog_idx[static_cast<size_t>(j.left.table)])]
                 [static_cast<size_t>(j.left.column)];
    const ColumnSynopsis& right =
        synopses_[static_cast<size_t>(
            catalog_idx[static_cast<size_t>(j.right.table)])]
                 [static_cast<size_t>(j.right.column)];
    card /= static_cast<double>(std::max(left.distinct, right.distinct));
  }
  if (!q.group_by.empty()) {
    // Result size of a grouped count: bounded by the product of grouping
    // NDVs and by the number of qualifying rows.
    double groups = 1.0;
    for (const query::ColumnRef& g : q.group_by) {
      const ColumnSynopsis& s =
          synopses_[static_cast<size_t>(
              catalog_idx[static_cast<size_t>(g.table)])]
                   [static_cast<size_t>(g.column)];
      groups *= static_cast<double>(s.distinct);
    }
    card = std::min(card, groups);
  }
  return std::max(card, 1.0);
}

size_t PostgresStyleEstimator::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& per_table : synopses_) {
    for (const ColumnSynopsis& s : per_table) {
      bytes += sizeof(ColumnSynopsis);
      bytes += s.hist_bounds.size() * sizeof(double);
      bytes += s.mcv.size() * sizeof(std::pair<double, double>);
    }
  }
  return bytes;
}

}  // namespace qfcard::est
