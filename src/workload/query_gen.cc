#include "workload/query_gen.h"

#include <algorithm>
#include <set>

namespace qfcard::workload {

PredicateGenOptions ConjunctiveWorkloadOptions(int max_attrs) {
  PredicateGenOptions opts;
  opts.max_attrs = max_attrs;
  return opts;
}

PredicateGenOptions MixedWorkloadOptions(int max_attrs) {
  PredicateGenOptions opts;
  opts.max_attrs = max_attrs;
  opts.min_disjuncts = 1;
  opts.max_disjuncts = 3;  // the paper repeats the generation 1..3 times
  return opts;
}

std::vector<query::Query> GeneratePredicateWorkload(
    const storage::Table& table, int count, const PredicateGenOptions& options,
    common::Rng& rng) {
  std::vector<int> allowed = options.allowed_attrs;
  if (allowed.empty()) {
    for (int c = 0; c < table.num_columns(); ++c) allowed.push_back(c);
  }
  std::vector<query::Query> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    query::Query q;
    q.tables.push_back(query::TableRef{table.name(), table.name()});
    const int k = static_cast<int>(rng.UniformInt(
        options.min_attrs,
        std::min<int64_t>(options.max_attrs,
                          static_cast<int64_t>(allowed.size()))));
    std::vector<int> attr_order = allowed;
    rng.Shuffle(attr_order);
    // Every vector of the query gets its exact capacity (reserve, plus a
    // trim where a draw may skip an element): growth slack would otherwise
    // stay allocated as long as the workload lives, ~20% of a large draw.
    // Neither draws from `rng`.
    q.predicates.reserve(static_cast<size_t>(std::max(k, 0)));
    for (int ai = 0; ai < k; ++ai) {
      const int col_idx = attr_order[static_cast<size_t>(ai)];
      const storage::Column& col = table.column(col_idx);
      if (col.size() == 0) continue;
      query::CompoundPredicate cp;
      cp.col = query::ColumnRef{0, col_idx};
      // The `> 0` guard keeps the draw sequence of pre-existing options
      // byte-identical (Bernoulli consumes a draw).
      if (options.in_list_prob > 0 && rng.Bernoulli(options.in_list_prob)) {
        // IN-list: disjunction of equalities over distinct sampled values.
        const int want = static_cast<int>(
            rng.UniformInt(1, std::max(1, options.max_in_list)));
        std::set<double> values;
        for (int vi = 0; vi < want; ++vi) {
          values.insert(col.Get(rng.UniformInt(0, col.size() - 1)));
        }
        cp.disjuncts.reserve(values.size());
        for (const double v : values) {
          query::ConjunctiveClause clause;
          clause.preds.push_back(
              query::SimplePredicate{cp.col, query::CmpOp::kEq, v});
          cp.disjuncts.push_back(std::move(clause));
        }
        q.predicates.push_back(std::move(cp));
        continue;
      }
      // Guarded like in_list_prob; the extra has_dictionary() test runs
      // before any draw so non-string columns cost nothing.
      if (options.like_prob > 0 && col.has_dictionary() &&
          rng.Bernoulli(options.like_prob)) {
        const storage::Dictionary& dict = col.dictionary();
        const int64_t code = static_cast<int64_t>(
            col.Get(rng.UniformInt(0, col.size() - 1)));
        const std::string& value = dict.Value(code);
        const int64_t max_len = std::min<int64_t>(
            static_cast<int64_t>(value.size()),
            std::max(1, options.max_like_prefix));
        const std::string prefix = value.substr(
            0, static_cast<size_t>(rng.UniformInt(1, std::max<int64_t>(
                                                         1, max_len))));
        const storage::PrefixRange range = dict.PrefixCodeRange(prefix);
        query::ConjunctiveClause clause;
        clause.preds.push_back(query::SimplePredicate{
            cp.col, query::CmpOp::kGe, static_cast<double>(range.lo)});
        // Only emit the upper bound when it names an in-dictionary code:
        // QueryToSql prints dict codes as their string values, so an
        // out-of-range hi would not round-trip through the parser.
        if (range.bounded && range.hi < dict.size()) {
          clause.preds.push_back(query::SimplePredicate{
              cp.col, query::CmpOp::kLt, static_cast<double>(range.hi)});
        }
        cp.disjuncts.push_back(std::move(clause));
        q.predicates.push_back(std::move(cp));
        continue;
      }
      const int m = static_cast<int>(
          rng.UniformInt(options.min_disjuncts, options.max_disjuncts));
      cp.disjuncts.reserve(static_cast<size_t>(std::max(m, 0)));
      for (int d = 0; d < m; ++d) {
        // Closed range between two sampled data values.
        double a = col.Get(rng.UniformInt(0, col.size() - 1));
        double b = col.Get(rng.UniformInt(0, col.size() - 1));
        if (a > b) std::swap(a, b);
        // Not-equal predicates excluding values inside the range.
        const int l =
            static_cast<int>(rng.UniformInt(0, options.max_not_equals));
        query::ConjunctiveClause clause;
        clause.preds.reserve(2 + static_cast<size_t>(std::max(l, 0)));
        clause.preds.push_back(
            query::SimplePredicate{cp.col, query::CmpOp::kGe, a});
        clause.preds.push_back(
            query::SimplePredicate{cp.col, query::CmpOp::kLe, b});
        std::set<double> excluded;
        for (int ni = 0; ni < l; ++ni) {
          double v;
          if (col.integral() && b - a >= 1.0) {
            v = static_cast<double>(
                rng.UniformInt(static_cast<int64_t>(a), static_cast<int64_t>(b)));
          } else {
            v = col.Get(rng.UniformInt(0, col.size() - 1));
            if (v < a || v > b) continue;
          }
          if (!excluded.insert(v).second) continue;
          clause.preds.push_back(
              query::SimplePredicate{cp.col, query::CmpOp::kNe, v});
        }
        clause.preds.shrink_to_fit();
        cp.disjuncts.push_back(std::move(clause));
      }
      q.predicates.push_back(std::move(cp));
    }
    q.predicates.shrink_to_fit();
    if (options.max_group_by_attrs > 0) {
      const int g = static_cast<int>(
          rng.UniformInt(0, options.max_group_by_attrs));
      const std::vector<int> group_attrs = rng.SampleWithoutReplacement(
          table.num_columns(), g);
      q.group_by.reserve(group_attrs.size());
      for (const int a : group_attrs) {
        q.group_by.push_back(query::ColumnRef{0, a});
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace qfcard::workload
