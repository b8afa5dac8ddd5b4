#include "estimators/local_models.h"

#include <algorithm>

#include "common/str_util.h"
#include "optimizer/join_order.h"
#include "query/join_executor.h"

namespace qfcard::est {

common::StatusOr<const storage::Table*> LocalModelSet::GetOrMaterialize(
    const std::vector<std::string>& tables) {
  const std::string key = query::SubSchemaKey(tables);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    QFCARD_ASSIGN_OR_RETURN(
        storage::Table mat,
        query::JoinExecutor::Materialize(*catalog_, tables, *graph_));
    Entry entry;
    entry.materialized = std::make_unique<storage::Table>(std::move(mat));
    it = entries_.emplace(key, std::move(entry)).first;
  }
  return static_cast<const storage::Table*>(it->second.materialized.get());
}

common::Status LocalModelSet::TrainSubSchema(
    const std::vector<std::string>& tables,
    const std::vector<query::Query>& local_queries,
    const std::vector<double>& cards, double valid_fraction, uint64_t seed) {
  QFCARD_ASSIGN_OR_RETURN(const storage::Table* mat, GetOrMaterialize(tables));
  Entry& entry = entries_[query::SubSchemaKey(tables)];
  entry.estimator = std::make_unique<MlEstimator>(
      ffactory_(featurize::FeatureSchema::FromTable(*mat)), mfactory_());
  return entry.estimator->Train(local_queries, cards, valid_fraction, seed);
}

common::StatusOr<query::Query> LocalModelSet::RewriteToLocal(
    const query::Query& q) const {
  std::vector<std::string> tables;
  tables.reserve(q.tables.size());
  for (const query::TableRef& ref : q.tables) tables.push_back(ref.name);
  const std::string key = query::SubSchemaKey(tables);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return common::Status::NotFound(common::StrFormat(
        "no local model for sub-schema '%s'", key.c_str()));
  }
  const storage::Table& mat = *it->second.materialized;

  query::Query local;
  local.tables.push_back(query::TableRef{mat.name(), mat.name()});
  for (const query::CompoundPredicate& cp : q.predicates) {
    if (cp.col.table < 0 || cp.col.table >= static_cast<int>(q.tables.size())) {
      return common::Status::OutOfRange(
          common::StrFormat("table slot %d out of range [0, %zu)",
                            cp.col.table, q.tables.size()));
    }
    const std::string& tname =
        q.tables[static_cast<size_t>(cp.col.table)].name;
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* base,
                            catalog_->GetTable(tname));
    if (cp.col.column < 0 || cp.col.column >= base->num_columns()) {
      return common::Status::OutOfRange(common::StrFormat(
          "column index %d out of range for table '%s'", cp.col.column,
          tname.c_str()));
    }
    const std::string col_name =
        tname + "." + base->column(cp.col.column).name();
    QFCARD_ASSIGN_OR_RETURN(const int local_col, mat.ColumnIndex(col_name));
    query::CompoundPredicate rebased = cp;
    rebased.col = query::ColumnRef{0, local_col};
    for (query::ConjunctiveClause& clause : rebased.disjuncts) {
      for (query::SimplePredicate& p : clause.preds) p.col = rebased.col;
    }
    local.predicates.push_back(std::move(rebased));
  }
  return local;
}

common::StatusOr<double> LocalModelSet::EstimateCard(
    const query::Query& q) const {
  QFCARD_ASSIGN_OR_RETURN(const query::Query local, RewriteToLocal(q));
  std::vector<std::string> tables;
  for (const query::TableRef& ref : q.tables) tables.push_back(ref.name);
  const Entry& entry = entries_.at(query::SubSchemaKey(tables));
  if (entry.estimator == nullptr) {
    return common::Status::FailedPrecondition(
        "sub-schema materialized but model not trained");
  }
  return entry.estimator->EstimateCard(local);
}

std::string LocalModelSet::name() const {
  for (const auto& [key, entry] : entries_) {
    if (entry.estimator != nullptr) {
      return "local(" + entry.estimator->name() + ")";
    }
  }
  return "local(<untrained>)";
}

size_t LocalModelSet::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.estimator != nullptr) bytes += entry.estimator->SizeBytes();
  }
  return bytes;
}

bool LocalModelSet::HasModel(const std::vector<std::string>& tables) const {
  const auto it = entries_.find(query::SubSchemaKey(tables));
  return it != entries_.end() && it->second.estimator != nullptr;
}

common::StatusOr<double> HybridEstimator::EstimateCard(
    const query::Query& q) const {
  // 1. Exact sub-schema model.
  std::vector<std::string> tables;
  for (const query::TableRef& ref : q.tables) tables.push_back(ref.name);
  if (local_->HasModel(tables)) {
    return local_->EstimateCard(q);
  }

  // 2. Largest trained sub-schema of the query's tables (ties broken by
  // enumeration order). Masks index Query::tables slots.
  const size_t n = q.tables.size();
  uint32_t best_mask = 0;
  int best_size = 0;
  for (uint32_t mask = 1; n < 32 && mask < (1u << n); ++mask) {
    const int size = __builtin_popcount(mask);
    if (size <= best_size) continue;
    std::vector<std::string> subset;
    for (size_t t = 0; t < n; ++t) {
      if (mask & (1u << t)) subset.push_back(tables[t]);
    }
    if (local_->HasModel(subset)) {
      best_mask = mask;
      best_size = size;
    }
  }
  QFCARD_ASSIGN_OR_RETURN(const double pg_full, synopses_->EstimateCard(q));
  if (best_mask == 0) {
    // 3. No learned model covers any part of the query.
    return pg_full;
  }
  QFCARD_ASSIGN_OR_RETURN(const query::Query sub,
                          opt::InducedSubQuery(q, best_mask));
  QFCARD_ASSIGN_OR_RETURN(const double learned_sub,
                          local_->EstimateCard(sub));
  QFCARD_ASSIGN_OR_RETURN(const double pg_sub, synopses_->EstimateCard(sub));
  // Scale the learned core by the traditional estimate of the remainder.
  return std::max(learned_sub * pg_full / std::max(pg_sub, 1.0), 1.0);
}

}  // namespace qfcard::est
