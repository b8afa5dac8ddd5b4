#include "workload/labeler.h"

#include <cstdlib>
#include <fstream>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/join_executor.h"
#include "query/normalize.h"

namespace qfcard::workload {

namespace {

// Shared shape of both labelers: count every query in parallel (each query
// writes only its own slot, so the counts are identical at every
// QFCARD_THREADS setting), then assemble the labeled set serially in input
// order so drop_empty filtering stays deterministic.
common::StatusOr<std::vector<LabeledQuery>> LabelParallel(
    const std::vector<query::Query>& queries, bool drop_empty,
    common::FunctionRef<common::StatusOr<int64_t>(const query::Query&)>
        count) {
  std::vector<int64_t> cards(queries.size(), 0);
  QFCARD_RETURN_IF_ERROR(common::GlobalPool().ParallelForStatus(
      static_cast<int64_t>(queries.size()), [&](int64_t i) -> common::Status {
        const size_t idx = static_cast<size_t>(i);
        QFCARD_ASSIGN_OR_RETURN(cards[idx], count(queries[idx]));
        return common::Status::Ok();
      }));
  std::vector<LabeledQuery> out;
  out.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (drop_empty && cards[i] == 0) continue;
    out.push_back(LabeledQuery{queries[i], static_cast<double>(cards[i])});
  }
  // Dropped queries would leave their reserved slots allocated for as long
  // as the labeled set lives.
  if (drop_empty) out.shrink_to_fit();
  return out;
}

}  // namespace

common::StatusOr<std::vector<LabeledQuery>> LabelOnTable(
    const storage::Table& table, const std::vector<query::Query>& queries,
    bool drop_empty) {
  return LabelParallel(queries, drop_empty, [&](const query::Query& q) {
    return query::Executor::Count(table, q);
  });
}

common::StatusOr<std::vector<LabeledQuery>> LabelOnCatalog(
    const storage::Catalog& catalog, const std::vector<query::Query>& queries,
    bool drop_empty) {
  return LabelParallel(queries, drop_empty, [&](const query::Query& q) {
    return query::JoinExecutor::Count(catalog, q);
  });
}

common::Status SaveWorkload(const std::vector<LabeledQuery>& queries,
                            const storage::Catalog& catalog,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return common::Status::Internal(
        common::StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  for (const LabeledQuery& lq : queries) {
    QFCARD_ASSIGN_OR_RETURN(const std::string sql,
                            query::QueryToSql(lq.query, catalog));
    out << common::StrFormat("%.17g", lq.card) << '\t' << sql << '\n';
  }
  if (!out.good()) {
    return common::Status::Internal(
        common::StrFormat("write error on '%s'", path.c_str()));
  }
  return common::Status::Ok();
}

common::StatusOr<std::vector<LabeledQuery>> LoadWorkload(
    const storage::Catalog& catalog, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return common::Status::NotFound(
        common::StrFormat("cannot open '%s'", path.c_str()));
  }
  std::vector<LabeledQuery> out;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return common::Status::InvalidArgument(common::StrFormat(
          "%s:%d: expected 'card<TAB>sql'", path.c_str(), line_no));
    }
    LabeledQuery lq;
    char* end = nullptr;
    lq.card = std::strtod(line.c_str(), &end);
    if (end == line.c_str()) {
      return common::Status::InvalidArgument(common::StrFormat(
          "%s:%d: bad cardinality", path.c_str(), line_no));
    }
    QFCARD_ASSIGN_OR_RETURN(lq.query,
                            query::ParseQuery(line.substr(tab + 1), catalog));
    out.push_back(std::move(lq));
  }
  return out;
}

DriftSplit SplitByNumAttributes(std::vector<LabeledQuery> queries,
                                int max_attrs) {
  DriftSplit split;
  for (LabeledQuery& lq : queries) {
    if (lq.query.NumAttributes() <= max_attrs) {
      split.low.push_back(std::move(lq));
    } else {
      split.high.push_back(std::move(lq));
    }
  }
  return split;
}

}  // namespace qfcard::workload
