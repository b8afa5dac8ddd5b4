#include "estimators/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "query/query.h"

namespace qfcard::est {

common::StatusOr<double> SamplingEstimator::EstimateWithRng(
    const query::Query& q, common::Rng& rng) const {
  if (q.tables.size() != 1 || !q.joins.empty()) {
    return common::Status::Unimplemented(
        "Bernoulli sampling estimator supports single-table queries only");
  }
  QFCARD_ASSIGN_OR_RETURN(const storage::Table* table,
                          catalog_->GetTable(q.tables[0].name));
  int64_t matches = 0;
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    if (!rng.Bernoulli(p_)) continue;
    bool ok = true;
    for (const query::CompoundPredicate& cp : q.predicates) {
      if (!query::EvalCompoundOnRow(*table, r, cp)) {
        ok = false;
        break;
      }
    }
    if (ok) ++matches;
  }
  return std::max(static_cast<double>(matches) / p_, 1.0);
}

common::StatusOr<double> SamplingEstimator::EstimateCard(
    const query::Query& q) const {
  common::Rng rng(common::MixSeed(seed_, draws_.fetch_add(1)));
  return EstimateWithRng(q, rng);
}

common::StatusOr<std::vector<double>> SamplingEstimator::EstimateBatch(
    common::Gathered<query::Query> queries) const {
  // Ticket i of this batch is exactly the ticket query i would have drawn
  // from a serial EstimateCard loop, so results match it bit for bit.
  const uint64_t base = draws_.fetch_add(queries.size());
  std::vector<double> out(queries.size(), 0.0);
  QFCARD_RETURN_IF_ERROR(common::GlobalPool().ParallelForStatus(
      static_cast<int64_t>(queries.size()), [&](int64_t i) -> common::Status {
        const size_t idx = static_cast<size_t>(i);
        common::Rng rng(
            common::MixSeed(seed_, base + static_cast<uint64_t>(i)));
        QFCARD_ASSIGN_OR_RETURN(out[idx],
                                EstimateWithRng(queries[idx], rng));
        return common::Status::Ok();
      }));
  return out;
}

size_t SamplingEstimator::SizeBytes() const {
  size_t bytes = 0;
  for (int t = 0; t < catalog_->num_tables(); ++t) {
    const storage::Table& table = catalog_->table(t);
    bytes += static_cast<size_t>(
        p_ * static_cast<double>(table.num_rows()) *
        static_cast<double>(table.num_columns()) * sizeof(double));
  }
  return bytes;
}

}  // namespace qfcard::est
