#include "featurize/featurizer.h"

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::featurize {

common::Status Featurizer::FeaturizeBatch(
    common::Gathered<query::Query> queries, float* out) const {
  obs::TraceSpan span("featurize.batch");
  obs::ScopedTimer timer("featurize.batch_seconds");
  obs::IncrementCounter("featurize.queries", /*labels=*/"",
                        static_cast<uint64_t>(queries.size()));
  const int d = dim();
  return common::GlobalPool().ParallelForStatus(
      static_cast<int64_t>(queries.size()), [&](int64_t i) {
        return FeaturizeInto(queries[static_cast<size_t>(i)],
                             out + i * static_cast<int64_t>(d));
      });
}

}  // namespace qfcard::featurize
