#ifndef QFCARD_EVAL_SUMMARY_H_
#define QFCARD_EVAL_SUMMARY_H_

#include <map>
#include <vector>

#include "ml/metrics.h"

namespace qfcard::eval {

/// Buckets q-errors by an integer group key (e.g. number of attributes or
/// predicates in the query) and summarizes each bucket with
/// ml::QErrorSummary::FromErrors — the aggregation behind Figures 2, 3, 4
/// and 5. Exact, so a group holding every query reports the same summary as
/// FromErrors over all of them.
std::map<int, ml::QErrorSummary> SummarizeByGroup(
    const std::vector<double>& errors, const std::vector<int>& groups);

/// Collapses group keys onto a fixed set of buckets: each value maps to the
/// largest bucket <= value (values below the first bucket map to it).
/// Matches the paper's figures, which show #attributes in {1, 2, 3, 5, 8}.
std::vector<int> BucketizeGroups(const std::vector<int>& groups,
                                 const std::vector<int>& buckets);

}  // namespace qfcard::eval

#endif  // QFCARD_EVAL_SUMMARY_H_
