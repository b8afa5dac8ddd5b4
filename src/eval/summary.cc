#include "eval/summary.h"

#include <algorithm>
#include <utility>

namespace qfcard::eval {

std::map<int, ml::QErrorSummary> SummarizeByGroup(
    const std::vector<double>& errors, const std::vector<int>& groups) {
  std::map<int, std::vector<double>> grouped;
  const size_t n = std::min(errors.size(), groups.size());
  for (size_t i = 0; i < n; ++i) grouped[groups[i]].push_back(errors[i]);
  std::map<int, ml::QErrorSummary> out;
  for (auto& [key, group] : grouped) {
    out[key] = ml::QErrorSummary::FromErrors(std::move(group));
  }
  return out;
}

std::vector<int> BucketizeGroups(const std::vector<int>& groups,
                                 const std::vector<int>& buckets) {
  std::vector<int> sorted = buckets;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> out;
  out.reserve(groups.size());
  for (const int g : groups) {
    int chosen = sorted.front();
    for (const int b : sorted) {
      if (b <= g) chosen = b;
    }
    out.push_back(chosen);
  }
  return out;
}

}  // namespace qfcard::eval
