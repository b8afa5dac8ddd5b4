#ifndef QFCARD_COMMON_STATS_H_
#define QFCARD_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <vector>

namespace qfcard::common {

/// Linear-interpolated quantile of a sorted sample, q in [0, 1]. Lives in
/// common/ because ml/ (q-error summaries), adapt/ (tier windows) and the
/// example binaries all need it, below every layer that reads a window
/// (tools/layers.json).
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Quantiles `qs` of an unsorted sample (typically a rolling window's
/// Ring::Snapshot()): sorts the sample once and reads every q from it.
inline std::vector<double> Quantiles(std::vector<double> sample,
                                     std::initializer_list<double> qs) {
  std::sort(sample.begin(), sample.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) out.push_back(QuantileSorted(sample, q));
  return out;
}

}  // namespace qfcard::common

#endif  // QFCARD_COMMON_STATS_H_
