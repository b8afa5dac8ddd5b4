#include "ml/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "common/str_util.h"

namespace qfcard::ml {

double QError(double truth, double estimate) {
  const double x = std::max(truth, 1.0);
  const double e = std::max(estimate, 1.0);
  return std::max(x / e, e / x);
}

QErrorSummary QErrorSummary::FromErrors(std::vector<double> errors) {
  QErrorSummary s;
  s.count = errors.size();
  if (errors.empty()) return s;
  std::sort(errors.begin(), errors.end());
  double sum = 0.0;
  for (const double e : errors) sum += e;
  s.mean = sum / static_cast<double>(errors.size());
  s.p01 = common::QuantileSorted(errors, 0.01);
  s.p25 = common::QuantileSorted(errors, 0.25);
  s.median = common::QuantileSorted(errors, 0.50);
  s.p75 = common::QuantileSorted(errors, 0.75);
  s.p90 = common::QuantileSorted(errors, 0.90);
  s.p95 = common::QuantileSorted(errors, 0.95);
  s.p99 = common::QuantileSorted(errors, 0.99);
  s.max = errors.back();
  return s;
}

std::string QErrorSummary::ToString() const {
  return common::StrFormat(
      "n=%zu mean=%.2f median=%.2f p25=%.2f p75=%.2f p99=%.2f max=%.2f",
      count, mean, median, p25, p75, p99, max);
}

std::vector<double> QErrors(const std::vector<double>& truths,
                            const std::vector<double>& estimates) {
  std::vector<double> out;
  const size_t n = std::min(truths.size(), estimates.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(QError(truths[i], estimates[i]));
  return out;
}

double Rmse(const std::vector<float>& a, const std::vector<float>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

}  // namespace qfcard::ml
