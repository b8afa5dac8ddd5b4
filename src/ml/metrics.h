#ifndef QFCARD_ML_METRICS_H_
#define QFCARD_ML_METRICS_H_

#include <string>
#include <vector>

namespace qfcard::ml {

/// The q-error metric (Moerkotte et al.): max(x/e, e/x) for true cardinality
/// x and estimate e, both clamped to >= 1 (the paper considers only
/// non-empty results and estimates >= 1). Relative, symmetric, and >= 1.
double QError(double truth, double estimate);

/// Distribution summary of a q-error sample, matching the statistics the
/// paper reports: mean, median, box-plot quantiles (25/75), whiskers
/// (1/99), 90/95, and max.
struct QErrorSummary {
  size_t count = 0;
  double mean = 0.0;
  double p01 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  /// Computes the summary; `errors` is consumed (sorted in place).
  static QErrorSummary FromErrors(std::vector<double> errors);

  /// "mean=3.2 median=1.5 p99=20.1 max=45.5" style line.
  std::string ToString() const;
};

/// Convenience: q-errors for paired truths/estimates.
std::vector<double> QErrors(const std::vector<double>& truths,
                            const std::vector<double>& estimates);

/// Root mean squared error between paired vectors (label space).
double Rmse(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace qfcard::ml

#endif  // QFCARD_ML_METRICS_H_
