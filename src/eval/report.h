#ifndef QFCARD_EVAL_REPORT_H_
#define QFCARD_EVAL_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "ml/metrics.h"

namespace qfcard::eval {

/// Fixed-width text table, the output format of every bench binary.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Prints the table with aligned columns and a separator under the header.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Compact text rendering of a q-error distribution in box-plot order:
/// "p1 | p25 [median] p75 | p99  (max)". Used for the figure
/// reproductions, which are box plots in the paper.
std::string FormatBox(const ml::QErrorSummary& summary);

/// Formats a double with sensible precision for q-errors.
std::string FormatQ(double v);

/// Appends a telemetry section to a report: per-histogram p50/p95/max for
/// every registered latency and q-error series, and hot counters. No-op
/// (prints nothing) when QFCARD_METRICS is off, so existing bench output is
/// unchanged by default.
void PrintTelemetrySnapshot(std::ostream& os);

}  // namespace qfcard::eval

#endif  // QFCARD_EVAL_REPORT_H_
