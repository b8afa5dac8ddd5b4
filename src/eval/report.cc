#include "eval/report.h"

#include <algorithm>

#include "common/str_util.h"
#include "obs/metrics.h"

namespace qfcard::eval {

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      os << cell;
      if (c + 1 < widths.size()) {
        os << std::string(widths[c] - cell.size() + 2, ' ');
      }
    }
    os << '\n';
  };
  print_row(headers_);
  size_t total = 0;
  for (const size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string FormatQ(double v) {
  if (v >= 1000.0) return common::StrFormat("%.0f", v);
  if (v >= 100.0) return common::StrFormat("%.1f", v);
  return common::StrFormat("%.2f", v);
}

std::string FormatBox(const ml::QErrorSummary& s) {
  return common::StrFormat("%s | %s [%s] %s | %s (max %s)",
                           FormatQ(s.p01).c_str(), FormatQ(s.p25).c_str(),
                           FormatQ(s.median).c_str(), FormatQ(s.p75).c_str(),
                           FormatQ(s.p99).c_str(), FormatQ(s.max).c_str());
}

void PrintTelemetrySnapshot(std::ostream& os) {
  if (!obs::MetricsEnabled()) return;
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();

  os << "\n[telemetry] histograms (p50/p95/max):\n";
  TablePrinter hist_table({"histogram", "labels", "count", "mean", "p50",
                           "p95", "max"});
  for (const obs::MetricsRegistry::HistogramRow& row : reg.HistogramRows()) {
    if (row.count == 0) continue;
    hist_table.AddRow({row.name, row.labels, std::to_string(row.count),
                       common::StrFormat("%.4g", row.mean),
                       common::StrFormat("%.4g", row.p50),
                       common::StrFormat("%.4g", row.p95),
                       common::StrFormat("%.4g", row.max)});
  }
  hist_table.Print(os);

  os << "\n[telemetry] counters:\n";
  TablePrinter counter_table({"counter", "labels", "value"});
  for (const obs::MetricsRegistry::CounterRow& row : reg.CounterRows()) {
    if (row.value == 0) continue;
    counter_table.AddRow({row.name, row.labels, std::to_string(row.value)});
  }
  counter_table.Print(os);
}

}  // namespace qfcard::eval
