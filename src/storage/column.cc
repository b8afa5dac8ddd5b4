#include "storage/column.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/mutex.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace qfcard::storage {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "INT64";
    case ColumnType::kFloat64:
      return "FLOAT64";
    case ColumnType::kDictString:
      return "DICT_STRING";
  }
  return "UNKNOWN";
}

Dictionary Dictionary::FromValues(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  Dictionary dict;
  dict.sorted_values_ = std::move(values);
  dict.code_of_.reserve(dict.sorted_values_.size());
  for (size_t i = 0; i < dict.sorted_values_.size(); ++i) {
    dict.code_of_.emplace(dict.sorted_values_[i], static_cast<int64_t>(i));
  }
  return dict;
}

common::StatusOr<int64_t> Dictionary::Code(const std::string& value) const {
  const auto it = code_of_.find(value);
  if (it == code_of_.end()) {
    return common::Status::NotFound(
        common::StrFormat("value '%s' not in dictionary", value.c_str()));
  }
  return it->second;
}

int64_t Dictionary::LowerBoundCode(const std::string& value) const {
  const auto it =
      std::lower_bound(sorted_values_.begin(), sorted_values_.end(), value);
  return static_cast<int64_t>(it - sorted_values_.begin());
}

PrefixRange Dictionary::PrefixCodeRange(const std::string& prefix) const {
  PrefixRange range;
  range.lo = LowerBoundCode(prefix);
  // Smallest string greater than every prefix extension: increment the last
  // incrementable byte and truncate.
  std::string succ = prefix;
  int i = static_cast<int>(succ.size()) - 1;
  for (; i >= 0; --i) {
    if (static_cast<unsigned char>(succ[static_cast<size_t>(i)]) < 0xFF) {
      succ[static_cast<size_t>(i)] =
          static_cast<char>(succ[static_cast<size_t>(i)] + 1);
      succ.resize(static_cast<size_t>(i) + 1);
      break;
    }
  }
  if (i >= 0) {
    range.bounded = true;
    range.hi = LowerBoundCode(succ);
  }
  return range;
}

const std::string& Dictionary::Value(int64_t code) const {
  return sorted_values_[static_cast<size_t>(code)];
}

void Column::AppendBatch(const std::vector<double>& values) {
  data_.insert(data_.end(), values.begin(), values.end());
  stats_dirty_.store(true, std::memory_order_release);
}

std::vector<double> ColumnStats::RankValues(int parts) const {
  std::vector<double> out;
  const int64_t n = rows - nan_rows;
  if (n == 0) return out;
  out.reserve(static_cast<size_t>(parts) + 1);
  // The ranks ascend with k, so one walk over the counts finds every run.
  size_t run = 0;
  int64_t run_end = counts[0];  // one past the last rank of values[run]
  for (int k = 0; k <= parts; ++k) {
    const auto rank = static_cast<int64_t>(
        static_cast<double>(k) / parts * static_cast<double>(n - 1));
    while (rank >= run_end) run_end += counts[++run];
    out.push_back(values[run]);
  }
  return out;
}

const ColumnStats& Column::GetStats() const {
  // Computed stats are read without the lock (see PublishedStats); the
  // first computation runs under stats_mu_ (process-wide, see column.h).
  if (!stats_dirty_.load(std::memory_order_acquire)) return PublishedStats();
  common::MutexLock lock(&stats_mu_);
  if (!stats_dirty_.load(std::memory_order_acquire)) return stats_;
  obs::IncrementCounter("storage.stats.computed");
  stats_ = ColumnStats{};
  stats_.rows = size();
  // NaN is unordered, so it is kept out of the sort.
  std::vector<std::pair<double, uint32_t>> sorted;
  sorted.reserve(data_.size());
  for (size_t r = 0; r < data_.size(); ++r) {
    if (!std::isnan(data_[r])) {
      sorted.emplace_back(data_[r], static_cast<uint32_t>(r));
    }
  }
  stats_.nan_rows = stats_.rows - static_cast<int64_t>(sorted.size());
  // Stable, so equal values (-0.0 and 0.0) stay in row order and the first
  // of them in row order leads its run and represents it.
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  stats_.codes.resize(data_.size());
  for (size_t i = 0; i < sorted.size();) {
    const auto code = static_cast<uint32_t>(stats_.values.size());
    size_t j = i;
    for (; j < sorted.size() && sorted[j].first == sorted[i].first; ++j) {
      stats_.codes[sorted[j].second] = code;
    }
    stats_.values.push_back(sorted[i].first);
    stats_.counts.push_back(static_cast<int64_t>(j - i));
    i = j;
  }
  stats_.values.shrink_to_fit();  // the cache lives as long as the column
  stats_.counts.shrink_to_fit();
  stats_.distinct = static_cast<int64_t>(stats_.values.size());
  for (size_t r = 0; r < data_.size(); ++r) {
    if (std::isnan(data_[r])) {
      stats_.codes[r] = static_cast<uint32_t>(stats_.distinct);
    }
  }
  if (!stats_.values.empty()) {
    stats_.min = stats_.values.front();
    stats_.max = stats_.values.back();
  }
  stats_dirty_.store(false, std::memory_order_release);
  return stats_;
}

}  // namespace qfcard::storage
