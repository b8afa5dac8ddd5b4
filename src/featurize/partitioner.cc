#include "featurize/partitioner.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qfcard::featurize {

int PartitionLayout::IndexOf(const AttributeInfo& attr, double value) const {
  if (!bounds.empty()) {
    // Partition i covers (b_{i-1}, b_i]; lower_bound gives the first
    // boundary >= value, i.e. the partition index.
    return static_cast<int>(
        std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  }
  // Zero-based index formula of Section 3.2:
  //   floor((val - min(A)) / (max(A) - min(A) + 1) * n_A)
  // with the continuous-domain variant using max - min as the denominator
  // (plus a tiny epsilon so value == max lands in the last partition).
  const double denom =
      attr.integral ? (attr.max - attr.min + 1.0)
                    : std::max(attr.max - attr.min, 1e-12) * (1.0 + 1e-9);
  const double rel = (value - attr.min) / denom;
  // Clamp in double: a far-out-of-domain literal's floor does not fit in
  // int, and a NaN literal lands in partition 0.
  const double pos = std::floor(rel * n);
  if (pos >= n - 1) return n - 1;
  return pos > 0 ? static_cast<int>(pos) : 0;
}

Partitioner Partitioner::FromState(
    std::vector<std::string> attr_names,
    std::vector<std::vector<double>> boundaries) {
  Partitioner out;
  out.attr_names_ = std::move(attr_names);
  out.boundaries_ = std::move(boundaries);
  return out;
}

Partitioner Partitioner::EquiDepth(const storage::Table& table,
                                   int max_partitions) {
  Partitioner out;
  for (int c = 0; c < table.num_columns(); ++c) {
    const storage::Column& col = table.column(c);
    std::vector<double> bounds;
    if (max_partitions > 1) {
      // The inner entries (ranks 1..max_partitions-1) of the column's
      // equi-depth summary; its first and last are min and max.
      const std::vector<double> ranks =
          col.GetStats().RankValues(max_partitions);
      if (!ranks.empty()) bounds.assign(ranks.begin() + 1, ranks.end() - 1);
      bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    }
    out.attr_names_.push_back(col.name());
    out.boundaries_.push_back(std::move(bounds));
  }
  return out;
}

Partitioner Partitioner::VOptimal(const storage::Table& table,
                                  int max_partitions, int max_candidates) {
  Partitioner out;
  for (int c = 0; c < table.num_columns(); ++c) {
    const storage::Column& col = table.column(c);
    // Frequency per distinct value (pre-aggregated into at most
    // max_candidates equi-width cells when the domain is large).
    const storage::ColumnStats& stats = col.GetStats();
    std::vector<double> values;
    std::vector<double> freqs;
    if (stats.distinct <= max_candidates) {
      values = stats.values;
      freqs.assign(stats.counts.begin(), stats.counts.end());
    } else {
      const double width =
          std::max(stats.max - stats.min, 1e-12) / max_candidates;
      values.assign(static_cast<size_t>(max_candidates), 0.0);
      freqs.assign(static_cast<size_t>(max_candidates), 0.0);
      for (int i = 0; i < max_candidates; ++i) {
        values[static_cast<size_t>(i)] = stats.min + width * (i + 1);
      }
      for (size_t i = 0; i < stats.values.size(); ++i) {
        int cell = static_cast<int>((stats.values[i] - stats.min) / width);
        cell = std::clamp(cell, 0, max_candidates - 1);
        freqs[static_cast<size_t>(cell)] +=
            static_cast<double>(stats.counts[i]);
      }
    }
    const int v_count = static_cast<int>(values.size());
    const int buckets = std::min(max_partitions, std::max(v_count, 1));

    // Prefix sums for O(1) within-bucket SSE: sse(l..r) over frequencies
    // = sum f^2 - (sum f)^2 / n.
    std::vector<double> pf(static_cast<size_t>(v_count) + 1, 0.0);
    std::vector<double> pf2(static_cast<size_t>(v_count) + 1, 0.0);
    for (int i = 0; i < v_count; ++i) {
      pf[static_cast<size_t>(i) + 1] = pf[static_cast<size_t>(i)] + freqs[static_cast<size_t>(i)];
      pf2[static_cast<size_t>(i) + 1] =
          pf2[static_cast<size_t>(i)] +
          freqs[static_cast<size_t>(i)] * freqs[static_cast<size_t>(i)];
    }
    const auto sse = [&](int l, int r) {  // inclusive 0-based range
      const double n = r - l + 1;
      const double s = pf[static_cast<size_t>(r) + 1] - pf[static_cast<size_t>(l)];
      const double s2 = pf2[static_cast<size_t>(r) + 1] - pf2[static_cast<size_t>(l)];
      return s2 - s * s / n;
    };

    // DP over (prefix length, bucket count).
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> err(
        static_cast<size_t>(v_count) + 1,
        std::vector<double>(static_cast<size_t>(buckets) + 1, kInf));
    std::vector<std::vector<int>> split(
        static_cast<size_t>(v_count) + 1,
        std::vector<int>(static_cast<size_t>(buckets) + 1, 0));
    err[0][0] = 0.0;
    for (int i = 1; i <= v_count; ++i) {
      const int max_b = std::min(i, buckets);
      for (int b = 1; b <= max_b; ++b) {
        for (int j = b - 1; j < i; ++j) {
          if (err[static_cast<size_t>(j)][static_cast<size_t>(b) - 1] == kInf) {
            continue;
          }
          const double cand =
              err[static_cast<size_t>(j)][static_cast<size_t>(b) - 1] +
              sse(j, i - 1);
          if (cand < err[static_cast<size_t>(i)][static_cast<size_t>(b)]) {
            err[static_cast<size_t>(i)][static_cast<size_t>(b)] = cand;
            split[static_cast<size_t>(i)][static_cast<size_t>(b)] = j;
          }
        }
      }
    }
    // Recover boundaries: each bucket's last value is an upper boundary
    // (except the final bucket).
    std::vector<double> bounds;
    int i = v_count;
    int b = buckets;
    std::vector<int> ends;
    while (b > 0 && i > 0) {
      ends.push_back(i - 1);
      i = split[static_cast<size_t>(i)][static_cast<size_t>(b)];
      --b;
    }
    std::reverse(ends.begin(), ends.end());
    for (size_t e = 0; e + 1 < ends.size(); ++e) {
      bounds.push_back(values[static_cast<size_t>(ends[e])]);
    }
    out.attr_names_.push_back(col.name());
    out.boundaries_.push_back(std::move(bounds));
  }
  return out;
}

std::vector<int> SkewAwarePartitions(const storage::Table& table, int base,
                                     int boost, double skew_threshold) {
  std::vector<int> budgets;
  budgets.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    const storage::Column& col = table.column(c);
    const std::vector<int64_t>& counts = col.GetStats().counts;
    const int64_t top =
        counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
    const double top_fraction =
        col.size() > 0 ? static_cast<double>(top) / col.size() : 0.0;
    const int budget =
        top_fraction > skew_threshold ? std::min(base * boost, 256) : base;
    budgets.push_back(budget);
  }
  return budgets;
}

}  // namespace qfcard::featurize
