#ifndef QFCARD_STORAGE_COLUMN_H_
#define QFCARD_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace qfcard::storage {

/// Logical type of a column. String columns are dictionary-encoded: values
/// are stored as int64 codes into an attached Dictionary, which keeps every
/// downstream component (predicates, featurization, histograms) purely
/// numeric, as in the paper's string-predicate discussion (Section 6).
enum class ColumnType {
  kInt64,
  kFloat64,
  kDictString,
};

const char* ColumnTypeToString(ColumnType type);

/// The dense code interval [lo, hi) matching a string prefix. When
/// `bounded` is false the prefix has no lexicographic successor (empty, or
/// every byte is 0xFF) and the interval is [lo, size).
struct PrefixRange {
  int64_t lo = 0;
  int64_t hi = 0;  ///< meaningful only when `bounded`
  bool bounded = false;
};

/// Sorted string dictionary. Codes are dense [0, size) and respect
/// lexicographic order, so range predicates on codes correspond to
/// lexicographic ranges on the strings (required by the Section 6 extension).
class Dictionary {
 public:
  /// Builds a dictionary from (not necessarily unique or sorted) values.
  static Dictionary FromValues(std::vector<std::string> values);

  /// Returns the code of `value`, or an error if absent.
  common::StatusOr<int64_t> Code(const std::string& value) const;

  /// Returns the code whose entry is the smallest value >= `value`
  /// (i.e. lower bound); returns size() if all entries are smaller.
  int64_t LowerBoundCode(const std::string& value) const;

  /// Returns the code interval of strings starting with `prefix`: lo is
  /// LowerBoundCode(prefix) and, when the prefix has a lexicographic
  /// successor (last incrementable byte bumped, then truncated), hi is
  /// LowerBoundCode(successor). Prefix LIKE binding (query/normalize) and
  /// the string workload generator share this so `name LIKE 'ab%'` and a
  /// generated prefix clause mean the same code range.
  PrefixRange PrefixCodeRange(const std::string& prefix) const;

  /// Returns the string for `code`; code must be in [0, size).
  const std::string& Value(int64_t code) const;

  int64_t size() const { return static_cast<int64_t>(sorted_values_.size()); }

 private:
  std::vector<std::string> sorted_values_;
  // qfcard-lint: ok(unordered-container): lookup-only (Code); never iterated, so its
  // order cannot reach any output.
  std::unordered_map<std::string, int64_t> code_of_;
};

/// Per-column statistics, computed once per column from one sort of a copy
/// of its values. `min`/`max` define the attribute domain in the sense of
/// the paper (Section 3: literals normalize against min(A)/max(A)). The
/// value counts feed every statistic derived from a column: the
/// Postgres-style synopsis (MCVs, equi-depth histogram) and the equi-depth,
/// v-optimal and skew-aware partitioners.
///
/// Values compare with ==, so -0.0 and 0.0 are one value; its
/// representative is the first of them in row order. NaN rows (the CSV
/// loader's strtod accepts "nan") hold no value: they count in `rows` and
/// `nan_rows` only, and min, max, distinct and the counts describe the
/// other rows. An all-NaN or empty column has min = max = 0.
struct ColumnStats {
  double min = 0.0;
  double max = 0.0;
  int64_t distinct = 0;  ///< exact number of distinct non-NaN values
  int64_t rows = 0;      ///< all rows, NaN rows included
  int64_t nan_rows = 0;
  std::vector<double> values;   ///< the distinct values, ascending
  std::vector<int64_t> counts;  ///< counts[i] rows hold values[i]

  /// The values at ascending ranks floor(k / parts * (n - 1)), k = 0..parts,
  /// of the n = rows - nan_rows non-NaN rows: an equi-depth summary whose
  /// first and last entries are min and max. Empty when n == 0; `parts`
  /// must be >= 1.
  std::vector<double> RankValues(int parts) const;
};

/// A typed, append-only column of values stored as doubles (int64 and
/// dictionary codes are stored losslessly for |v| < 2^53, far above any
/// domain used here).
class Column {
 public:
  Column(std::string name, ColumnType type)
      : name_(std::move(name)), type_(type) {}

  // The stats cache (atomic dirty flag) is not copyable; copies and moves
  // carry the data and start with a dirty cache — stats are derived state
  // and recompute lazily on first GetStats.
  Column(const Column& other)
      : name_(other.name_),
        type_(other.type_),
        data_(other.data_),
        dict_(other.dict_),
        has_dict_(other.has_dict_) {}
  Column(Column&& other) noexcept
      : name_(std::move(other.name_)),
        type_(other.type_),
        data_(std::move(other.data_)),
        dict_(std::move(other.dict_)),
        has_dict_(other.has_dict_) {}
  Column& operator=(const Column& other) {
    if (this == &other) return *this;
    name_ = other.name_;
    type_ = other.type_;
    data_ = other.data_;
    dict_ = other.dict_;
    has_dict_ = other.has_dict_;
    stats_dirty_.store(true, std::memory_order_release);
    return *this;
  }
  Column& operator=(Column&& other) noexcept {
    name_ = std::move(other.name_);
    type_ = other.type_;
    data_ = std::move(other.data_);
    dict_ = std::move(other.dict_);
    has_dict_ = other.has_dict_;
    stats_dirty_.store(true, std::memory_order_release);
    return *this;
  }

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }

  /// True for types whose domain is integral (kInt64 and kDictString codes).
  /// Determines the paper's open-range adjustment: for integral attributes
  /// A < 5 equals A <= 4 (Section 3.1).
  bool integral() const { return type_ != ColumnType::kFloat64; }

  void Reserve(size_t n) { data_.reserve(n); }
  void Append(double v) {
    data_.push_back(v);
    stats_dirty_.store(true, std::memory_order_release);
  }
  void AppendBatch(const std::vector<double>& values);

  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  double Get(int64_t row) const { return data_[static_cast<size_t>(row)]; }
  const std::vector<double>& data() const { return data_; }

  /// Attaches the dictionary for a kDictString column.
  void SetDictionary(Dictionary dict) { dict_ = std::move(dict); has_dict_ = true; }
  bool has_dictionary() const { return has_dict_; }
  const Dictionary& dictionary() const { return dict_; }

  /// Returns (computing and caching on first use) the column statistics.
  /// Safe to call concurrently; appending while readers hold the returned
  /// reference is not. Each computation bumps the `storage.stats.computed`
  /// counter, so callers can check that the counts are shared.
  const ColumnStats& GetStats() const QFCARD_EXCLUDES(stats_mu_);

 private:
  // Plain data, deliberately outside stats_mu_: a Column is built by one
  // thread (AddTable / CSV load) and is read-only once shared with the
  // batch pool; only the stats cache below mutates after that point.
  // clang-format off
  std::string name_;          // qfcard-lint: ok(guarded-by): set before sharing
  ColumnType type_;           // qfcard-lint: ok(guarded-by): set before sharing
  std::vector<double> data_;  // qfcard-lint: ok(guarded-by): set before sharing
  Dictionary dict_;           // qfcard-lint: ok(guarded-by): set before sharing
  bool has_dict_ = false;     // qfcard-lint: ok(guarded-by): set before sharing
  // clang-format on

  // Lazily recomputed stats cache, shared across the batch API's pool
  // threads. One process-wide mutex (not per-column) keeps Column cheap to
  // copy; stats are computed once per column lifetime (every statistics
  // consumer reads this cache), so contention is nil. The dirty flag is
  // atomic so Append (the single-threaded load path) needn't take the lock.
  inline static common::Mutex stats_mu_;
  mutable ColumnStats stats_ QFCARD_GUARDED_BY(stats_mu_);
  mutable std::atomic<bool> stats_dirty_{true};
};

}  // namespace qfcard::storage

#endif  // QFCARD_STORAGE_COLUMN_H_
