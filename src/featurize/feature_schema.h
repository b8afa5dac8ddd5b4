#ifndef QFCARD_FEATURIZE_FEATURE_SCHEMA_H_
#define QFCARD_FEATURIZE_FEATURE_SCHEMA_H_

#include <array>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace qfcard::featurize {

/// Domain description of one attribute, the information every QFT in the
/// paper relies on: min(A), max(A) (Section 2.1.1 normalization and the
/// Section 3.2 partition-index formula), integrality (open-range adjustment,
/// Section 3.1), and the distinct count (exact small-domain mode,
/// Section 3.2 last paragraph).
struct AttributeInfo {
  std::string name;
  double min = 0.0;
  double max = 0.0;
  bool integral = true;
  int64_t distinct = 0;

  /// Domain size in the sense of Algorithm 1: max - min + 1 for integral
  /// attributes, max - min for continuous ones (with a floor of 1 to keep
  /// normalization well-defined for constant columns).
  double DomainSize() const;
};

/// The ordered attribute list a featurizer is built against. For local
/// models this is one table (or one materialized sub-schema join); attribute
/// indices equal column indices of that table.
class FeatureSchema {
 public:
  FeatureSchema() = default;
  explicit FeatureSchema(std::vector<AttributeInfo> attrs)
      : attrs_(std::move(attrs)) {}

  /// Builds the schema from a table's column statistics.
  static FeatureSchema FromTable(const storage::Table& table);

  int num_attributes() const { return static_cast<int>(attrs_.size()); }
  const AttributeInfo& attr(int idx) const {
    return attrs_[static_cast<size_t>(idx)];
  }
  const std::vector<AttributeInfo>& attrs() const { return attrs_; }

  /// Verifies that `idx` is a valid attribute index.
  common::Status CheckAttr(int idx) const;

 private:
  std::vector<AttributeInfo> attrs_;
};

/// A query's column references resolved against a GlobalFeatureSchema, once
/// per query (GlobalFeatureSchema::Resolve).
struct GlobalSlots {
  std::vector<int> tables;      ///< catalog table of each q.tables slot
  std::vector<int> predicates;  ///< global attribute of each q.predicates[i]
  /// Global attributes of each q.joins[i] (left, right).
  std::vector<std::array<int, 2>> joins;
};

/// Flattened attribute list over all tables of a catalog, used by global
/// models (Section 2.1.2). Maps (table index, column index) pairs to global
/// attribute indices.
class GlobalFeatureSchema {
 public:
  /// Builds the global schema over all tables of `catalog` in catalog order.
  static GlobalFeatureSchema FromCatalog(const storage::Catalog& catalog);

  /// Rebuilds a schema from previously captured state (see accessors below);
  /// used by serve/ so a restored global featurizer keeps the exact attribute
  /// domains it was trained with, even if the live catalog has drifted.
  static common::StatusOr<GlobalFeatureSchema> FromState(
      FeatureSchema schema, std::vector<int> first_attr,
      std::vector<int> num_columns);

  const FeatureSchema& schema() const { return schema_; }
  int num_tables() const { return static_cast<int>(first_attr_.size()); }

  /// Returns the global attribute index of column `column` of catalog table
  /// `table_idx`.
  common::StatusOr<int> GlobalIndex(int table_idx, int column) const;

  /// The one per-query step of the global featurizers: maps every table
  /// slot of `q` to its catalog table (one TableIndex call per slot) and
  /// every predicate and join column to its global attribute. Fails with
  /// kNotFound for a table missing from `catalog` and kOutOfRange for a
  /// table outside this schema or a slot or column index out of range.
  common::StatusOr<GlobalSlots> Resolve(const storage::Catalog& catalog,
                                        const query::Query& q) const;

  const std::vector<int>& first_attr() const { return first_attr_; }
  const std::vector<int>& num_columns() const { return num_columns_; }

 private:
  FeatureSchema schema_;
  std::vector<int> first_attr_;   // per catalog table: first global attr index
  std::vector<int> num_columns_;  // per catalog table
};

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_FEATURE_SCHEMA_H_
