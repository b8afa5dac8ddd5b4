#include "featurize/feature_schema.h"

#include <algorithm>

#include "common/str_util.h"

namespace qfcard::featurize {

double AttributeInfo::DomainSize() const {
  const double width = integral ? (max - min + 1.0) : (max - min);
  return std::max(width, 1.0);
}

FeatureSchema FeatureSchema::FromTable(const storage::Table& table) {
  std::vector<AttributeInfo> attrs;
  attrs.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    const storage::Column& col = table.column(c);
    const storage::ColumnStats& stats = col.GetStats();
    AttributeInfo info;
    info.name = col.name();
    info.min = stats.min;
    info.max = stats.max;
    info.integral = col.integral();
    info.distinct = stats.distinct;
    attrs.push_back(std::move(info));
  }
  return FeatureSchema(std::move(attrs));
}

common::Status FeatureSchema::CheckAttr(int idx) const {
  if (idx < 0 || idx >= num_attributes()) {
    return common::Status::OutOfRange(
        common::StrFormat("attribute index %d out of range [0, %d)", idx,
                          num_attributes()));
  }
  return common::Status::Ok();
}

GlobalFeatureSchema GlobalFeatureSchema::FromCatalog(
    const storage::Catalog& catalog) {
  GlobalFeatureSchema out;
  std::vector<AttributeInfo> attrs;
  for (int t = 0; t < catalog.num_tables(); ++t) {
    const storage::Table& table = catalog.table(t);
    out.first_attr_.push_back(static_cast<int>(attrs.size()));
    out.num_columns_.push_back(table.num_columns());
    const FeatureSchema local = FeatureSchema::FromTable(table);
    for (int c = 0; c < local.num_attributes(); ++c) {
      AttributeInfo info = local.attr(c);
      info.name = table.name() + "." + info.name;
      attrs.push_back(std::move(info));
    }
  }
  out.schema_ = FeatureSchema(std::move(attrs));
  return out;
}

common::StatusOr<GlobalFeatureSchema> GlobalFeatureSchema::FromState(
    FeatureSchema schema, std::vector<int> first_attr,
    std::vector<int> num_columns) {
  if (first_attr.size() != num_columns.size()) {
    return common::Status::InvalidArgument(
        "global schema state: per-table arrays disagree in length");
  }
  int expected_first = 0;
  for (size_t t = 0; t < first_attr.size(); ++t) {
    if (num_columns[t] < 0 || first_attr[t] != expected_first) {
      return common::Status::InvalidArgument(
          "global schema state: inconsistent table layout");
    }
    expected_first += num_columns[t];
  }
  if (expected_first != schema.num_attributes()) {
    return common::Status::InvalidArgument(
        "global schema state: attribute count does not match table layout");
  }
  GlobalFeatureSchema out;
  out.schema_ = std::move(schema);
  out.first_attr_ = std::move(first_attr);
  out.num_columns_ = std::move(num_columns);
  return out;
}

common::StatusOr<int> GlobalFeatureSchema::GlobalIndex(int table_idx,
                                                       int column) const {
  if (table_idx < 0 || table_idx >= num_tables()) {
    return common::Status::OutOfRange(
        common::StrFormat("table index %d out of range", table_idx));
  }
  if (column < 0 || column >= num_columns_[static_cast<size_t>(table_idx)]) {
    return common::Status::OutOfRange(
        common::StrFormat("column index %d out of range", column));
  }
  return first_attr_[static_cast<size_t>(table_idx)] + column;
}

common::StatusOr<GlobalSlots> GlobalFeatureSchema::Resolve(
    const storage::Catalog& catalog, const query::Query& q) const {
  GlobalSlots out;
  out.tables.reserve(q.tables.size());
  for (const query::TableRef& ref : q.tables) {
    QFCARD_ASSIGN_OR_RETURN(const int t, catalog.TableIndex(ref.name));
    if (t >= num_tables()) {
      return common::Status::OutOfRange(common::StrFormat(
          "table '%s' is not in the global schema", ref.name.c_str()));
    }
    out.tables.push_back(t);
  }
  const auto attr = [&](const query::ColumnRef& ref) -> common::StatusOr<int> {
    if (ref.table < 0 || ref.table >= static_cast<int>(out.tables.size())) {
      return common::Status::OutOfRange(
          common::StrFormat("table slot %d out of range [0, %zu)", ref.table,
                            out.tables.size()));
    }
    return GlobalIndex(out.tables[static_cast<size_t>(ref.table)],
                       ref.column);
  };
  out.predicates.reserve(q.predicates.size());
  for (const query::CompoundPredicate& cp : q.predicates) {
    QFCARD_ASSIGN_OR_RETURN(const int a, attr(cp.col));
    out.predicates.push_back(a);
  }
  out.joins.reserve(q.joins.size());
  for (const query::JoinPredicate& j : q.joins) {
    QFCARD_ASSIGN_OR_RETURN(const int left, attr(j.left));
    QFCARD_ASSIGN_OR_RETURN(const int right, attr(j.right));
    out.joins.push_back({left, right});
  }
  return out;
}

}  // namespace qfcard::featurize
