#include "featurize/mscn_featurizer.h"

#include <algorithm>

#include "common/str_util.h"
#include "featurize/range.h"

namespace qfcard::featurize {

MscnFeaturizer::MscnFeaturizer(const storage::Catalog* catalog,
                               const query::SchemaGraph* graph, PredMode mode,
                               ConjunctionOptions opts)
    : MscnFeaturizer(catalog, graph, mode, std::move(opts),
                     GlobalFeatureSchema::FromCatalog(*catalog)) {}

MscnFeaturizer::MscnFeaturizer(const storage::Catalog* catalog,
                               const query::SchemaGraph* graph, PredMode mode,
                               ConjunctionOptions opts,
                               GlobalFeatureSchema global)
    : catalog_(catalog),
      mode_(mode),
      opts_(std::move(opts)),
      global_(std::move(global)),
      num_attrs_(global_.schema().num_attributes()) {
  if (graph != nullptr) {
    const auto resolve = [&](const std::string& table,
                             const std::string& column) {
      const common::StatusOr<int> t = catalog_->TableIndex(table);
      if (!t.ok()) return -1;
      const common::StatusOr<int> c =
          catalog_->table(t.value()).ColumnIndex(column);
      if (!c.ok()) return -1;
      const common::StatusOr<int> a = global_.GlobalIndex(t.value(), c.value());
      return a.ok() ? a.value() : -1;
    };
    for (const query::FkEdge& e : graph->edges()) {
      edges_.push_back({resolve(e.fk_table, e.fk_column),
                        resolve(e.pk_table, e.pk_column)});
    }
  }
  int block_dim = 0;  // per-attribute payload width
  switch (mode_) {
    case PredMode::kPerPredicate:
      block_dim = 4;  // op one-hot (3) + normalized literal
      break;
    case PredMode::kPerAttributeRange:
      block_dim = 2;  // normalized [lo, hi]
      break;
    case PredMode::kPerAttributeQft:
      layouts_ = ResolveLayouts(global_.schema(), opts_);
      for (const PartitionLayout& layout : layouts_) {
        block_dim = std::max(
            block_dim, layout.n + (opts_.append_attr_selectivity ? 1 : 0));
      }
      break;
  }
  pred_dim_ = num_attrs_ + block_dim;
}

common::StatusOr<int> MscnFeaturizer::EdgeIndexOf(
    const std::array<int, 2>& join) const {
  for (size_t e = 0; e < edges_.size(); ++e) {
    const std::array<int, 2>& edge = edges_[e];
    if (edge == join || (edge[0] == join[1] && edge[1] == join[0])) {
      return static_cast<int>(e);
    }
  }
  return common::Status::NotFound(common::StrFormat(
      "join %s = %s does not match a key/foreign-key edge",
      global_.schema().attr(join[0]).name.c_str(),
      global_.schema().attr(join[1]).name.c_str()));
}

common::StatusOr<MscnSample> MscnFeaturizer::Featurize(
    const query::Query& q) const {
  QFCARD_ASSIGN_OR_RETURN(const GlobalSlots slots,
                          global_.Resolve(*catalog_, q));
  MscnSample sample;
  // Table set: one-hot per participating table.
  for (const int t : slots.tables) {
    std::vector<float>& vec =
        sample.table_vecs.emplace_back(static_cast<size_t>(table_dim()), 0.0f);
    vec[static_cast<size_t>(t)] = 1.0f;
  }
  // Join set: one-hot per key/foreign-key edge used.
  for (const std::array<int, 2>& join : slots.joins) {
    QFCARD_ASSIGN_OR_RETURN(const int e, EdgeIndexOf(join));
    std::vector<float>& vec =
        sample.join_vecs.emplace_back(static_cast<size_t>(join_dim()), 0.0f);
    vec[static_cast<size_t>(e)] = 1.0f;
  }

  // Predicate set: every vector starts with its global attribute's one-hot;
  // returns the payload that follows it.
  const auto new_pred_vec = [&](int ga) {
    std::vector<float>& vec =
        sample.pred_vecs.emplace_back(static_cast<size_t>(pred_dim_), 0.0f);
    vec[static_cast<size_t>(ga)] = 1.0f;
    return vec.data() + num_attrs_;
  };
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    const query::CompoundPredicate& cp = q.predicates[i];
    const int ga = slots.predicates[i];
    const AttributeInfo& attr = global_.schema().attr(ga);
    switch (mode_) {
      case PredMode::kPerAttributeQft:
        // Section 4.2: one vector per compound predicate holding the merged
        // per-attribute block (Limited Disjunction Encoding semantics, so
        // mixed queries work).
        QFCARD_RETURN_IF_ERROR(internal::EncodeCompoundForAttr(
            attr, layouts_[static_cast<size_t>(ga)], opts_, cp,
            new_pred_vec(ga)));
        break;
      case PredMode::kPerAttributeRange:
        // Range Predicate Encoding per attribute: intersect all point/range
        // predicates into one closed range; not-equals are dropped (lossy,
        // as in Section 3.1); disjunctions are unsupported.
        if (cp.disjuncts.size() != 1) {
          return common::Status::InvalidArgument(
              "per-attribute range MSCN featurization does not support "
              "disjunctions");
        }
        internal::EncodeRangeForAttr(attr, cp.disjuncts[0], new_pred_vec(ga));
        break;
      case PredMode::kPerPredicate:
        if (cp.disjuncts.size() != 1) {
          return common::Status::InvalidArgument(
              "original MSCN featurization does not support disjunctions");
        }
        for (const query::SimplePredicate& p : cp.disjuncts[0].preds) {
          float* payload = new_pred_vec(ga);
          switch (p.op) {
            case query::CmpOp::kEq:
              payload[0] = 1.0f;
              break;
            case query::CmpOp::kGt:
            case query::CmpOp::kGe:
              payload[1] = 1.0f;
              break;
            case query::CmpOp::kLt:
            case query::CmpOp::kLe:
              payload[2] = 1.0f;
              break;
            case query::CmpOp::kNe:
              payload[1] = 1.0f;
              payload[2] = 1.0f;
              break;
          }
          const double denom = std::max(attr.max - attr.min, 1e-12);
          payload[3] = static_cast<float>(
              std::clamp((p.value - attr.min) / denom, 0.0, 1.0));
        }
        break;
    }
  }
  return sample;
}

}  // namespace qfcard::featurize
