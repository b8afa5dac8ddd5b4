#include "featurize/mscn_featurizer.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "featurize/partitioner.h"
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
      graph_(graph),
      mode_(mode),
      opts_(opts),
      global_(std::move(global)) {
  num_tables_ = global_.num_tables();
  num_edges_ = static_cast<int>(graph_->edges().size());
  num_attrs_ = global_.schema().num_attributes();
  if (mode_ == PredMode::kPerPredicate) {
    block_dim_ = 4;  // op one-hot (3) + normalized literal
  } else if (mode_ == PredMode::kPerAttributeRange) {
    block_dim_ = 2;  // normalized [lo, hi]
  } else {
    int max_block = 0;
    for (int a = 0; a < num_attrs_; ++a) {
      layouts_.push_back(Partitioner::Layout(opts_.partitioner.get(),
                                             global_.schema().attr(a),
                                             opts_.max_partitions));
      max_block = std::max(max_block, layouts_.back().n +
                                          (opts_.append_attr_selectivity ? 1 : 0));
    }
    block_dim_ = max_block;
  }
  pred_dim_ = num_attrs_ + block_dim_;
}

common::StatusOr<int> MscnFeaturizer::EdgeIndexOf(
    const query::Query& q, const query::JoinPredicate& j) const {
  const auto resolve = [&](const query::ColumnRef& ref)
      -> common::StatusOr<std::pair<std::string, std::string>> {
    const std::string& tname = q.tables[static_cast<size_t>(ref.table)].name;
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* t, catalog_->GetTable(tname));
    return std::make_pair(tname, t->column(ref.column).name());
  };
  QFCARD_ASSIGN_OR_RETURN(const auto left, resolve(j.left));
  QFCARD_ASSIGN_OR_RETURN(const auto right, resolve(j.right));
  const std::vector<query::FkEdge>& edges = graph_->edges();
  for (size_t e = 0; e < edges.size(); ++e) {
    const query::FkEdge& edge = edges[e];
    const bool forward = edge.fk_table == left.first &&
                         edge.fk_column == left.second &&
                         edge.pk_table == right.first &&
                         edge.pk_column == right.second;
    const bool backward = edge.fk_table == right.first &&
                          edge.fk_column == right.second &&
                          edge.pk_table == left.first &&
                          edge.pk_column == left.second;
    if (forward || backward) return static_cast<int>(e);
  }
  return common::Status::NotFound(common::StrFormat(
      "join %s.%s = %s.%s does not match a key/foreign-key edge",
      left.first.c_str(), left.second.c_str(), right.first.c_str(),
      right.second.c_str()));
}

common::StatusOr<MscnSample> MscnFeaturizer::Featurize(
    const query::Query& q) const {
  MscnSample sample;
  // Table set: one-hot per participating table.
  for (const query::TableRef& ref : q.tables) {
    QFCARD_ASSIGN_OR_RETURN(const int t, catalog_->TableIndex(ref.name));
    std::vector<float> vec(static_cast<size_t>(num_tables_), 0.0f);
    vec[static_cast<size_t>(t)] = 1.0f;
    sample.table_vecs.push_back(std::move(vec));
  }
  // Join set: one-hot per key/foreign-key edge used.
  for (const query::JoinPredicate& j : q.joins) {
    QFCARD_ASSIGN_OR_RETURN(const int e, EdgeIndexOf(q, j));
    std::vector<float> vec(static_cast<size_t>(join_dim()), 0.0f);
    vec[static_cast<size_t>(e)] = 1.0f;
    sample.join_vecs.push_back(std::move(vec));
  }

  if (mode_ == PredMode::kPerPredicate) {
    for (const query::CompoundPredicate& cp : q.predicates) {
      if (cp.disjuncts.size() != 1) {
        return common::Status::InvalidArgument(
            "original MSCN featurization does not support disjunctions");
      }
      QFCARD_ASSIGN_OR_RETURN(
          const int ga,
          global_.GlobalIndex(
              // map query table slot to catalog index
              [&]() -> int {
                const auto idx = catalog_->TableIndex(
                    q.tables[static_cast<size_t>(cp.col.table)].name);
                return idx.ok() ? idx.value() : -1;
              }(),
              cp.col.column));
      const AttributeInfo& attr = global_.schema().attr(ga);
      for (const query::SimplePredicate& p : cp.disjuncts[0].preds) {
        std::vector<float> vec(static_cast<size_t>(pred_dim_), 0.0f);
        vec[static_cast<size_t>(ga)] = 1.0f;
        float* payload = vec.data() + num_attrs_;
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
        sample.pred_vecs.push_back(std::move(vec));
      }
    }
    return sample;
  }

  if (mode_ == PredMode::kPerAttributeRange) {
    // Range Predicate Encoding per attribute: intersect all point/range
    // predicates into one closed range; not-equals are dropped (lossy, as
    // in Section 3.1); disjunctions are unsupported.
    for (const query::CompoundPredicate& cp : q.predicates) {
      if (cp.disjuncts.size() != 1) {
        return common::Status::InvalidArgument(
            "per-attribute range MSCN featurization does not support "
            "disjunctions");
      }
      QFCARD_ASSIGN_OR_RETURN(
          const int cat_table,
          catalog_->TableIndex(q.tables[static_cast<size_t>(cp.col.table)].name));
      QFCARD_ASSIGN_OR_RETURN(const int ga,
                              global_.GlobalIndex(cat_table, cp.col.column));
      std::vector<float> vec(static_cast<size_t>(pred_dim_), 0.0f);
      vec[static_cast<size_t>(ga)] = 1.0f;
      internal::EncodeRangeForAttr(global_.schema().attr(ga), cp.disjuncts[0],
                                   vec.data() + num_attrs_);
      sample.pred_vecs.push_back(std::move(vec));
    }
    return sample;
  }

  // kPerAttributeQft (Section 4.2): one vector per referenced attribute,
  // holding the attribute id one-hot plus the merged per-attribute block
  // (Limited Disjunction Encoding semantics, so mixed queries work).
  for (const query::CompoundPredicate& cp : q.predicates) {
    QFCARD_ASSIGN_OR_RETURN(const int cat_table,
                            catalog_->TableIndex(
                                q.tables[static_cast<size_t>(cp.col.table)].name));
    QFCARD_ASSIGN_OR_RETURN(const int ga,
                            global_.GlobalIndex(cat_table, cp.col.column));
    std::vector<float> vec(static_cast<size_t>(pred_dim_), 0.0f);
    vec[static_cast<size_t>(ga)] = 1.0f;
    QFCARD_RETURN_IF_ERROR(internal::EncodeCompoundForAttr(
        global_.schema().attr(ga), layouts_[static_cast<size_t>(ga)], opts_,
        cp, vec.data() + num_attrs_));
    sample.pred_vecs.push_back(std::move(vec));
  }
  return sample;
}

}  // namespace qfcard::featurize
