#ifndef QFCARD_FEATURIZE_JOIN_ENCODING_H_
#define QFCARD_FEATURIZE_JOIN_ENCODING_H_

#include <memory>

#include "featurize/feature_schema.h"
#include "featurize/featurizer.h"
#include "storage/catalog.h"

namespace qfcard::featurize {

/// Adapts any per-attribute QFT to global models (Section 2.1.2): the inner
/// featurizer is built over the GlobalFeatureSchema spanning every table of
/// the catalog, and a binary table-presence vector is appended — entry t is
/// 1 iff catalog table t occurs in the query (tables are joined following
/// their key/foreign-key relationships, so the set of tables determines the
/// join).
class GlobalFeaturizer : public Featurizer {
 public:
  /// `inner` must be built over `global.schema()` (attribute i == global
  /// attribute i). `catalog` is not owned and must outlive this object.
  GlobalFeaturizer(const storage::Catalog* catalog, GlobalFeatureSchema global,
                   std::unique_ptr<Featurizer> inner)
      : catalog_(catalog),
        global_(std::move(global)),
        inner_(std::move(inner)) {}

  int dim() const override { return inner_->dim() + global_.num_tables(); }
  std::string name() const override { return "global+" + inner_->name(); }
  common::Status FeaturizeInto(const query::Query& q,
                               float* out) const override;

 private:
  const storage::Catalog* catalog_;
  GlobalFeatureSchema global_;
  std::unique_ptr<Featurizer> inner_;
};

}  // namespace qfcard::featurize

#endif  // QFCARD_FEATURIZE_JOIN_ENCODING_H_
