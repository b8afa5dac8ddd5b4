#include "serve/bundle.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "estimators/ml_estimator.h"
#include "estimators/registry.h"
#include "featurize/conjunction.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "featurize/mscn_featurizer.h"
#include "featurize/range.h"
#include "featurize/singular.h"
#include "ml/mscn.h"
#include "ml/serialize.h"

namespace qfcard::serve {

namespace {

constexpr uint32_t kBundleMagic = 0x5142444c;   // "QBDL"
constexpr uint32_t kBundleVersion = 1;
constexpr uint32_t kLocalQftMagic = 0x51465a31; // "QFZ1"
constexpr uint32_t kMscnMagic = 0x514d4631;     // "QMF1"

// Partitioner state tags inside featurizer blobs. Tag 2 is what bundles
// written before the partitioner became one class carry for v-optimal
// boundaries; it decodes exactly like tag 1.
constexpr uint8_t kPartEquiWidth = 0;  // no boundaries (or no partitioner)
constexpr uint8_t kPartBoundaries = 1;
constexpr uint8_t kPartLegacyVOptimal = 2;

// ---------------------------------------------------------------------------
// Shared sub-encodings: schema, options, partitioner state
// ---------------------------------------------------------------------------

void WriteSchema(ml::ByteWriter& writer, const featurize::FeatureSchema& s) {
  writer.Write<uint32_t>(static_cast<uint32_t>(s.num_attributes()));
  for (const featurize::AttributeInfo& a : s.attrs()) {
    writer.WriteString(a.name);
    writer.Write<double>(a.min);
    writer.Write<double>(a.max);
    writer.Write<uint8_t>(a.integral ? 1 : 0);
    writer.Write<int64_t>(a.distinct);
  }
}

common::Status ReadSchema(ml::ByteReader& reader,
                          featurize::FeatureSchema* out) {
  uint32_t count = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&count));
  // Each attribute costs at least 33 bytes (8 name length + 8 + 8 + 1 + 8).
  if (count > reader.remaining() / 33) {
    return common::Status::OutOfRange(
        "bundle schema attribute count exceeds remaining input");
  }
  std::vector<featurize::AttributeInfo> attrs;
  attrs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    featurize::AttributeInfo info;
    uint8_t integral = 0;
    QFCARD_RETURN_IF_ERROR(reader.ReadString(&info.name));
    QFCARD_RETURN_IF_ERROR(reader.Read(&info.min));
    QFCARD_RETURN_IF_ERROR(reader.Read(&info.max));
    QFCARD_RETURN_IF_ERROR(reader.Read(&integral));
    QFCARD_RETURN_IF_ERROR(reader.Read(&info.distinct));
    info.integral = integral != 0;
    if (!(info.min <= info.max)) {  // also rejects NaN
      return common::Status::InvalidArgument(
          "bundle schema attribute has a corrupt [min, max] domain");
    }
    attrs.push_back(std::move(info));
  }
  *out = featurize::FeatureSchema(std::move(attrs));
  return common::Status::Ok();
}

void WriteBoundaries(ml::ByteWriter& writer,
                     const std::vector<std::string>& names,
                     const std::vector<std::vector<double>>& boundaries) {
  writer.Write<uint32_t>(static_cast<uint32_t>(names.size()));
  for (size_t i = 0; i < names.size(); ++i) {
    writer.WriteString(names[i]);
    writer.WriteVector(boundaries[i]);
  }
}

common::Status ReadBoundaries(ml::ByteReader& reader,
                              std::vector<std::string>* names,
                              std::vector<std::vector<double>>* boundaries) {
  uint32_t count = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&count));
  if (count > reader.remaining() / 16) {  // 8 name length + 8 vector length
    return common::Status::OutOfRange(
        "bundle partitioner attribute count exceeds remaining input");
  }
  names->clear();
  boundaries->clear();
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::vector<double> bounds;
    QFCARD_RETURN_IF_ERROR(reader.ReadString(&name));
    QFCARD_RETURN_IF_ERROR(reader.ReadVector(&bounds));
    if (!std::is_sorted(bounds.begin(), bounds.end())) {
      return common::Status::InvalidArgument(
          "bundle partitioner boundaries are not ascending");
    }
    names->push_back(std::move(name));
    boundaries->push_back(std::move(bounds));
  }
  return common::Status::Ok();
}

void WriteOptions(ml::ByteWriter& writer,
                  const featurize::ConjunctionOptions& opts) {
  writer.Write<int32_t>(opts.max_partitions);
  writer.Write<uint8_t>(opts.append_attr_selectivity ? 1 : 0);
  writer.Write<uint8_t>(opts.exact_small_domains ? 1 : 0);
  writer.Write<uint8_t>(opts.use_half_values ? 1 : 0);
  writer.WriteVector(opts.per_attribute_partitions);
  const featurize::Partitioner* p = opts.partitioner.get();
  if (p == nullptr || p->empty()) {
    writer.Write<uint8_t>(kPartEquiWidth);
    return;
  }
  writer.Write<uint8_t>(kPartBoundaries);
  WriteBoundaries(writer, p->attr_names(), p->boundaries());
}

// Decodes options, restoring the partitioner (null when the blob has no
// boundaries).
common::Status ReadOptions(ml::ByteReader& reader, int num_attributes,
                           featurize::ConjunctionOptions* out) {
  int32_t max_partitions = 0;
  uint8_t append_sel = 0;
  uint8_t exact_small = 0;
  uint8_t half_values = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&max_partitions));
  QFCARD_RETURN_IF_ERROR(reader.Read(&append_sel));
  QFCARD_RETURN_IF_ERROR(reader.Read(&exact_small));
  QFCARD_RETURN_IF_ERROR(reader.Read(&half_values));
  if (max_partitions < 1 || max_partitions > (1 << 20)) {
    return common::Status::InvalidArgument(
        "bundle options: max_partitions out of range");
  }
  out->max_partitions = max_partitions;
  out->append_attr_selectivity = append_sel != 0;
  out->exact_small_domains = exact_small != 0;
  out->use_half_values = half_values != 0;
  QFCARD_RETURN_IF_ERROR(reader.ReadVector(&out->per_attribute_partitions));
  if (!out->per_attribute_partitions.empty() &&
      static_cast<int>(out->per_attribute_partitions.size()) !=
          num_attributes) {
    return common::Status::InvalidArgument(
        "bundle options: per-attribute budgets disagree with the schema");
  }
  for (const int b : out->per_attribute_partitions) {
    if (b < 1 || b > (1 << 20)) {
      return common::Status::InvalidArgument(
          "bundle options: per-attribute budget out of range");
    }
  }
  uint8_t tag = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&tag));
  if (tag == kPartEquiWidth) return common::Status::Ok();
  std::vector<std::string> names;
  std::vector<std::vector<double>> boundaries;
  QFCARD_RETURN_IF_ERROR(ReadBoundaries(reader, &names, &boundaries));
  if (tag != kPartBoundaries && tag != kPartLegacyVOptimal) {
    return common::Status::InvalidArgument(
        "bundle options: unknown partitioner tag");
  }
  out->partitioner = std::make_shared<const featurize::Partitioner>(
      featurize::Partitioner::FromState(std::move(names),
                                        std::move(boundaries)));
  return common::Status::Ok();
}

// ---------------------------------------------------------------------------
// Featurizer blobs
// ---------------------------------------------------------------------------

void EncodeLocalFeaturizer(featurize::QftKind kind,
                           const featurize::FeatureSchema& schema,
                           const featurize::ConjunctionOptions& opts,
                           std::vector<uint8_t>* out) {
  ml::ByteWriter writer(out);
  writer.Write(kLocalQftMagic);
  writer.Write<uint8_t>(static_cast<uint8_t>(kind));
  WriteSchema(writer, schema);
  WriteOptions(writer, opts);
}

void EncodeMscnFeaturizer(const featurize::MscnFeaturizer& f, int hidden,
                          std::vector<uint8_t>* out) {
  ml::ByteWriter writer(out);
  writer.Write(kMscnMagic);
  writer.Write<uint8_t>(static_cast<uint8_t>(f.mode()));
  writer.Write<int32_t>(hidden);
  const featurize::GlobalFeatureSchema& global = f.global();
  WriteSchema(writer, global.schema());
  writer.WriteVector(global.first_attr());
  writer.WriteVector(global.num_columns());
  WriteOptions(writer, f.options());
}

common::StatusOr<std::unique_ptr<est::CardinalityEstimator>> LoadLocal(
    ml::ByteReader& reader, const ModelBundle& bundle) {
  uint8_t kind_raw = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&kind_raw));
  if (kind_raw > static_cast<uint8_t>(featurize::QftKind::kComplex)) {
    return common::Status::InvalidArgument("bundle: unknown QFT kind tag");
  }
  const auto kind = static_cast<featurize::QftKind>(kind_raw);
  featurize::FeatureSchema schema;
  QFCARD_RETURN_IF_ERROR(ReadSchema(reader, &schema));
  featurize::ConjunctionOptions opts;
  QFCARD_RETURN_IF_ERROR(ReadOptions(reader, schema.num_attributes(), &opts));
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument(
        "bundle: trailing bytes after featurizer state");
  }
  std::unique_ptr<featurize::Featurizer> featurizer =
      featurize::MakeFeaturizer(kind, std::move(schema), std::move(opts));

  // "<model>+<qft>" — only the model half matters here (the QFT was decoded
  // from the blob); hyperparameters affect training only.
  std::unique_ptr<ml::Model> model = est::MakeModel(
      bundle.estimator.substr(0, bundle.estimator.find('+')));
  if (model == nullptr) {
    return common::Status::InvalidArgument(
        "bundle: estimator name \"" + bundle.estimator +
        "\" names no known model (expected gb/nn/linear)");
  }
  QFCARD_RETURN_IF_ERROR(model->Deserialize(bundle.model));
  if (model->InputDim() != featurizer->dim()) {
    return common::Status::InvalidArgument(
        "bundle: model input dimension does not match the restored "
        "featurizer");
  }
  return std::unique_ptr<est::CardinalityEstimator>(
      std::make_unique<est::MlEstimator>(std::move(featurizer),
                                         std::move(model)));
}

common::StatusOr<std::unique_ptr<est::CardinalityEstimator>> LoadMscn(
    ml::ByteReader& reader, const ModelBundle& bundle,
    const storage::Catalog& catalog, const query::SchemaGraph* graph) {
  uint8_t mode_raw = 0;
  int32_t hidden = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&mode_raw));
  QFCARD_RETURN_IF_ERROR(reader.Read(&hidden));
  if (mode_raw > static_cast<uint8_t>(
                     featurize::MscnFeaturizer::PredMode::kPerAttributeRange)) {
    return common::Status::InvalidArgument(
        "bundle: unknown MSCN predicate mode tag");
  }
  if (hidden < 1 || hidden > (1 << 16)) {
    return common::Status::InvalidArgument(
        "bundle: MSCN hidden width out of range");
  }
  featurize::FeatureSchema schema;
  std::vector<int> first_attr;
  std::vector<int> num_columns;
  QFCARD_RETURN_IF_ERROR(ReadSchema(reader, &schema));
  QFCARD_RETURN_IF_ERROR(reader.ReadVector(&first_attr));
  QFCARD_RETURN_IF_ERROR(reader.ReadVector(&num_columns));
  const int num_attributes = schema.num_attributes();
  QFCARD_ASSIGN_OR_RETURN(featurize::GlobalFeatureSchema global,
                          featurize::GlobalFeatureSchema::FromState(
                              std::move(schema), std::move(first_attr),
                              std::move(num_columns)));
  featurize::ConjunctionOptions opts;
  QFCARD_RETURN_IF_ERROR(ReadOptions(reader, num_attributes, &opts));
  if (!reader.AtEnd()) {
    return common::Status::InvalidArgument(
        "bundle: trailing bytes after featurizer state");
  }
  featurize::MscnFeaturizer featurizer(
      &catalog, graph,
      static_cast<featurize::MscnFeaturizer::PredMode>(mode_raw),
      std::move(opts), std::move(global));
  ml::MscnParams params;
  params.hidden = hidden;
  auto loaded =
      std::make_unique<est::MscnEstimator>(std::move(featurizer), params);
  QFCARD_RETURN_IF_ERROR(loaded->DeserializeModel(bundle.model));
  return std::unique_ptr<est::CardinalityEstimator>(std::move(loaded));
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256>& kTable = *[] {
    auto* table = new std::array<uint32_t, 256>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      (*table)[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeBundle(const ModelBundle& bundle, std::vector<uint8_t>* out) {
  out->clear();
  ml::ByteWriter writer(out);
  writer.Write(kBundleMagic);
  writer.Write(kBundleVersion);
  writer.WriteString(bundle.estimator);
  writer.WriteVector(bundle.featurizer);
  writer.WriteVector(bundle.model);
  writer.Write<uint32_t>(Crc32(out->data(), out->size()));
}

common::StatusOr<ModelBundle> DecodeBundle(const std::vector<uint8_t>& data) {
  if (data.size() < sizeof(uint32_t)) {
    return common::Status::OutOfRange("bundle shorter than its checksum");
  }
  const size_t body = data.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, data.data() + body, sizeof(stored));
  if (Crc32(data.data(), body) != stored) {
    return common::Status::InvalidArgument("bundle checksum mismatch");
  }
  ml::ByteReader reader(data);
  uint32_t magic = 0;
  uint32_t version = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&magic));
  if (magic != kBundleMagic) {
    return common::Status::InvalidArgument("not a qfcard model bundle");
  }
  QFCARD_RETURN_IF_ERROR(reader.Read(&version));
  if (version != kBundleVersion) {
    return common::Status::InvalidArgument("unsupported bundle version");
  }
  ModelBundle bundle;
  QFCARD_RETURN_IF_ERROR(reader.ReadString(&bundle.estimator));
  QFCARD_RETURN_IF_ERROR(reader.ReadVector(&bundle.featurizer));
  QFCARD_RETURN_IF_ERROR(reader.ReadVector(&bundle.model));
  if (reader.remaining() != sizeof(uint32_t)) {
    return common::Status::InvalidArgument(
        "bundle has trailing bytes before its checksum");
  }
  return bundle;
}

common::StatusOr<ModelBundle> BundleFromEstimator(
    const est::CardinalityEstimator& estimator,
    const std::string& registry_name) {
  ModelBundle bundle;
  bundle.estimator = registry_name;
  if (const auto* ml_est = dynamic_cast<const est::MlEstimator*>(&estimator)) {
    const featurize::Featurizer& f = ml_est->featurizer();
    QFCARD_ASSIGN_OR_RETURN(const featurize::QftKind kind,
                            featurize::QftKindFromString(f.name()));
    const featurize::FeatureSchema* schema = nullptr;
    featurize::ConjunctionOptions opts;  // simple/range ignore these
    switch (kind) {
      case featurize::QftKind::kSimple:
        schema = &dynamic_cast<const featurize::SingularEncoding&>(f).schema();
        break;
      case featurize::QftKind::kRange:
        schema = &dynamic_cast<const featurize::RangeEncoding&>(f).schema();
        break;
      case featurize::QftKind::kConjunctive:
      case featurize::QftKind::kComplex: {
        // DisjunctionEncoding is a ConjunctionEncoding.
        const auto& conj = dynamic_cast<const featurize::ConjunctionEncoding&>(f);
        schema = &conj.schema();
        opts = conj.options();
        break;
      }
    }
    EncodeLocalFeaturizer(kind, *schema, opts, &bundle.featurizer);
    QFCARD_RETURN_IF_ERROR(ml_est->SerializeModel(&bundle.model));
    return bundle;
  }
  if (const auto* mscn = dynamic_cast<const est::MscnEstimator*>(&estimator)) {
    EncodeMscnFeaturizer(mscn->featurizer(), mscn->model().params().hidden,
                         &bundle.featurizer);
    QFCARD_RETURN_IF_ERROR(mscn->SerializeModel(&bundle.model));
    return bundle;
  }
  return common::Status::Unimplemented(
      "estimator \"" + estimator.name() +
      "\" has no persistable learned state (only ML estimators bundle)");
}

common::StatusOr<std::unique_ptr<est::CardinalityEstimator>>
EstimatorFromBundle(const ModelBundle& bundle, const storage::Catalog& catalog,
                    const query::SchemaGraph* graph) {
  ml::ByteReader reader(bundle.featurizer);
  uint32_t magic = 0;
  QFCARD_RETURN_IF_ERROR(reader.Read(&magic));
  if (magic == kLocalQftMagic) return LoadLocal(reader, bundle);
  if (magic == kMscnMagic) return LoadMscn(reader, bundle, catalog, graph);
  return common::Status::InvalidArgument(
      "bundle: unrecognized featurizer blob magic");
}

}  // namespace qfcard::serve
