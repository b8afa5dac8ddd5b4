#ifndef QFCARD_SERVE_BUNDLE_H_
#define QFCARD_SERVE_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimators/estimator.h"
#include "query/schema_graph.h"
#include "storage/catalog.h"

namespace qfcard::serve {

/// Everything needed to reconstruct a trained ML estimator: the registry
/// name it was built from, the featurizer's captured state (schema domains,
/// partitioner boundaries, options — so a restored model featurizes
/// byte-identically even when the live catalog's statistics have drifted),
/// and the model parameters. See docs/serving.md for the byte layout.
struct ModelBundle {
  std::string estimator;            ///< est::MakeEstimator name, e.g. "gb+conjunctive"
  std::vector<uint8_t> featurizer;  ///< featurizer state blob
  std::vector<uint8_t> model;       ///< model parameter blob (ml Serialize format)
};

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
uint32_t Crc32(const uint8_t* data, size_t size);

/// Encodes the bundle container: magic, format version, the three payloads,
/// and a trailing CRC32 over everything before it.
void EncodeBundle(const ModelBundle& bundle, std::vector<uint8_t>* out);

/// Decodes an EncodeBundle container, verifying the checksum first. Corrupt
/// or truncated input comes back as a clean Status error, never UB.
common::StatusOr<ModelBundle> DecodeBundle(const std::vector<uint8_t>& data);

/// Captures a trained estimator into a bundle. Supported: MlEstimator over
/// the four paper QFTs and MscnEstimator (any predicate mode); everything
/// else (statistics estimators have no learned state worth versioning)
/// returns Unimplemented. `registry_name` is the est::MakeEstimator key the
/// estimator was built from and is stored verbatim.
common::StatusOr<ModelBundle> BundleFromEstimator(
    const est::CardinalityEstimator& estimator,
    const std::string& registry_name);

/// Reconstructs an estimator from a bundle against `catalog` (used for
/// structural name lookups only; attribute domains come from the bundle).
/// `graph` is MSCN's join-edge source; nullptr means no join edges. Returns
/// the MlEstimator / MscnEstimator itself; its featurizer co-owns any
/// restored partitioner. The bundle's model input dimension is
/// cross-checked against the restored featurizer so a mismatched pairing
/// fails cleanly instead of reading out of bounds.
common::StatusOr<std::unique_ptr<est::CardinalityEstimator>>
EstimatorFromBundle(const ModelBundle& bundle, const storage::Catalog& catalog,
                    const query::SchemaGraph* graph = nullptr);

}  // namespace qfcard::serve

#endif  // QFCARD_SERVE_BUNDLE_H_
