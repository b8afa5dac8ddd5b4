#include "testing/query_fuzzer.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/str_util.h"
#include "estimators/registry.h"
#include "ml/tree.h"
#include "query/query.h"
#include "serve/bundle.h"
#include "storage/catalog.h"
#include "workload/forest.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"

namespace qfcard::testing {

namespace {

using est::CardinalityEstimator;

// Overwrites one int field (feature, left or right) of one node of a
// serialized GradientBoosting payload with a value that probes the
// structural checks: -1, 0, n - 1, n (n = the tree's node count) or a large
// index. Random byte writes rarely land on these fields with such values.
// Returns false when the payload holds no node.
bool MutateGbNode(std::vector<uint8_t>* payload, common::Rng& rng) {
  // magic, base, learning rate, input dimension, tree count.
  constexpr size_t kHeader = sizeof(uint32_t) + sizeof(float) +
                             sizeof(double) + sizeof(int32_t) +
                             sizeof(uint32_t);
  constexpr size_t kFields[3] = {offsetof(ml::TreeNode, feature),
                                 offsetof(ml::TreeNode, left),
                                 offsetof(ml::TreeNode, right)};
  if (payload->size() < kHeader) return false;
  uint32_t num_trees = 0;
  std::memcpy(&num_trees, payload->data() + kHeader - sizeof(uint32_t),
              sizeof(num_trees));
  // Node lists in payload order: (offset of first node, node count).
  std::vector<std::pair<size_t, uint64_t>> trees;
  size_t pos = kHeader;
  for (uint32_t t = 0; t < num_trees; ++t) {
    uint64_t n = 0;
    if (payload->size() - pos < sizeof(n)) break;
    std::memcpy(&n, payload->data() + pos, sizeof(n));
    pos += sizeof(n);
    if (n > (payload->size() - pos) / sizeof(ml::TreeNode)) break;
    if (n > 0) trees.emplace_back(pos, n);
    pos += n * sizeof(ml::TreeNode);
  }
  if (trees.empty()) return false;
  const auto& [first, n] = trees[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(trees.size()) - 1))];
  const size_t node = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  const int32_t values[5] = {-1, 0, static_cast<int32_t>(n) - 1,
                             static_cast<int32_t>(n), 1 << 30};
  const int32_t value = values[rng.UniformInt(0, 4)];
  std::memcpy(payload->data() + first + node * sizeof(ml::TreeNode) +
                  kFields[rng.UniformInt(0, 2)],
              &value, sizeof(value));
  return true;
}

}  // namespace

// Loader fuzzing (docs/serving.md): train every saveable model family on a
// tiny workload, round-trip each through the serve bundle container, and
// then feed the loaders systematically damaged bytes. The container layer
// must reject every mutation of the encoded bundle (the CRC sees all of
// them), and the payload parsers — reached directly, as if a store payload
// rotted after its manifest check — must come back with a clean Status or
// a still-working estimator, never a crash (the sanitizer jobs turn memory
// errors here into failures).
void LoaderFuzzRound(const FuzzRoundContext& ctx) {
  const int round = ctx.round;
  common::Rng rng(common::MixSeed(ctx.options->seed, static_cast<uint64_t>(round)));

  workload::ForestOptions fo;
  fo.num_rows = rng.UniformInt(150, 400);
  fo.num_attributes = static_cast<int>(rng.UniformInt(2, 5));
  fo.seed = rng.Next();
  storage::Catalog catalog;
  QFCARD_CHECK_OK(catalog.AddTable(workload::MakeForestTable(fo)));
  const storage::Table& table = catalog.table(0);

  workload::PredicateGenOptions go;
  go.max_attrs = fo.num_attributes;
  go.max_not_equals = 2;
  const std::vector<query::Query> raw = workload::GeneratePredicateWorkload(
      table, 48, go, rng);
  const common::StatusOr<std::vector<workload::LabeledQuery>> labeled =
      workload::LabelOnTable(table, raw, /*drop_empty=*/true);
  if (!labeled.ok()) {
    ctx.RecordFailure("loader-label", labeled.status().ToString());
    return;
  }
  if (labeled.value().size() < 12) return;  // too sparse to train on
  std::vector<query::Query> queries;
  std::vector<double> cards;
  for (const auto& lq : labeled.value()) {
    queries.push_back(lq.query);
    cards.push_back(lq.card);
  }
  const std::vector<query::Query> probe(queries.begin(),
                                        queries.begin() + 8);

  est::EstimatorOptions eo;
  eo.gbm.num_trees = 6;
  eo.gbm.max_depth = 3;
  eo.nn.hidden = {6};
  eo.nn.max_epochs = 3;
  eo.nn.max_steps = 60;
  eo.mscn.hidden = 6;
  eo.mscn.max_epochs = 3;
  eo.mscn.max_steps = 60;
  eo.conj.max_partitions = static_cast<int>(rng.UniformInt(4, 16));

  for (const char* const name :
       {"linear+simple", "gb+conj", "nn+range", "mscn+conj"}) {
    if (ctx.Full()) return;
    auto built = est::MakeEstimator(name, catalog, eo);
    if (!built.ok()) {
      ctx.RecordFailure("loader-make", built.status().ToString());
      continue;
    }
    std::unique_ptr<CardinalityEstimator> estimator =
        std::move(built).value();
    const common::Status trained =
        estimator->Train(queries, cards, 0.2, rng.Next());
    if (!trained.ok()) {
      ctx.RecordFailure("loader-train:" + std::string(name),
                         trained.ToString());
      continue;
    }

    // Clean round trip: encode -> decode -> load -> identical predictions.
    ++ctx.report->checks;
    auto bundle = serve::BundleFromEstimator(*estimator, name);
    if (!bundle.ok()) {
      ctx.RecordFailure("loader-bundle:" + std::string(name),
                         bundle.status().ToString());
      continue;
    }
    std::vector<uint8_t> bytes;
    serve::EncodeBundle(*bundle, &bytes);
    auto decoded = serve::DecodeBundle(bytes);
    auto loaded = decoded.ok()
                      ? serve::EstimatorFromBundle(*decoded, catalog)
                      : decoded.status();
    if (!loaded.ok()) {
      ctx.RecordFailure("loader-load:" + std::string(name),
                         loaded.status().ToString());
      continue;
    }
    const auto before = estimator->EstimateBatch(probe);
    const auto after = loaded.value()->EstimateBatch(probe);
    if (!before.ok() || !after.ok() || before.value() != after.value()) {
      ctx.RecordFailure(
          "loader-roundtrip:" + std::string(name),
          "predictions changed across save/load");
      continue;
    }

    // Container mutations: bit flips and truncations must all be rejected.
    for (int m = 0; m < 12; ++m) {
      if (ctx.Full()) return;
      ++ctx.report->checks;
      std::vector<uint8_t> corrupt = bytes;
      const size_t pos = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(corrupt.size()) - 1));
      corrupt[pos] =
          static_cast<uint8_t>(corrupt[pos] ^ (1u << rng.UniformInt(0, 7)));
      if (serve::DecodeBundle(corrupt).ok()) {
        ctx.RecordFailure(
            "loader-bitflip:" + std::string(name),
            common::StrFormat("bit flip at byte %llu went undetected",
                              static_cast<unsigned long long>(pos)));
      }
      ++ctx.report->checks;
      const size_t cut = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(bytes.size()) - 1));
      const std::vector<uint8_t> prefix(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<long>(cut));
      if (serve::DecodeBundle(prefix).ok()) {
        ctx.RecordFailure(
            "loader-truncate:" + std::string(name),
            common::StrFormat("truncation to %llu bytes went undetected",
                              static_cast<unsigned long long>(cut)));
      }
    }

    // Payload mutations past the checksum: whatever the parsers return,
    // it must be a Status or a usable estimator (ASan/UBSan arbitrate).
    for (int m = 0; m < 8; ++m) {
      if (ctx.Full()) return;
      ++ctx.report->checks;
      serve::ModelBundle mutated = *decoded;
      std::vector<uint8_t>& target =
          m % 2 == 0 ? mutated.model : mutated.featurizer;
      if (target.empty()) continue;
      if (rng.Bernoulli(0.3)) {
        target.resize(static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(target.size()) - 1)));
      } else {
        const size_t pos = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(target.size()) - 1));
        target[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
      auto survivor = serve::EstimatorFromBundle(mutated, catalog);
      if (survivor.ok()) {
        // Parsed despite the damage (e.g. a flipped weight bit): it must
        // still estimate without tripping the sanitizers.
        (void)survivor.value()->EstimateBatch(probe);
      }
    }

    // Structural GB mutations: a damaged node list is rejected, or the
    // model still estimates cleanly.
    if (std::string(name) != "gb+conj") continue;
    for (int m = 0; m < 8; ++m) {
      if (ctx.Full()) return;
      serve::ModelBundle mutated = *decoded;
      if (!MutateGbNode(&mutated.model, rng)) break;
      ++ctx.report->checks;
      auto survivor = serve::EstimatorFromBundle(mutated, catalog);
      if (!survivor.ok()) continue;
      const auto estimates = survivor.value()->EstimateBatch(probe);
      bool clean = estimates.ok();
      for (size_t i = 0; clean && i < estimates.value().size(); ++i) {
        clean = std::isfinite(estimates.value()[i]) &&
                estimates.value()[i] >= 1.0;
      }
      if (!clean) {
        ctx.RecordFailure("loader-gb-node:" + std::string(name),
                           "a model with a mutated node estimated badly");
      }
    }
  }
}

}  // namespace qfcard::testing
