#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "estimators/registry.h"
#include "featurize/feature_schema.h"
#include "featurize/partitioner.h"
#include "gtest/gtest.h"
#include "serve/bundle.h"
#include "storage/catalog.h"
#include "workload/forest.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"

namespace qfcard::serve {
namespace {

/// One labeled forest workload shared by every round-trip case (building it
/// labels ~150 queries, so do it once).
struct Fixture {
  storage::Catalog catalog;
  std::vector<query::Query> train_queries;
  std::vector<double> train_cards;
  std::vector<query::Query> test_queries;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    workload::ForestOptions forest;
    forest.num_rows = 3000;
    forest.num_attributes = 6;
    forest.seed = 42;
    storage::Table table = workload::MakeForestTable(forest);
    common::Rng rng(7);
    const std::vector<query::Query> queries =
        workload::GeneratePredicateWorkload(
            table, 150, workload::ConjunctiveWorkloadOptions(/*max_attrs=*/3),
            rng);
    const auto labeled = workload::LabelOnTable(table, queries,
                                                /*drop_empty=*/true);
    QFCARD_CHECK_OK(labeled.status());
    size_t i = 0;
    for (const auto& lq : labeled.value()) {
      if (i++ % 5 == 0) {
        f->test_queries.push_back(lq.query);
      } else {
        f->train_queries.push_back(lq.query);
        f->train_cards.push_back(lq.card);
      }
    }
    QFCARD_CHECK_OK(f->catalog.AddTable(std::move(table)));
    return f;
  }();
  return *fixture;
}

/// Hyperparameters small enough that training every model type stays in
/// test-time budget (round-trip fidelity does not depend on model quality).
est::EstimatorOptions SmallOptions() {
  est::EstimatorOptions opts;
  opts.gbm.num_trees = 12;
  opts.gbm.max_depth = 3;
  opts.nn.hidden = {8};
  opts.nn.max_epochs = 5;
  opts.nn.max_steps = 150;
  opts.mscn.hidden = 8;
  opts.mscn.max_epochs = 5;
  opts.mscn.max_steps = 150;
  return opts;
}

/// Train -> bundle -> encode -> decode -> load -> re-bundle -> re-encode.
/// Asserts predictions are bit-identical across the save/load boundary and
/// that re-saving the loaded estimator reproduces the original bytes.
void ExpectRoundTrip(const std::string& name,
                     const est::EstimatorOptions& opts) {
  SCOPED_TRACE(name);
  const Fixture& fx = GetFixture();

  auto estimator_or = est::MakeEstimator(name, fx.catalog, opts);
  ASSERT_TRUE(estimator_or.ok()) << estimator_or.status().ToString();
  std::unique_ptr<est::CardinalityEstimator> estimator =
      std::move(estimator_or).value();
  ASSERT_TRUE(estimator
                  ->Train(fx.train_queries, fx.train_cards,
                          /*valid_fraction=*/0.15, /*seed=*/20260806)
                  .ok());
  auto before_or = estimator->EstimateBatch(fx.test_queries);
  ASSERT_TRUE(before_or.ok()) << before_or.status().ToString();

  auto bundle_or = BundleFromEstimator(*estimator, name);
  ASSERT_TRUE(bundle_or.ok()) << bundle_or.status().ToString();
  std::vector<uint8_t> bytes;
  EncodeBundle(*bundle_or, &bytes);

  auto decoded_or = DecodeBundle(bytes);
  ASSERT_TRUE(decoded_or.ok()) << decoded_or.status().ToString();
  EXPECT_EQ(decoded_or->estimator, name);
  EXPECT_EQ(decoded_or->featurizer, bundle_or->featurizer);
  EXPECT_EQ(decoded_or->model, bundle_or->model);

  auto loaded_or = EstimatorFromBundle(*decoded_or, fx.catalog);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  auto after_or = (*loaded_or)->EstimateBatch(fx.test_queries);
  ASSERT_TRUE(after_or.ok()) << after_or.status().ToString();
  ASSERT_EQ(after_or->size(), before_or->size());
  for (size_t i = 0; i < before_or->size(); ++i) {
    EXPECT_EQ((*before_or)[i], (*after_or)[i])
        << "prediction " << i << " changed across save/load";
  }

  auto rebundle_or = BundleFromEstimator(**loaded_or, name);
  ASSERT_TRUE(rebundle_or.ok()) << rebundle_or.status().ToString();
  std::vector<uint8_t> rebytes;
  EncodeBundle(*rebundle_or, &rebytes);
  EXPECT_EQ(bytes, rebytes) << "re-saving a loaded bundle changed its bytes";
}

TEST(SerializeRoundTrip, LinearSimple) {
  ExpectRoundTrip("linear+simple", SmallOptions());
}

TEST(SerializeRoundTrip, GbRange) {
  ExpectRoundTrip("gb+range", SmallOptions());
}

TEST(SerializeRoundTrip, GbConjunctive) {
  ExpectRoundTrip("gb+conjunctive", SmallOptions());
}

TEST(SerializeRoundTrip, NnComplex) {
  ExpectRoundTrip("nn+complex", SmallOptions());
}

/// An equi-depth partitioner over the fixture table, budget 16.
std::shared_ptr<const featurize::Partitioner> EquiDepth16() {
  return std::make_shared<const featurize::Partitioner>(
      featurize::Partitioner::EquiDepth(GetFixture().catalog.table(0), 16));
}

/// A v-optimal partitioner over the fixture table, budget 16.
std::shared_ptr<const featurize::Partitioner> VOptimal16() {
  return std::make_shared<const featurize::Partitioner>(
      featurize::Partitioner::VOptimal(GetFixture().catalog.table(0), 16));
}

TEST(SerializeRoundTrip, GbConjunctiveWithEquiDepthPartitioner) {
  est::EstimatorOptions opts = SmallOptions();
  opts.conj.partitioner = EquiDepth16();
  opts.conj.max_partitions = 16;
  ExpectRoundTrip("gb+conjunctive", opts);
}

TEST(SerializeRoundTrip, NnComplexWithVOptimalPartitioner) {
  est::EstimatorOptions opts = SmallOptions();
  opts.conj.partitioner = VOptimal16();
  opts.conj.max_partitions = 16;
  ExpectRoundTrip("nn+complex", opts);
}

// Bundles written while equi-depth and v-optimal were separate partitioner
// classes tag v-optimal boundaries 2 instead of 1; the blob is otherwise
// byte-for-byte the same. Such a bundle still loads, estimates exactly like
// the saved model, and re-saves with tag 1.
TEST(SerializeRoundTrip, LegacyVOptimalTagStillLoads) {
  const Fixture& fx = GetFixture();
  est::EstimatorOptions opts = SmallOptions();
  opts.conj.partitioner = VOptimal16();
  opts.conj.max_partitions = 16;
  std::unique_ptr<est::CardinalityEstimator> built =
      est::MakeEstimator("gb+conjunctive", fx.catalog, opts).value();
  QFCARD_CHECK_OK(
      built->Train(fx.train_queries, fx.train_cards, 0.15, 20260806));
  const std::vector<double> before =
      built->EstimateBatch(fx.test_queries).value();
  const ModelBundle bundle =
      BundleFromEstimator(*built, "gb+conjunctive").value();

  // The partitioner tag directly precedes the boundary section: a u32
  // attribute count, then per attribute a u64-length name and a
  // u64-length vector of doubles.
  size_t section = sizeof(uint32_t);
  const featurize::Partitioner& part = *opts.conj.partitioner;
  for (size_t a = 0; a < part.attr_names().size(); ++a) {
    section += 2 * sizeof(uint64_t) + part.attr_names()[a].size() +
               part.boundaries()[a].size() * sizeof(double);
  }
  ModelBundle legacy = bundle;
  ASSERT_GT(legacy.featurizer.size(), section);
  uint8_t& tag = legacy.featurizer[legacy.featurizer.size() - section - 1];
  ASSERT_EQ(tag, 1);
  tag = 2;

  const std::unique_ptr<est::CardinalityEstimator> loaded =
      EstimatorFromBundle(legacy, fx.catalog).value();
  EXPECT_EQ(loaded->EstimateBatch(fx.test_queries).value(), before);
  EXPECT_EQ(BundleFromEstimator(*loaded, "gb+conjunctive").value().featurizer,
            bundle.featurizer);
}

// The featurizer co-owns its partitioner: with every caller-held handle
// gone, the built and the loaded estimator still featurize through a live
// partitioner (a dangling one is a use-after-free under ASan), and the
// partitioner dies with the last estimator holding it.
TEST(SerializeRoundTrip, EstimatorsOwnTheirPartitioner) {
  const Fixture& fx = GetFixture();
  std::weak_ptr<const featurize::Partitioner> watch;
  std::unique_ptr<est::CardinalityEstimator> built;
  {
    est::EstimatorOptions opts = SmallOptions();
    opts.conj.partitioner = EquiDepth16();
    opts.conj.max_partitions = 16;
    watch = opts.conj.partitioner;
    built = est::MakeEstimator("gb+conjunctive", fx.catalog, opts).value();
  }
  ASSERT_FALSE(watch.expired());
  QFCARD_CHECK_OK(
      built->Train(fx.train_queries, fx.train_cards, 0.15, 20260806));
  const std::vector<double> before =
      built->EstimateBatch(fx.test_queries).value();

  const ModelBundle bundle =
      BundleFromEstimator(*built, "gb+conjunctive").value();
  built.reset();
  EXPECT_TRUE(watch.expired());

  const std::unique_ptr<est::CardinalityEstimator> loaded =
      EstimatorFromBundle(bundle, fx.catalog).value();
  EXPECT_EQ(loaded->EstimateBatch(fx.test_queries).value(), before);
}

TEST(SerializeRoundTrip, MscnOriginal) {
  ExpectRoundTrip("mscn", SmallOptions());
}

TEST(SerializeRoundTrip, MscnRange) {
  ExpectRoundTrip("mscn+range", SmallOptions());
}

TEST(SerializeRoundTrip, MscnConjunctive) {
  ExpectRoundTrip("mscn+conj", SmallOptions());
}

// MSCN resolves bare-named boundaries and per-attribute budgets through the
// same layout step as the local QFTs; both survive a save and a load.
TEST(SerializeRoundTrip, MscnConjunctiveWithEquiDepthAndBudgets) {
  est::EstimatorOptions opts = SmallOptions();
  opts.conj.partitioner = EquiDepth16();
  const int num_attrs = featurize::GlobalFeatureSchema::FromCatalog(
                            GetFixture().catalog)
                            .schema()
                            .num_attributes();
  for (int a = 0; a < num_attrs; ++a) {
    opts.conj.per_attribute_partitions.push_back(8 + 4 * a);
  }
  ExpectRoundTrip("mscn+conj", opts);
}

TEST(SerializeRoundTrip, StatisticsEstimatorsAreUnimplemented) {
  const Fixture& fx = GetFixture();
  auto postgres = est::MakeEstimator("postgres", fx.catalog);
  ASSERT_TRUE(postgres.ok());
  auto bundle = BundleFromEstimator(**postgres, "postgres");
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), common::StatusCode::kUnimplemented);
}

/// A small trained bundle for the corruption cases (linear keeps it cheap).
std::vector<uint8_t> SmallEncodedBundle() {
  const Fixture& fx = GetFixture();
  auto estimator = est::MakeEstimator("linear+simple", fx.catalog).value();
  QFCARD_CHECK_OK(
      estimator->Train(fx.train_queries, fx.train_cards, 0.15, 20260806));
  std::vector<uint8_t> bytes;
  EncodeBundle(BundleFromEstimator(*estimator, "linear+simple").value(),
               &bytes);
  return bytes;
}

TEST(BundleCorruption, EmptyAndTinyInputsAreRejected) {
  EXPECT_FALSE(DecodeBundle({}).ok());
  EXPECT_FALSE(DecodeBundle({0x51}).ok());
  EXPECT_FALSE(DecodeBundle({0x51, 0x42, 0x44, 0x4c}).ok());
}

TEST(BundleCorruption, EveryTruncationIsRejected) {
  const std::vector<uint8_t> bytes = SmallEncodedBundle();
  ASSERT_TRUE(DecodeBundle(bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(),
                                      bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(DecodeBundle(prefix).ok()) << "prefix length " << len;
  }
}

TEST(BundleCorruption, BitFlipsAreDetectedByChecksum) {
  const std::vector<uint8_t> bytes = SmallEncodedBundle();
  for (size_t i = 0; i < bytes.size(); i += 3) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x20;
    EXPECT_FALSE(DecodeBundle(corrupt).ok()) << "flip at byte " << i;
  }
}

TEST(BundleCorruption, TrailingGarbageIsRejected) {
  std::vector<uint8_t> bytes = SmallEncodedBundle();
  bytes.push_back(0);
  EXPECT_FALSE(DecodeBundle(bytes).ok());
}

TEST(BundleCorruption, GarbagePayloadsFailCleanly) {
  const Fixture& fx = GetFixture();
  const ModelBundle good = DecodeBundle(SmallEncodedBundle()).value();

  ModelBundle bad_model = good;
  bad_model.model.assign(64, 0xAB);
  EXPECT_FALSE(EstimatorFromBundle(bad_model, fx.catalog).ok());

  ModelBundle bad_featurizer = good;
  bad_featurizer.featurizer.assign(64, 0xCD);
  EXPECT_FALSE(EstimatorFromBundle(bad_featurizer, fx.catalog).ok());

  ModelBundle empty_model = good;
  empty_model.model.clear();
  EXPECT_FALSE(EstimatorFromBundle(empty_model, fx.catalog).ok());
}

TEST(BundleCorruption, MismatchedFeaturizerAndModelAreRejected) {
  const Fixture& fx = GetFixture();
  const est::EstimatorOptions opts = SmallOptions();

  auto simple = est::MakeEstimator("linear+simple", fx.catalog, opts).value();
  QFCARD_CHECK_OK(simple->Train(fx.train_queries, fx.train_cards, 0.15, 1));
  auto conj =
      est::MakeEstimator("linear+conjunctive", fx.catalog, opts).value();
  QFCARD_CHECK_OK(conj->Train(fx.train_queries, fx.train_cards, 0.15, 1));

  // Pair the conjunctive featurizer (wide vectors) with the simple-QFT
  // model (narrow input): the loader's input-dimension cross-check must
  // reject it instead of letting Predict read out of bounds.
  ModelBundle franken =
      BundleFromEstimator(*conj, "linear+conjunctive").value();
  franken.model = BundleFromEstimator(*simple, "linear+simple").value().model;
  const auto loaded = EstimatorFromBundle(franken, fx.catalog);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace qfcard::serve
