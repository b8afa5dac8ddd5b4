#include "estimators/registry.h"

#include <algorithm>
#include <string>
#include <vector>

#include "featurize/feature_schema.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "workload/imdb.h"

namespace qfcard::est {
namespace {

using testutil::SmallCatalog;

TEST(RegistryTest, EveryRegisteredNameConstructs) {
  const storage::Catalog catalog = SmallCatalog();
  const std::vector<std::string> names = RegisteredEstimators();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    const auto estimator = MakeEstimator(name, catalog);
    ASSERT_TRUE(estimator.ok())
        << "registered name \"" << name
        << "\" failed to construct: " << estimator.status().ToString();
    EXPECT_NE(estimator.value(), nullptr) << name;
    EXPECT_FALSE(estimator.value()->name().empty()) << name;
  }
}

TEST(RegistryTest, RegisteredNamesAreUniqueAndCoverBaselines) {
  std::vector<std::string> names = RegisteredEstimators();
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end())
      << "duplicate registered name";
  for (const char* expected : {"postgres", "sampling", "true", "mscn",
                               "gb+conjunctive", "nn+complex"}) {
    EXPECT_TRUE(std::binary_search(names.begin(), names.end(),
                                   std::string(expected)))
        << expected << " missing from RegisteredEstimators()";
  }
}

TEST(RegistryTest, UnknownNameReturnsErrorListingRegisteredNames) {
  const storage::Catalog catalog = SmallCatalog();
  const auto result = MakeEstimator("no-such-estimator", catalog);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  // The error enumerates valid choices so CLI users can self-correct.
  EXPECT_NE(result.status().message().find("registered names"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("postgres"), std::string::npos);
}

TEST(RegistryTest, UnknownModelAndQftReturnErrors) {
  const storage::Catalog catalog = SmallCatalog();

  const auto bad_model = MakeEstimator("forest+simple", catalog);
  ASSERT_FALSE(bad_model.ok());
  EXPECT_NE(bad_model.status().message().find("unknown model"),
            std::string::npos)
      << bad_model.status().ToString();
  EXPECT_NE(bad_model.status().message().find("registered names"),
            std::string::npos);

  const auto bad_qft = MakeEstimator("gb+fourier", catalog);
  ASSERT_FALSE(bad_qft.ok());
  EXPECT_NE(bad_qft.status().message().find("unknown QFT"), std::string::npos)
      << bad_qft.status().ToString();
}

TEST(RegistryTest, TypoGetsDidYouMeanSuggestion) {
  const storage::Catalog catalog = SmallCatalog();

  // One edit away from a registered name: the error names the fix.
  const auto typo = MakeEstimator("postgers", catalog);
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.status().message().find("did you mean \"postgres\"?"),
            std::string::npos)
      << typo.status().ToString();

  const auto qft_typo = MakeEstimator("gb+conjuctive", catalog);
  ASSERT_FALSE(qft_typo.ok());
  EXPECT_NE(qft_typo.status().message().find("did you mean \"gb+conjunctive\"?"),
            std::string::npos)
      << qft_typo.status().ToString();

  // Nothing close: no suggestion, just the name list.
  const auto nonsense = MakeEstimator("zzzzzzzzzzzzzz", catalog);
  ASSERT_FALSE(nonsense.ok());
  EXPECT_EQ(nonsense.status().message().find("did you mean"),
            std::string::npos)
      << nonsense.status().ToString();
}

TEST(RegistryTest, QftAliasesAndCaseInsensitivity) {
  const storage::Catalog catalog = SmallCatalog();
  for (const char* name : {"gb+conj", "gb+conjunctive", "linear+comp",
                           "linear+complex", "POSTGRES", "Sampling",
                           "NN+Simple", "MSCN+Range"}) {
    const auto estimator = MakeEstimator(name, catalog);
    EXPECT_TRUE(estimator.ok())
        << name << ": " << estimator.status().ToString();
  }
}

TEST(RegistryTest, EmptyCatalogRejectedForFeaturizedEstimators) {
  const storage::Catalog empty;
  const auto result = MakeEstimator("gb+simple", empty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

uint64_t BadOptionsErrors() {
  uint64_t total = 0;
  for (const obs::MetricsRegistry::CounterRow& row :
       obs::MetricsRegistry::Global().CounterRows()) {
    if (row.name == "registry.errors" && row.labels == "kind=bad-options") {
      total += row.value;
    }
  }
  return total;
}

// A non-empty budget vector names one budget per attribute of the
// featurizer's schema: the table's columns for "<model>+<qft>", the global
// attributes for "mscn*". Any other length is rejected and counted instead
// of silently falling back to max_partitions.
TEST(RegistryTest, PerAttributeBudgetsMustMatchTheFeaturizerSchema) {
  workload::ImdbOptions imdb;
  imdb.num_titles = 100;
  const workload::ImdbDatabase db = workload::MakeImdbDatabase(imdb);
  const int table_columns =
      db.catalog.GetTable("title").value()->num_columns();
  const int global_attrs = featurize::GlobalFeatureSchema::FromCatalog(
                               db.catalog)
                               .schema()
                               .num_attributes();
  ASSERT_NE(table_columns, global_attrs);
  const auto make = [&](const std::string& name, int budgets) {
    EstimatorOptions opts;
    opts.table = "title";
    opts.schema_graph = &db.graph;
    opts.conj.per_attribute_partitions.assign(static_cast<size_t>(budgets), 8);
    return MakeEstimator(name, db.catalog, opts).status().code();
  };
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const uint64_t before = BadOptionsErrors();
  for (const char* name : {"gb+complex", "nn+conjunctive", "linear+simple"}) {
    EXPECT_EQ(make(name, table_columns), common::StatusCode::kOk) << name;
    EXPECT_EQ(make(name, global_attrs), common::StatusCode::kInvalidArgument)
        << name;
  }
  for (const char* name : {"mscn", "mscn+range", "mscn+conj"}) {
    EXPECT_EQ(make(name, global_attrs), common::StatusCode::kOk) << name;
    EXPECT_EQ(make(name, table_columns), common::StatusCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(BadOptionsErrors() - before, 6u);
  obs::SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace
}  // namespace qfcard::est
