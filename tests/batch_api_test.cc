// Parity tests for the batch-first estimation API: every batch entry point
// must return byte-identical results to its serial per-item counterpart, at
// every thread count (docs/batch_api.md).

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "estimators/iep.h"
#include "estimators/registry.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "gtest/gtest.h"
#include "ml/matrix.h"
#include "test_util.h"
#include "workload/forest.h"
#include "workload/labeler.h"
#include "workload/query_gen.h"

namespace qfcard::est {
namespace {

// A small forest table plus a labeled mixed workload, built once for the
// whole suite (labeling dominates the setup cost).
struct Fixture {
  storage::Catalog catalog;
  const storage::Table* table;
  std::vector<query::Query> queries;
  std::vector<double> cards;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    workload::ForestOptions fopts;
    fopts.num_rows = 3000;
    fopts.num_attributes = 5;
    QFCARD_CHECK_OK(f->catalog.AddTable(workload::MakeForestTable(fopts)));
    f->table = f->catalog.GetTable("forest").value();
    common::Rng rng(77);
    const std::vector<query::Query> generated =
        workload::GeneratePredicateWorkload(
            *f->table, 300, workload::MixedWorkloadOptions(4), rng);
    const std::vector<workload::LabeledQuery> labeled =
        workload::LabelOnTable(*f->table, generated, true).value();
    for (const workload::LabeledQuery& lq : labeled) {
      f->queries.push_back(lq.query);
      f->cards.push_back(lq.card);
    }
    return f;
  }();
  return *fixture;
}

// Restores serial mode after each test regardless of outcome.
class BatchApiTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetGlobalThreads(1); }
};

EstimatorOptions FastOptions() {
  EstimatorOptions opts;
  opts.conj.max_partitions = 8;
  opts.gbm.num_trees = 20;
  opts.gbm.max_depth = 4;
  opts.mscn.max_steps = 60;
  opts.mscn.max_epochs = 5;
  opts.nn.max_steps = 60;
  opts.nn.max_epochs = 5;
  return opts;
}

TEST_F(BatchApiTest, FeaturizeBatchMatchesFeaturizeInto) {
  const Fixture& f = GetFixture();
  featurize::ConjunctionOptions copts;
  copts.max_partitions = 8;
  const std::unique_ptr<featurize::Featurizer> featurizer =
      featurize::MakeFeaturizer(featurize::QftKind::kComplex,
                                featurize::FeatureSchema::FromTable(*f.table),
                                copts);
  const int n = static_cast<int>(f.queries.size());
  ml::Matrix serial(n, featurizer->dim());
  for (int i = 0; i < n; ++i) {
    QFCARD_CHECK_OK(featurizer->FeaturizeInto(
        f.queries[static_cast<size_t>(i)], serial.Row(i)));
  }
  for (const int threads : {1, 4}) {
    common::SetGlobalThreads(threads);
    ml::Matrix batch(n, featurizer->dim());
    QFCARD_CHECK_OK(featurizer->FeaturizeBatch(f.queries, batch.data().data()));
    EXPECT_EQ(serial.data(), batch.data()) << threads << " threads";
  }
}

// EstimateBatch == the EstimateCard loop for every stateless estimator in
// the comparison set, at 1 and 4 threads.
TEST_F(BatchApiTest, EstimateBatchMatchesSerialLoop) {
  const Fixture& f = GetFixture();
  const EstimatorOptions opts = FastOptions();
  // gb+complex because the fixture workload is mixed (the conjunctive QFT
  // rejects disjunctions).
  for (const std::string& name :
       {std::string("postgres"), std::string("true"),
        std::string("gb+complex")}) {
    common::SetGlobalThreads(1);
    const std::unique_ptr<CardinalityEstimator> estimator =
        MakeEstimator(name, f.catalog, opts).value();
    QFCARD_CHECK_OK(estimator->Train(f.queries, f.cards, 0.1, 5));
    std::vector<double> serial;
    for (const query::Query& q : f.queries) {
      serial.push_back(estimator->EstimateCard(q).value());
    }
    for (const int threads : {1, 4}) {
      common::SetGlobalThreads(threads);
      const std::vector<double> batch =
          estimator->EstimateBatch(f.queries).value();
      EXPECT_EQ(serial, batch) << name << " at " << threads << " threads";
    }
  }

  // IEP over the oracle and over gb+conjunctive: IEP has no batch override,
  // so this pins the base fan-out over its const EstimateCard. The inner
  // GB model trains on the fixture's conjunctive queries (one DNF term);
  // queries past the expansion guard are left out, since one rejected query
  // fails the whole batch.
  const std::unique_ptr<CardinalityEstimator> oracle =
      MakeEstimator("true", f.catalog, opts).value();
  const std::unique_ptr<CardinalityEstimator> conj =
      MakeEstimator("gb+conjunctive", f.catalog, opts).value();
  const IepEstimator oracle_iep(oracle.get(), /*max_terms=*/4);
  const IepEstimator conj_iep(conj.get(), /*max_terms=*/4);
  std::vector<query::Query> conj_queries;
  std::vector<double> conj_cards;
  std::vector<query::Query> expandable;
  for (size_t i = 0; i < f.queries.size(); ++i) {
    const auto expansion = oracle_iep.Expansion(f.queries[i]);
    if (!expansion.ok()) continue;
    expandable.push_back(f.queries[i]);
    if (expansion.value().dnf_terms == 1) {
      conj_queries.push_back(f.queries[i]);
      conj_cards.push_back(f.cards[i]);
    }
  }
  ASSERT_GT(expandable.size(), conj_queries.size()) << "no disjunctive query";
  common::SetGlobalThreads(1);
  QFCARD_CHECK_OK(conj->Train(conj_queries, conj_cards, 0.1, 5));
  for (const IepEstimator* iep : {&oracle_iep, &conj_iep}) {
    common::SetGlobalThreads(1);
    std::vector<double> serial;
    for (const query::Query& q : expandable) {
      serial.push_back(iep->EstimateCard(q).value());
    }
    for (const int threads : {1, 4}) {
      common::SetGlobalThreads(threads);
      const std::vector<double> batch = iep->EstimateBatch(expandable).value();
      EXPECT_EQ(serial, batch) << iep->name() << " at " << threads
                               << " threads";
    }
  }
}

// MSCN's per-attribute mode handles the mixed workload; parity across
// thread counts on one trained model.
TEST_F(BatchApiTest, MscnEstimateBatchThreadParity) {
  const Fixture& f = GetFixture();
  common::SetGlobalThreads(1);
  const std::unique_ptr<CardinalityEstimator> estimator =
      MakeEstimator("mscn+conj", f.catalog, FastOptions()).value();
  QFCARD_CHECK_OK(estimator->Train(f.queries, f.cards, 0.1, 5));
  std::vector<double> serial;
  for (const query::Query& q : f.queries) {
    serial.push_back(estimator->EstimateCard(q).value());
  }
  const std::vector<double> batch1 = estimator->EstimateBatch(f.queries).value();
  common::SetGlobalThreads(4);
  const std::vector<double> batch4 = estimator->EstimateBatch(f.queries).value();
  EXPECT_EQ(serial, batch1);
  EXPECT_EQ(batch1, batch4);
}

// Sampling draws fresh tickets per estimate, so parity needs fresh
// same-seed instances: a serial EstimateCard loop and an EstimateBatch over
// the same queries consume the same tickets in the same slots.
TEST_F(BatchApiTest, SamplingBatchMatchesSerialLoopViaTickets) {
  const Fixture& f = GetFixture();
  EstimatorOptions opts;
  opts.sampling_fraction = 0.05;
  opts.sampling_seed = 99;

  common::SetGlobalThreads(1);
  const std::unique_ptr<CardinalityEstimator> serial_est =
      MakeEstimator("sampling", f.catalog, opts).value();
  std::vector<double> serial;
  for (const query::Query& q : f.queries) {
    serial.push_back(serial_est->EstimateCard(q).value());
  }
  for (const int threads : {1, 4}) {
    common::SetGlobalThreads(threads);
    const std::unique_ptr<CardinalityEstimator> batch_est =
        MakeEstimator("sampling", f.catalog, opts).value();
    const std::vector<double> batch = batch_est->EstimateBatch(f.queries).value();
    EXPECT_EQ(serial, batch) << threads << " threads";
  }
}

TEST_F(BatchApiTest, LabelingIdenticalAcrossThreadCounts) {
  const Fixture& f = GetFixture();
  common::Rng rng(123);
  const std::vector<query::Query> queries =
      workload::GeneratePredicateWorkload(
          *f.table, 200, workload::ConjunctiveWorkloadOptions(4), rng);
  common::SetGlobalThreads(1);
  const std::vector<workload::LabeledQuery> serial =
      workload::LabelOnTable(*f.table, queries, true).value();
  common::SetGlobalThreads(4);
  const std::vector<workload::LabeledQuery> parallel =
      workload::LabelOnTable(*f.table, queries, true).value();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].card, parallel[i].card) << i;
  }
}

TEST_F(BatchApiTest, RegistryConstructsEveryRegisteredName) {
  const Fixture& f = GetFixture();
  for (const std::string& name : RegisteredEstimators()) {
    const auto est_or = MakeEstimator(name, f.catalog, FastOptions());
    ASSERT_TRUE(est_or.ok()) << name << ": " << est_or.status().ToString();
    EXPECT_NE(est_or.value(), nullptr) << name;
  }
}

TEST_F(BatchApiTest, RegistryNormalizesCaseAndAliases) {
  const Fixture& f = GetFixture();
  EXPECT_TRUE(MakeEstimator("Postgres", f.catalog).ok());
  EXPECT_TRUE(MakeEstimator("GB+Conj", f.catalog, FastOptions()).ok());
  EXPECT_TRUE(MakeEstimator("gb+comp", f.catalog, FastOptions()).ok());
}

TEST_F(BatchApiTest, RegistryRejectsUnknownNames) {
  const Fixture& f = GetFixture();
  EXPECT_FALSE(MakeEstimator("nope", f.catalog).ok());
  EXPECT_FALSE(MakeEstimator("gb+nope", f.catalog).ok());
  EXPECT_FALSE(MakeEstimator("nope+conj", f.catalog).ok());
  EXPECT_FALSE(MakeEstimator("", f.catalog).ok());
}

}  // namespace
}  // namespace qfcard::est
