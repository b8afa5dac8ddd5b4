// Time-budgeted fuzz smoke test: runs the full differential/metamorphic
// fuzzer (src/testing/query_fuzzer.h) at its default fixed seed — at least
// 2000 generated queries, with batch/serial parity checked at 1, 2, and 8
// threads — and fails with the minimized reproducers if any check is
// violated. On failure the report is also written to
// $QFCARD_FUZZ_ARTIFACT (or ./fuzz_repro.txt) so CI can upload it.

#include "testing/query_fuzzer.h"

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "estimators/registry.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "testing/shrink.h"

namespace qfcard::testing {
namespace {

void WriteArtifactOnFailure(const FuzzReport& report) {
  if (report.ok()) return;
  const char* env = std::getenv("QFCARD_FUZZ_ARTIFACT");
  const std::string path = env != nullptr ? env : "fuzz_repro.txt";
  std::ofstream out(path);
  if (out) out << report.Summary();
}

TEST(FuzzSmokeTest, DefaultSeedRunsCleanWithParityAcrossPoolSizes) {
  FuzzOptions options;  // fixed default seed: deterministic run
  ASSERT_EQ(options.parity_threads, (std::vector<int>{1, 2, 8}));

  const FuzzReport report = RunFuzzer(options);
  WriteArtifactOnFailure(report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.rounds, options.rounds);
  EXPECT_GE(report.queries, 2000) << "smoke budget requires >= 2000 queries";
  EXPECT_GT(report.checks, report.queries) << "several checks per query";
}

TEST(FuzzSmokeTest, SecondSeedAlsoClean) {
  FuzzOptions options;
  options.seed = 0x5eed2;
  options.rounds = 10;
  const FuzzReport report = RunFuzzer(options);
  WriteArtifactOnFailure(report);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.rounds, 10);
}

TEST(FuzzSmokeTest, ReplayRunsExactlyOneRound) {
  FuzzOptions options;
  options.replay_round = 7;
  const FuzzReport report = RunFuzzer(options);
  EXPECT_EQ(report.rounds, 1);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Sums a named counter across its label sets in the global registry.
uint64_t GlobalCounterValue(const std::string& name,
                            const std::string& labels) {
  uint64_t total = 0;
  for (const obs::MetricsRegistry::CounterRow& row :
       obs::MetricsRegistry::Global().CounterRows()) {
    if (row.name == name && row.labels == labels) total += row.value;
  }
  return total;
}

// Error paths are telemetry too (docs/observability.md): registry failures
// and the shrink loop must leave an audit trail in the counters, so a fleet
// quietly rejecting estimator configs — or a fuzzer stuck shrinking — shows
// up in snapshots instead of only in stderr.
TEST(FuzzSmokeTest, ErrorPathsIncrementFailureCounters) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().ResetForTest();
  const storage::Catalog catalog = testutil::SmallCatalog();

  // Each registry error kind bumps its own labeled counter.
  EXPECT_FALSE(est::MakeEstimator("definitely-not-a-model", catalog).ok());
  EXPECT_EQ(GlobalCounterValue("registry.errors", "kind=unknown-estimator"),
            1u);
  EXPECT_FALSE(est::MakeEstimator("gb+not-a-qft", catalog).ok());
  EXPECT_EQ(GlobalCounterValue("registry.errors", "kind=unknown-qft"), 1u);
  EXPECT_FALSE(est::MakeEstimator("frobnicator+complex", catalog).ok());
  EXPECT_EQ(GlobalCounterValue("registry.errors", "kind=unknown-model"), 1u);
  EXPECT_FALSE(
      est::MakeEstimator("gb+complex", storage::Catalog()).ok());
  EXPECT_EQ(GlobalCounterValue("registry.errors", "kind=bad-catalog"), 1u);

  // The shrink loop counts every candidate it evaluates.
  query::Query q = testutil::SingleTableQuery("small");
  testutil::AddPredicate(q, 0, query::CmpOp::kGe, 2);
  testutil::AddPredicate(q, 1, query::CmpOp::kLe, 90);
  const query::Query minimal =
      ShrinkQuery(q, [](const query::Query&) { return true; });
  EXPECT_GT(GlobalCounterValue("fuzz.shrink_candidates", ""), 0u);
  EXPECT_LE(minimal.predicates.size(), q.predicates.size());

  // Gating: with metrics off the same failures leave no trace.
  obs::MetricsRegistry::Global().ResetForTest();
  obs::SetMetricsEnabled(false);
  EXPECT_FALSE(est::MakeEstimator("definitely-not-a-model", catalog).ok());
  EXPECT_EQ(GlobalCounterValue("registry.errors", "kind=unknown-estimator"),
            0u);
}

TEST(FuzzSmokeTest, DeterministicAcrossRuns) {
  FuzzOptions options;
  options.rounds = 3;
  const FuzzReport a = RunFuzzer(options);
  const FuzzReport b = RunFuzzer(options);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_EQ(a.Summary(), b.Summary());
}

}  // namespace
}  // namespace qfcard::testing
