// Steady-state FeaturizeInto allocates nothing: the simple, range,
// conjunctive and complex QFTs are run over mixed workloads under a
// counting global operator new. A warm-up pass first lets the per-thread
// buffers reach their size (the compound scratch row, and the spill buffer
// of a clause with more distinct <> literals than fit inline); the
// measured pass must then make no allocation at all. The spill path's
// features are also checked against the uniformity selectivity computed
// here from the clause itself.
//
// The replacement operator new lives in this binary only, so the counting
// does not touch any other test.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/random.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/forest.h"
#include "workload/query_gen.h"

namespace {

// Allocations made by the thread that set t_counting, while it is set.
thread_local bool t_counting = false;
std::atomic<uint64_t> g_counted{0};

void* CountedAlloc(std::size_t size) {
  if (t_counting) g_counted.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qfcard::featurize {
namespace {

using query::CmpOp;

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  const uint64_t before = g_counted.load(std::memory_order_relaxed);
  t_counting = true;
  fn();
  t_counting = false;
  return g_counted.load(std::memory_order_relaxed) - before;
}

/// `lo <= a <= hi` plus one `a <> v` per entry of `nots`, in that order.
query::Query RangeWithExclusions(const std::vector<double>& nots, double lo,
                                 double hi) {
  std::vector<std::pair<CmpOp, double>> clause = {{CmpOp::kGe, lo},
                                                  {CmpOp::kLe, hi}};
  for (const double v : nots) clause.emplace_back(CmpOp::kNe, v);
  query::Query q = testutil::SingleTableQuery("forest");
  testutil::AddCompound(q, 0, {clause});
  return q;
}

/// Clauses on column 0 with more distinct `<>` literals than the
/// excluded-value set keeps inline, with a duplicate, -0.0 beside 0.0, and
/// a literal outside the range. Each comes with its count of distinct
/// excluded values in range, for a column whose domain holds the range.
/// The first two list the same literals in opposite orders.
std::vector<std::pair<query::Query, int>> SpillQueries() {
  std::vector<double> wide;
  for (int i = 0; i < 12; ++i) wide.push_back(1 + 2 * i);
  wide.push_back(3);    // duplicate
  wide.push_back(500);  // outside the range
  const std::vector<double> reversed(wide.rbegin(), wide.rend());
  std::vector<double> zeros = {-0.0, 0.0};
  for (int i = 1; i < 10; ++i) zeros.push_back(i);
  return {{RangeWithExclusions(wide, 0.0, 60.0), 12},
          {RangeWithExclusions(reversed, 0.0, 60.0), 12},
          {RangeWithExclusions(zeros, 0.0, 20.0), 10}};
}

TEST(FeaturizeAllocTest, SteadyStateFeaturizeIntoAllocatesNothing) {
  workload::ForestOptions fo;
  fo.num_rows = 2000;
  fo.num_attributes = 8;
  fo.seed = 5;
  const storage::Table forest = workload::MakeForestTable(fo);
  const FeatureSchema schema = FeatureSchema::FromTable(forest);

  common::Rng rng(31);
  std::vector<query::Query> queries = workload::GeneratePredicateWorkload(
      forest, 120, workload::ConjunctiveWorkloadOptions(6), rng);
  workload::PredicateGenOptions mixed = workload::MixedWorkloadOptions(6);
  mixed.in_list_prob = 0.2;
  for (query::Query& q :
       workload::GeneratePredicateWorkload(forest, 120, mixed, rng)) {
    queries.push_back(std::move(q));
  }
  for (auto& spill : SpillQueries()) {
    queries.push_back(std::move(spill.first));
  }

  for (const QftKind kind : {QftKind::kSimple, QftKind::kRange,
                             QftKind::kConjunctive, QftKind::kComplex}) {
    const std::unique_ptr<Featurizer> featurizer =
        MakeFeaturizer(kind, schema, ConjunctionOptions{});
    std::vector<float> row(static_cast<size_t>(featurizer->dim()));
    // Warm-up: per-thread buffers reach their size; unsupported queries
    // (disjunctions outside complex) are left out of the measured pass.
    std::vector<const query::Query*> supported;
    for (const query::Query& q : queries) {
      if (featurizer->FeaturizeInto(q, row.data()).ok()) {
        supported.push_back(&q);
      }
    }
    ASSERT_GT(supported.size(), queries.size() / 3) << featurizer->name();
    if (kind == QftKind::kComplex) {
      EXPECT_EQ(supported.size(), queries.size());
    }
    bool all_ok = true;
    const uint64_t allocations = AllocationsDuring([&] {
      for (const query::Query* q : supported) {
        all_ok = featurizer->FeaturizeInto(*q, row.data()).ok() && all_ok;
      }
    });
    EXPECT_TRUE(all_ok) << featurizer->name();
    EXPECT_EQ(allocations, 0u) << featurizer->name();
  }
}

// A clause past the inline capacity goes through the spill buffer; its
// selectivity entry must count each distinct in-range <> literal once
// (-0.0 and 0.0 are one value), whatever order the literals come in.
TEST(FeaturizeAllocTest, SpilledExclusionsMatchTheDistinctCount) {
  std::vector<double> a;
  for (int i = 0; i < 100; ++i) a.push_back(i);
  storage::Table table("forest");
  QFCARD_CHECK_OK(table.AddColumn(testutil::IntColumn("A1", a)));
  const FeatureSchema schema = FeatureSchema::FromTable(table);

  for (const QftKind kind : {QftKind::kConjunctive, QftKind::kComplex}) {
    const std::unique_ptr<Featurizer> featurizer =
        MakeFeaturizer(kind, schema, ConjunctionOptions{});
    // One attribute: its selectivity entry is the vector's last.
    const size_t sel_slot = static_cast<size_t>(featurizer->dim()) - 1;
    std::vector<std::vector<float>> rows;
    for (const auto& [q, excluded] : SpillQueries()) {
      std::vector<float>& row =
          rows.emplace_back(static_cast<size_t>(featurizer->dim()));
      ASSERT_TRUE(featurizer->FeaturizeInto(q, row.data()).ok());
      const auto& preds = q.predicates[0].disjuncts[0].preds;
      const double lo = preds[0].value;
      const double hi = preds[1].value;
      const double want =
          (hi - lo + 1.0 - excluded) / schema.attr(0).DomainSize();
      EXPECT_EQ(row[sel_slot], static_cast<float>(want))
          << featurizer->name() << " hi=" << hi;
    }
    EXPECT_EQ(rows[0], rows[1]) << featurizer->name();
  }
}

}  // namespace
}  // namespace qfcard::featurize
