#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "common/ring.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"
#include "gtest/gtest.h"

namespace qfcard::common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, WorksWithMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

StatusOr<int> HalveIfEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  QFCARD_ASSIGN_OR_RETURN(const int half, HalveIfEven(x));
  *out = half;
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseAssignOrReturn(3, &out).code(), StatusCode::kInvalidArgument);
}

TEST(StatusDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(QFCARD_CHECK_OK(Status::Internal("boom")), "boom");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ZipfBoundsAndSkew) {
  Rng rng(15);
  int64_t ones = 0;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.Zipf(10, 1.2);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 10);
    if (v == 1) ++ones;
  }
  // With s=1.2 the head value dominates.
  EXPECT_GT(ones, 5000 / 4);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(16);
  int64_t ones = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Zipf(10, 0.0) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.1, 0.02);
}

TEST(RngTest, ZipfTableSwitchesBetweenConfigs) {
  // The inverse-CDF table is cached per (n, s); alternating configurations
  // must still produce in-range draws.
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    const int64_t a = rng.Zipf(5, 1.0);
    ASSERT_GE(a, 1);
    ASSERT_LE(a, 5);
    const int64_t b = rng.Zipf(50, 0.5);
    ASSERT_GE(b, 1);
    ASSERT_LE(b, 50);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const std::vector<int> sample = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  const std::set<int> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (const int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(EnvTest, ScalePickDefault) {
  // QFCARD_SCALE is unset in the test environment.
  if (std::getenv("QFCARD_SCALE") == nullptr) {
    EXPECT_EQ(ScalePick(1, 2, 3), 2);
  }
}

TEST(EnvTest, GetEnvIntFallsBack) {
  EXPECT_EQ(GetEnvInt("QFCARD_NONEXISTENT_VAR_12345", 77), 77);
}

TEST(StrUtilTest, Split) {
  const std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StrUtilTest, SplitEmpty) {
  const std::vector<std::string> parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StrUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("  "), "");
}

TEST(StrUtilTest, ToLowerAndEqualsIgnoreCase) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "wher"));
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StatsTest, QuantileSorted) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(QuantileSorted({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(QuantileSorted({}, 0.5), 0.0);
}

TEST(StatsTest, QuantilesSortsOnceAndMatchesQuantileSorted) {
  const std::vector<double> sorted{1, 2, 3, 4, 5};
  const std::vector<double> q = Quantiles({5, 1, 4, 2, 3}, {0.5, 0.95, 0.25});
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0], QuantileSorted(sorted, 0.5));
  EXPECT_EQ(q[1], QuantileSorted(sorted, 0.95));
  EXPECT_EQ(q[2], QuantileSorted(sorted, 0.25));
  EXPECT_EQ(Quantiles({}, {0.95})[0], 0.0);
}

TEST(RingTest, FillsBelowCapacityInPushOrder) {
  Ring<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_FALSE(ring.Push(1).has_value());
  EXPECT_FALSE(ring.Push(2).has_value());
  EXPECT_FALSE(ring.Push(3).has_value());
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{1, 2, 3}));
}

TEST(RingTest, SnapshotIsOldestFirstAfterWrap) {
  Ring<int> ring(3);
  for (int i = 1; i <= 5; ++i) ring.Push(i);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{3, 4, 5}));
  // A whole number of wraps lands back on slot order.
  ring.Push(6);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{4, 5, 6}));
}

TEST(RingTest, PushReturnsEvictedExactlyWhenFull) {
  Ring<std::string> ring(2);
  EXPECT_FALSE(ring.Push("a").has_value());
  EXPECT_FALSE(ring.Push("b").has_value());
  const std::optional<std::string> first = ring.Push("c");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "a");
  const std::optional<std::string> second = ring.Push("d");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "b");
  EXPECT_EQ(ring.Snapshot(), (std::vector<std::string>{"c", "d"}));
}

TEST(RingTest, PushedCountsEveryPushSizeStaysBounded) {
  Ring<int> ring(3);
  for (int i = 0; i < 10; ++i) {
    ring.Push(i);
    EXPECT_EQ(ring.pushed(), static_cast<uint64_t>(i + 1));
    EXPECT_EQ(ring.size(), std::min<size_t>(static_cast<size_t>(i + 1), 3));
  }
  EXPECT_EQ(ring.pushed() - ring.size(), 7u);  // evicted so far
}

TEST(RingTest, ZeroCapacityClampsToOne) {
  Ring<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_FALSE(ring.Push(1).has_value());
  EXPECT_EQ(ring.Push(2).value(), 1);
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{2}));
  ring.Reset(0);
  EXPECT_EQ(ring.capacity(), 1u);
}

TEST(RingTest, ResetClearsAndResizes) {
  Ring<int> ring(2);
  for (int i = 0; i < 5; ++i) ring.Push(i);
  ring.Reset(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  for (int i = 10; i < 14; ++i) EXPECT_FALSE(ring.Push(i).has_value());
  EXPECT_EQ(ring.Snapshot(), (std::vector<int>{10, 11, 12, 13}));
  EXPECT_EQ(ring.Push(14).value(), 10);
}

}  // namespace
}  // namespace qfcard::common
