#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/csv.h"
#include "storage/table.h"

namespace qfcard::storage {
namespace {

Column MakeIntColumn(const std::string& name, std::vector<double> values) {
  Column col(name, ColumnType::kInt64);
  col.AppendBatch(values);
  return col;
}

TEST(DictionaryTest, CodesRespectLexicographicOrder) {
  Dictionary dict = Dictionary::FromValues({"cherry", "apple", "banana", "apple"});
  EXPECT_EQ(dict.size(), 3);
  ASSERT_TRUE(dict.Code("apple").ok());
  EXPECT_EQ(dict.Code("apple").value(), 0);
  EXPECT_EQ(dict.Code("banana").value(), 1);
  EXPECT_EQ(dict.Code("cherry").value(), 2);
  EXPECT_EQ(dict.Value(1), "banana");
}

TEST(DictionaryTest, MissingValueIsNotFound) {
  Dictionary dict = Dictionary::FromValues({"a", "b"});
  EXPECT_EQ(dict.Code("zzz").status().code(), common::StatusCode::kNotFound);
}

TEST(DictionaryTest, LowerBoundCode) {
  Dictionary dict = Dictionary::FromValues({"b", "d", "f"});
  EXPECT_EQ(dict.LowerBoundCode("a"), 0);
  EXPECT_EQ(dict.LowerBoundCode("b"), 0);
  EXPECT_EQ(dict.LowerBoundCode("c"), 1);
  EXPECT_EQ(dict.LowerBoundCode("f"), 2);
  EXPECT_EQ(dict.LowerBoundCode("z"), 3);
}

TEST(DictionaryTest, PrefixCodeRangeCoversExactlyThePrefixedValues) {
  Dictionary dict = Dictionary::FromValues(
      {"alpha", "alpine", "alto", "beta", "betray", "gamma"});
  // "al" covers alpha/alpine/alto: [0, 3).
  PrefixRange al = dict.PrefixCodeRange("al");
  EXPECT_EQ(al.lo, 0);
  ASSERT_TRUE(al.bounded);
  EXPECT_EQ(al.hi, 3);
  // "bet" covers beta/betray: [3, 5).
  PrefixRange bet = dict.PrefixCodeRange("bet");
  EXPECT_EQ(bet.lo, 3);
  ASSERT_TRUE(bet.bounded);
  EXPECT_EQ(bet.hi, 5);
  // A full value is its own prefix: [5, 6).
  PrefixRange gamma = dict.PrefixCodeRange("gamma");
  EXPECT_EQ(gamma.lo, 5);
  ASSERT_TRUE(gamma.bounded);
  EXPECT_EQ(gamma.hi, 6);
  // No value starts with "z": an empty interval past the end.
  PrefixRange z = dict.PrefixCodeRange("z");
  EXPECT_EQ(z.lo, 6);
  ASSERT_TRUE(z.bounded);
  EXPECT_EQ(z.hi, 6);
}

TEST(DictionaryTest, PrefixCodeRangeEmptyPrefixMatchesEverything) {
  Dictionary dict = Dictionary::FromValues({"a", "b", "c"});
  const PrefixRange all = dict.PrefixCodeRange("");
  EXPECT_EQ(all.lo, 0);
  // "" has no lexicographic successor, so the range is unbounded above.
  EXPECT_FALSE(all.bounded);
}

TEST(DictionaryTest, PrefixCodeRangeSkipsUnincrementableBytes) {
  // A prefix ending in 0xFF has no same-length successor; the successor is
  // computed by incrementing the last incrementable byte ("a\xff" -> "b").
  Dictionary dict = Dictionary::FromValues({"a", "a\xff z", "b", "c"});
  const PrefixRange range = dict.PrefixCodeRange("a\xff");
  EXPECT_EQ(range.lo, 1);
  ASSERT_TRUE(range.bounded);
  EXPECT_EQ(range.hi, 2);  // successor "b"
  // An all-0xFF prefix cannot be incremented at all: unbounded.
  const PrefixRange top = dict.PrefixCodeRange("\xff\xff");
  EXPECT_FALSE(top.bounded);
  EXPECT_EQ(top.lo, 4);
}

TEST(ColumnTest, StatsComputedAndCached) {
  Column col = MakeIntColumn("a", {5, 1, 9, 5, 3});
  const ColumnStats& stats = col.GetStats();
  EXPECT_EQ(stats.min, 1);
  EXPECT_EQ(stats.max, 9);
  EXPECT_EQ(stats.distinct, 4);
  EXPECT_EQ(stats.rows, 5);
}

TEST(ColumnTest, StatsRefreshAfterAppend) {
  Column col = MakeIntColumn("a", {1, 2});
  EXPECT_EQ(col.GetStats().max, 2);
  col.Append(10);
  EXPECT_EQ(col.GetStats().max, 10);
  EXPECT_EQ(col.GetStats().rows, 3);
}

TEST(ColumnTest, StatsCountEachDistinctValueInAscendingOrder) {
  Column col = MakeIntColumn("a", {5, 1, 9, 5, 3, 5, 1});
  const ColumnStats& stats = col.GetStats();
  EXPECT_EQ(stats.values, (std::vector<double>{1, 3, 5, 9}));
  EXPECT_EQ(stats.counts, (std::vector<int64_t>{2, 1, 3, 1}));
  EXPECT_EQ(stats.distinct, 4);
  EXPECT_EQ(stats.nan_rows, 0);
}

TEST(ColumnTest, RankValuesWalkTheSortedRows) {
  // Sorted rows: 1 1 3 5 5 5 9 (n = 7, ranks floor(k / parts * 6)).
  Column col = MakeIntColumn("a", {5, 1, 9, 5, 3, 5, 1});
  const ColumnStats& stats = col.GetStats();
  EXPECT_EQ(stats.RankValues(1), (std::vector<double>{1, 9}));
  EXPECT_EQ(stats.RankValues(2), (std::vector<double>{1, 5, 9}));
  EXPECT_EQ(stats.RankValues(3), (std::vector<double>{1, 3, 5, 9}));
  EXPECT_EQ(stats.RankValues(6), (std::vector<double>{1, 1, 3, 5, 5, 5, 9}));
  Column empty("e", ColumnType::kInt64);
  EXPECT_TRUE(empty.GetStats().RankValues(4).empty());
}

TEST(ColumnTest, SignedZerosAreOneValueLedByTheFirstInRowOrder) {
  Column col("z", ColumnType::kFloat64);
  col.AppendBatch({1.0, 0.0, -0.0, 0.0, -1.0});
  const ColumnStats& stats = col.GetStats();
  ASSERT_EQ(stats.values.size(), 3u);
  EXPECT_EQ(stats.counts, (std::vector<int64_t>{1, 3, 1}));
  EXPECT_FALSE(std::signbit(stats.values[1]));
  Column neg("z", ColumnType::kFloat64);
  neg.AppendBatch({-0.0, 0.0, 2.0});
  EXPECT_TRUE(std::signbit(neg.GetStats().values[0]));
  EXPECT_TRUE(std::signbit(neg.GetStats().min));  // as a row-order fold gives
}

TEST(ColumnTest, NanRowsHoldNoValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column col("f", ColumnType::kFloat64);
  col.AppendBatch({nan, 2.5, nan, -1.0, 2.5});
  const ColumnStats& stats = col.GetStats();
  EXPECT_EQ(stats.rows, 5);
  EXPECT_EQ(stats.nan_rows, 2);
  EXPECT_EQ(stats.distinct, 2);
  EXPECT_EQ(stats.min, -1.0);
  EXPECT_EQ(stats.max, 2.5);
  EXPECT_EQ(stats.values, (std::vector<double>{-1.0, 2.5}));
  EXPECT_EQ(stats.counts, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(stats.RankValues(2), (std::vector<double>{-1.0, 2.5, 2.5}));

  Column all_nan("n", ColumnType::kFloat64);
  all_nan.AppendBatch({nan, nan});
  const ColumnStats& none = all_nan.GetStats();
  EXPECT_EQ(none.rows, 2);
  EXPECT_EQ(none.nan_rows, 2);
  EXPECT_EQ(none.distinct, 0);
  EXPECT_EQ(none.min, 0.0);
  EXPECT_EQ(none.max, 0.0);
  EXPECT_TRUE(none.values.empty());
  EXPECT_TRUE(none.RankValues(3).empty());
}

TEST(ColumnTest, IntegralityByType) {
  EXPECT_TRUE(Column("a", ColumnType::kInt64).integral());
  EXPECT_TRUE(Column("a", ColumnType::kDictString).integral());
  EXPECT_FALSE(Column("a", ColumnType::kFloat64).integral());
}

TEST(ColumnTest, EmptyColumnStats) {
  Column col("a", ColumnType::kInt64);
  const ColumnStats& stats = col.GetStats();
  EXPECT_EQ(stats.rows, 0);
  EXPECT_EQ(stats.distinct, 0);
}

TEST(TableTest, AddAndLookupColumns) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("a", {1, 2})).ok());
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("b", {3, 4})).ok());
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.num_rows(), 2);
  ASSERT_TRUE(t.ColumnIndex("b").ok());
  EXPECT_EQ(t.ColumnIndex("b").value(), 1);
  EXPECT_EQ(t.ColumnIndex("zz").status().code(), common::StatusCode::kNotFound);
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("a", {1})).ok());
  EXPECT_EQ(t.AddColumn(MakeIntColumn("a", {2})).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(TableTest, ValidateCatchesRaggedColumns) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("a", {1, 2})).ok());
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("b", {3})).ok());
  EXPECT_EQ(t.Validate().code(), common::StatusCode::kFailedPrecondition);
}

TEST(CatalogTest, AddAndResolve) {
  Catalog cat;
  Table t("orders");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("a", {1})).ok());
  ASSERT_TRUE(cat.AddTable(std::move(t)).ok());
  EXPECT_EQ(cat.num_tables(), 1);
  ASSERT_TRUE(cat.GetTable("orders").ok());
  EXPECT_EQ(cat.TableIndex("orders").value(), 0);
  EXPECT_EQ(cat.GetTable("nope").status().code(),
            common::StatusCode::kNotFound);
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog cat;
  Table t1("t");
  ASSERT_TRUE(cat.AddTable(std::move(t1)).ok());
  Table t2("t");
  EXPECT_EQ(cat.AddTable(std::move(t2)).code(),
            common::StatusCode::kInvalidArgument);
}

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath() {
    return (std::filesystem::temp_directory_path() /
            ("qfcard_csv_test_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)) + ".csv"))
        .string();
  }
  void TearDown() override { std::remove(TempPath().c_str()); }
};

TEST_F(CsvTest, RoundTripTypedColumns) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("ints", {1, -2, 3})).ok());
  Column floats("floats", ColumnType::kFloat64);
  floats.AppendBatch({1.5, 2.25, -0.5});
  ASSERT_TRUE(t.AddColumn(std::move(floats)).ok());
  Dictionary dict = Dictionary::FromValues({"x", "y", "z"});
  Column strings("strings", ColumnType::kDictString);
  strings.Append(static_cast<double>(dict.Code("y").value()));
  strings.Append(static_cast<double>(dict.Code("x").value()));
  strings.Append(static_cast<double>(dict.Code("z").value()));
  strings.SetDictionary(std::move(dict));
  ASSERT_TRUE(t.AddColumn(std::move(strings)).ok());

  ASSERT_TRUE(WriteCsv(t, TempPath()).ok());
  const auto loaded_or = ReadCsv(TempPath(), "t2");
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const Table& loaded = loaded_or.value();
  EXPECT_EQ(loaded.num_rows(), 3);
  EXPECT_EQ(loaded.column(0).type(), ColumnType::kInt64);
  EXPECT_EQ(loaded.column(1).type(), ColumnType::kFloat64);
  EXPECT_EQ(loaded.column(2).type(), ColumnType::kDictString);
  EXPECT_EQ(loaded.column(0).Get(1), -2);
  EXPECT_DOUBLE_EQ(loaded.column(1).Get(2), -0.5);
  EXPECT_EQ(loaded.column(2).dictionary().Value(
                static_cast<int64_t>(loaded.column(2).Get(0))),
            "y");
}

// strtod accepts "nan", so a float column can load NaN cells; they reach
// the stats as rows without a value.
TEST_F(CsvTest, NanCellsLoadAsRowsWithoutAValue) {
  {
    std::ofstream out(TempPath());
    out << "x\n1.5\nnan\n-2.25\nNaN\n1.5\n";
  }
  const auto loaded_or = ReadCsv(TempPath(), "t");
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const Column& col = loaded_or.value().column(0);
  EXPECT_EQ(col.type(), ColumnType::kFloat64);
  EXPECT_TRUE(std::isnan(col.Get(1)));
  const ColumnStats& stats = col.GetStats();
  EXPECT_EQ(stats.rows, 5);
  EXPECT_EQ(stats.nan_rows, 2);
  EXPECT_EQ(stats.values, (std::vector<double>{-2.25, 1.5}));
  EXPECT_EQ(stats.counts, (std::vector<int64_t>{1, 2}));
}

TEST_F(CsvTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadCsv("/nonexistent/nope.csv", "t").status().code(),
            common::StatusCode::kNotFound);
}

}  // namespace
}  // namespace qfcard::storage
