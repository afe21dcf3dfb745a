#include <gtest/gtest.h>

#include <utility>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/table.h"

namespace gpl {
namespace {

TEST(DictionaryTest, InsertAssignsDenseCodes) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrInsert("ASIA"), 0);
  EXPECT_EQ(dict.GetOrInsert("EUROPE"), 1);
  EXPECT_EQ(dict.GetOrInsert("ASIA"), 0);  // idempotent
  EXPECT_EQ(dict.size(), 2);
}

TEST(DictionaryTest, LookupMissingReturnsMinusOne) {
  Dictionary dict;
  dict.GetOrInsert("ASIA");
  EXPECT_EQ(dict.Lookup("ASIA"), 0);
  EXPECT_EQ(dict.Lookup("MARS"), -1);
}

TEST(DictionaryTest, GetStringRoundTrips) {
  Dictionary dict;
  const int32_t code = dict.GetOrInsert("MIDDLE EAST");
  EXPECT_EQ(dict.GetString(code), "MIDDLE EAST");
}

TEST(ColumnTest, Int32AppendAndRead) {
  Column c(DataType::kInt32);
  c.AppendInt32(7);
  c.AppendInt32(-3);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.Int32At(0), 7);
  EXPECT_EQ(c.Int32At(1), -3);
  EXPECT_EQ(c.byte_size(), 8);
}

TEST(ColumnTest, TypeWidths) {
  EXPECT_EQ(TypeWidth(DataType::kInt32), 4);
  EXPECT_EQ(TypeWidth(DataType::kDate), 4);
  EXPECT_EQ(TypeWidth(DataType::kString), 4);
  EXPECT_EQ(TypeWidth(DataType::kInt64), 8);
  EXPECT_EQ(TypeWidth(DataType::kFloat64), 8);
}

TEST(ColumnTest, StringColumnUsesDictionary) {
  Column c(DataType::kString);
  c.AppendString("AIR");
  c.AppendString("RAIL");
  c.AppendString("AIR");
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.StringAt(0), "AIR");
  EXPECT_EQ(c.StringAt(2), "AIR");
  EXPECT_EQ(c.Int32At(0), c.Int32At(2));
  EXPECT_EQ(c.dictionary()->size(), 2);
}

TEST(ColumnTest, AsDoubleWidensEveryType) {
  Column i(DataType::kInt32);
  i.AppendInt32(5);
  EXPECT_DOUBLE_EQ(i.AsDouble(0), 5.0);

  Column l(DataType::kInt64);
  l.AppendInt64(1LL << 40);
  EXPECT_DOUBLE_EQ(l.AsDouble(0), static_cast<double>(1LL << 40));

  Column f(DataType::kFloat64);
  f.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(f.AsDouble(0), 2.5);
  EXPECT_EQ(f.AsInt64(0), 2);
}

TEST(ColumnTest, GatherSelectsAndReorders) {
  Column c(DataType::kInt32);
  for (int i = 0; i < 5; ++i) c.AppendInt32(i * 10);
  Column g = c.Gather({4, 0, 2});
  ASSERT_EQ(g.size(), 3);
  EXPECT_EQ(g.Int32At(0), 40);
  EXPECT_EQ(g.Int32At(1), 0);
  EXPECT_EQ(g.Int32At(2), 20);
}

TEST(ColumnTest, GatherPreservesDictionary) {
  Column c(DataType::kString);
  c.AppendString("A");
  c.AppendString("B");
  Column g = c.Gather({1});
  EXPECT_EQ(g.dictionary().get(), c.dictionary().get());
  EXPECT_EQ(g.StringAt(0), "B");
}

TEST(ColumnTest, SliceTakesRange) {
  Column c(DataType::kFloat64);
  for (int i = 0; i < 10; ++i) c.AppendDouble(i);
  Column s = c.Slice(3, 4);
  ASSERT_EQ(s.size(), 4);
  EXPECT_DOUBLE_EQ(s.DoubleAt(0), 3.0);
  EXPECT_DOUBLE_EQ(s.DoubleAt(3), 6.0);
}

TEST(ColumnTest, SliceSharesTheSourceBuffer) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 10; ++i) c.AppendInt64(i);
  const Column s = c.Slice(2, 6);
  EXPECT_EQ(s.data64().data(), std::as_const(c).data64().data() + 2);
  // A slice of a slice offsets into the same buffer.
  const Column t = s.Slice(1, 3);
  ASSERT_EQ(t.size(), 3);
  EXPECT_EQ(t.data64().data(), std::as_const(c).data64().data() + 3);
  EXPECT_EQ(t.Int64At(0), 3);
  EXPECT_EQ(t.Int64At(2), 5);
}

TEST(ColumnTest, WritesNeverReachAnotherColumnThroughAView) {
  Column c(DataType::kInt32);
  for (int i = 0; i < 8; ++i) c.AppendInt32(i);
  Column view = c.Slice(2, 3);
  // Writing through the view gives it its own copy of its three rows.
  view.data32()[0] = 100;
  view.AppendInt32(200);
  ASSERT_EQ(view.size(), 4);
  EXPECT_EQ(view.Int32At(0), 100);
  EXPECT_EQ(view.Int32At(1), 3);
  EXPECT_EQ(view.Int32At(3), 200);
  EXPECT_EQ(c.Int32At(2), 2);
  ASSERT_EQ(c.size(), 8);
  // Writing to the source while a view shares its buffer leaves the view
  // reading the old rows.
  const Column held = c.Slice(0, 4);
  c.data32()[1] = -1;
  c.AppendInt32(8);
  EXPECT_EQ(held.Int32At(1), 1);
  ASSERT_EQ(held.size(), 4);
  EXPECT_EQ(c.Int32At(1), -1);
  EXPECT_EQ(c.size(), 9);
}

TEST(ColumnTest, CopyOfAViewIsADeepCopyOfItsRows) {
  Column c(DataType::kFloat64);
  for (int i = 0; i < 6; ++i) c.AppendDouble(i);
  const Column view = c.Slice(4, 2);
  const Column copy = view;
  ASSERT_EQ(copy.size(), 2);
  EXPECT_NE(copy.dataf().data(), view.dataf().data());
  EXPECT_DOUBLE_EQ(copy.DoubleAt(1), 5.0);
  Column appended = c.Slice(1, 2);
  ASSERT_TRUE(appended.AppendColumn(view).ok());
  ASSERT_EQ(appended.size(), 4);
  EXPECT_DOUBLE_EQ(appended.DoubleAt(0), 1.0);
  EXPECT_DOUBLE_EQ(appended.DoubleAt(3), 5.0);
  EXPECT_EQ(c.size(), 6);
}

TEST(ColumnDeathTest, SliceOutOfRangeAborts) {
  Column c(DataType::kInt32);
  c.AppendInt32(1);
  EXPECT_DEATH(c.Slice(0, 2), "slice out of range");
}

TEST(ColumnTest, AppendColumnConcatenates) {
  Column a(DataType::kInt32), b(DataType::kInt32);
  a.AppendInt32(1);
  b.AppendInt32(2);
  ASSERT_TRUE(a.AppendColumn(b).ok());
  ASSERT_EQ(a.size(), 2);
  EXPECT_EQ(a.Int32At(1), 2);
}

TEST(ColumnTest, AppendColumnRejectsTypeMismatch) {
  Column a(DataType::kInt32), b(DataType::kFloat64);
  EXPECT_FALSE(a.AppendColumn(b).ok());
}

TEST(ColumnTest, AppendColumnRejectsForeignDictionary) {
  Column a(DataType::kString), b(DataType::kString);
  a.AppendString("X");
  b.AppendString("X");
  EXPECT_FALSE(a.AppendColumn(b).ok());  // distinct dictionaries
}

Table MakeTestTable() {
  Table t("orders_mini");
  Column key(DataType::kInt32), price(DataType::kFloat64);
  for (int i = 0; i < 6; ++i) {
    key.AppendInt32(i);
    price.AppendDouble(100.0 * i);
  }
  GPL_CHECK_OK(t.AddColumn("key", std::move(key)));
  GPL_CHECK_OK(t.AddColumn("price", std::move(price)));
  return t;
}

TEST(TableTest, BasicShape) {
  Table t = MakeTestTable();
  EXPECT_EQ(t.num_rows(), 6);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.row_width(), 12);
  EXPECT_EQ(t.byte_size(), 6 * 4 + 6 * 8);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t = MakeTestTable();
  EXPECT_EQ(t.AddColumn("key", Column(DataType::kInt32)).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, ColumnLookup) {
  Table t = MakeTestTable();
  EXPECT_TRUE(t.HasColumn("price"));
  EXPECT_FALSE(t.HasColumn("ghost"));
  EXPECT_EQ(t.ColumnIndex("price"), 1);
  EXPECT_EQ(t.ColumnIndex("ghost"), -1);
  EXPECT_DOUBLE_EQ(t.GetColumn("price").DoubleAt(2), 200.0);
}

TEST(TableDeathTest, MissingColumnAborts) {
  Table t = MakeTestTable();
  EXPECT_DEATH(t.GetColumn("ghost"), "no such column");
}

TEST(TableTest, SliceAllColumns) {
  Table t = MakeTestTable();
  Table s = t.Slice(2, 3);
  EXPECT_EQ(s.num_rows(), 3);
  EXPECT_EQ(s.GetColumn("key").Int32At(0), 2);
  EXPECT_DOUBLE_EQ(s.GetColumn("price").DoubleAt(2), 400.0);
}

TEST(TableTest, GatherAllColumns) {
  Table t = MakeTestTable();
  Table g = t.Gather({5, 1});
  EXPECT_EQ(g.num_rows(), 2);
  EXPECT_EQ(g.GetColumn("key").Int32At(0), 5);
  EXPECT_DOUBLE_EQ(g.GetColumn("price").DoubleAt(1), 100.0);
}

TEST(TableTest, AppendTableSameSchema) {
  Table a = MakeTestTable();
  Table b = MakeTestTable();
  ASSERT_TRUE(a.AppendTable(b).ok());
  EXPECT_EQ(a.num_rows(), 12);
  EXPECT_TRUE(a.Validate().ok());
}

TEST(TableTest, AppendTableRejectsSchemaMismatch) {
  Table a = MakeTestTable();
  Table b("other");
  GPL_CHECK_OK(b.AddColumn("key", Column(DataType::kInt32)));
  EXPECT_FALSE(a.AppendTable(b).ok());
}

TEST(TableTest, ValidateDetectsRaggedColumns) {
  Table t("ragged");
  Column a(DataType::kInt32), b(DataType::kInt32);
  a.AppendInt32(1);
  GPL_CHECK_OK(t.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(t.AddColumn("b", std::move(b)));
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, ToStringRendersHeaderAndRows) {
  Table t = MakeTestTable();
  const std::string s = t.ToString(2);
  EXPECT_NE(s.find("orders_mini"), std::string::npos);
  EXPECT_NE(s.find("key | price"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

}  // namespace
}  // namespace gpl
