#include <algorithm>
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "engine/engine.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "test_util.h"
#include "tpch/date.h"

namespace gpl {
namespace {

using testing_util::MediumDb;
using testing_util::SmallDb;

Table RunOnReference(const tpch::Database& db, const LogicalQuery& query) {
  Engine planner(&db, EngineOptions{});
  Result<PhysicalOpPtr> plan = planner.Plan(query);
  GPL_CHECK(plan.ok()) << plan.status().ToString();
  Result<Table> out = ref::ExecutePlan(db, *plan);
  GPL_CHECK(out.ok()) << out.status().ToString();
  return out.take();
}

TEST(ExtendedSuiteTest, HasSixQueries) {
  auto suite = queries::ExtendedSuite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0].first, "Q1");
  EXPECT_EQ(suite[5].first, "Q19");
}

const char* const kQueryNames[] = {"Q1", "Q3", "Q6", "Q10", "Q12", "Q19"};

class ExtendedAllModesTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, int>> {};

TEST_P(ExtendedAllModesTest, ResultsMatchCpuReference) {
  const auto [mode, query_index] = GetParam();
  auto suite = queries::ExtendedSuite();
  const auto& [name, query] = suite[static_cast<size_t>(query_index)];

  Engine planner(&SmallDb(), EngineOptions{});
  Result<PhysicalOpPtr> plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok()) << name;
  Result<Table> expected = ref::ExecutePlan(SmallDb(), *plan);
  ASSERT_TRUE(expected.ok()) << name;

  EngineOptions options;
  options.mode = mode;
  Engine engine(&SmallDb(), options);
  Result<QueryResult> result = engine.Execute(query);
  ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  std::string diff;
  EXPECT_TRUE(ref::TablesEqual(result->table, *expected, &diff))
      << EngineModeName(mode) << " on " << name << ": " << diff;
}

std::string ExtendedTestName(
    const ::testing::TestParamInfo<ExtendedAllModesTest::ParamType>& info) {
  std::string mode = EngineModeName(std::get<0>(info.param));
  for (char& c : mode) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return mode + "_" + kQueryNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndQueries, ExtendedAllModesTest,
    ::testing::Combine(::testing::Values(EngineMode::kKbe, EngineMode::kGplNoCe,
                                         EngineMode::kGpl, EngineMode::kOcelot,
                                         EngineMode::kFused),
                       ::testing::Values(0, 1, 2, 3, 4, 5)),
    ExtendedTestName);

// Sharded gpl runs (partial-aggregate pushdown, exchange, merge) at every
// host thread count must reproduce the single-device KBE table bit for bit.
class ExtendedShardedTest : public ::testing::TestWithParam<int> {};

TEST_P(ExtendedShardedTest, MatchesKbeBitForBit) {
  auto suite = queries::ExtendedSuite();
  const auto& [name, query] = suite[static_cast<size_t>(GetParam())];
  EngineOptions kbe_options;
  kbe_options.mode = EngineMode::kKbe;
  Engine kbe(&SmallDb(), kbe_options);
  Result<QueryResult> oracle = kbe.Execute(query);
  ASSERT_TRUE(oracle.ok()) << name << ": " << oracle.status().ToString();
  for (int shards : {3, 4}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(name + " shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      EngineOptions options;
      options.mode = EngineMode::kGpl;
      options.exec.shards = shards;
      options.exec.host_threads = threads;
      Engine engine(&SmallDb(), options);
      Result<QueryResult> result = engine.Execute(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const Table& expected = oracle->table;
      const Table& actual = result->table;
      ASSERT_EQ(expected.num_columns(), actual.num_columns());
      ASSERT_EQ(expected.num_rows(), actual.num_rows());
      for (int64_t c = 0; c < expected.num_columns(); ++c) {
        EXPECT_EQ(expected.ColumnNameAt(c), actual.ColumnNameAt(c));
        const Column& e = expected.ColumnAt(c);
        const Column& a = actual.ColumnAt(c);
        ASSERT_EQ(e.type(), a.type()) << expected.ColumnNameAt(c);
        EXPECT_TRUE(std::ranges::equal(e.data32(), a.data32())) << expected.ColumnNameAt(c);
        EXPECT_TRUE(std::ranges::equal(e.data64(), a.data64())) << expected.ColumnNameAt(c);
        EXPECT_TRUE(std::ranges::equal(e.dataf(), a.dataf())) << expected.ColumnNameAt(c);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, ExtendedShardedTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kQueryNames[info.param]);
                         });

TEST(ExtendedSuiteTest, GplBeatsKbeOnEveryExtendedQuery) {
  for (auto& [name, query] : queries::ExtendedSuite()) {
    EngineOptions kbe_options;
    kbe_options.mode = EngineMode::kKbe;
    Engine kbe(&MediumDb(), kbe_options);
    EngineOptions gpl_options;
    gpl_options.mode = EngineMode::kGpl;
    Engine gpl_engine(&MediumDb(), gpl_options);
    Result<QueryResult> k = kbe.Execute(query);
    Result<QueryResult> g = gpl_engine.Execute(query);
    ASSERT_TRUE(k.ok() && g.ok()) << name;
    EXPECT_LT(g->metrics.elapsed_ms, k->metrics.elapsed_ms) << name;
  }
}

// ---- Per-query result sanity ----

TEST(Q1Test, GroupsAreFlagStatusCombinations) {
  Table out = RunOnReference(MediumDb(), queries::Q1());
  // Flags: A/N/R; statuses: F/O. N pairs only with O after the cutoff
  // filter and A/R only with F: at most 4 combinations.
  ASSERT_GE(out.num_rows(), 3);
  ASSERT_LE(out.num_rows(), 6);
  const Column& flag = out.GetColumn("l_returnflag");
  const Column& qty = out.GetColumn("sum_qty");
  const Column& avg_disc = out.GetColumn("avg_disc");
  const Column& count = out.GetColumn("count_order");
  int64_t total = 0;
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    const std::string& f = flag.StringAt(i);
    EXPECT_TRUE(f == "A" || f == "N" || f == "R") << f;
    EXPECT_GT(qty.DoubleAt(i), 0.0);
    EXPECT_GE(avg_disc.DoubleAt(i), 0.0);
    EXPECT_LE(avg_disc.DoubleAt(i), 0.10 + 1e-9);
    total += count.Int64At(i);
  }
  // Nearly all lineitems ship before 1998-09-02.
  EXPECT_GT(total, MediumDb().lineitem.num_rows() * 9 / 10);
}

TEST(Q1Test, AverageConsistentWithSumAndCount) {
  Table out = RunOnReference(MediumDb(), queries::Q1());
  const Column& sum = out.GetColumn("sum_qty");
  const Column& avg = out.GetColumn("avg_qty");
  const Column& count = out.GetColumn("count_order");
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_NEAR(avg.DoubleAt(i),
                sum.DoubleAt(i) / static_cast<double>(count.Int64At(i)), 1e-9);
  }
}

TEST(Q3Test, RevenueSortedDescending) {
  Table out = RunOnReference(MediumDb(), queries::Q3());
  ASSERT_GT(out.num_rows(), 0);
  const Column& revenue = out.GetColumn("revenue");
  for (int64_t i = 1; i < out.num_rows(); ++i) {
    EXPECT_GE(revenue.DoubleAt(i - 1), revenue.DoubleAt(i));
  }
  const Column& prio = out.GetColumn("o_shippriority");
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_EQ(prio.Int32At(i), 0);  // constant per spec
  }
}

TEST(Q3Test, OrderKeysAreUnique) {
  Table out = RunOnReference(MediumDb(), queries::Q3());
  std::set<int32_t> keys;
  const Column& okey = out.GetColumn("l_orderkey");
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_TRUE(keys.insert(okey.Int32At(i)).second)
        << "duplicate group for order " << okey.Int32At(i);
  }
}

TEST(Q6Test, MatchesManualScan) {
  const tpch::Database& db = SmallDb();
  Table out = RunOnReference(db, queries::Q6());
  ASSERT_EQ(out.num_rows(), 1);

  const Column& price = db.lineitem.GetColumn("l_extendedprice");
  const Column& disc = db.lineitem.GetColumn("l_discount");
  const Column& qty = db.lineitem.GetColumn("l_quantity");
  const Column& ship = db.lineitem.GetColumn("l_shipdate");
  const int32_t lo = date::FromYMD(1994, 1, 1);
  const int32_t hi = date::FromYMD(1995, 1, 1);
  double expected = 0.0;
  for (int64_t i = 0; i < price.size(); ++i) {
    if (ship.Int32At(i) >= lo && ship.Int32At(i) < hi &&
        disc.DoubleAt(i) >= 0.0499 && disc.DoubleAt(i) <= 0.0701 &&
        qty.DoubleAt(i) < 24.0) {
      expected += price.DoubleAt(i) * disc.DoubleAt(i);
    }
  }
  EXPECT_GT(expected, 0.0);
  EXPECT_NEAR(out.GetColumn("revenue").DoubleAt(0), expected, 1e-6 * expected);
}

TEST(Q10Test, EveryCustomerAppearsOnce) {
  Table out = RunOnReference(MediumDb(), queries::Q10());
  ASSERT_GT(out.num_rows(), 0);
  std::set<int32_t> customers;
  const Column& cust = out.GetColumn("c_custkey");
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_TRUE(customers.insert(cust.Int32At(i)).second);
  }
  const Column& revenue = out.GetColumn("revenue");
  for (int64_t i = 1; i < out.num_rows(); ++i) {
    EXPECT_GE(revenue.DoubleAt(i - 1), revenue.DoubleAt(i));
  }
}

TEST(Q12Test, ExactlyTwoShipModesWithPlausibleSplit) {
  Table out = RunOnReference(MediumDb(), queries::Q12());
  ASSERT_EQ(out.num_rows(), 2);
  const Column& mode = out.GetColumn("l_shipmode");
  EXPECT_EQ(mode.StringAt(0), "MAIL");  // sorted ascending
  EXPECT_EQ(mode.StringAt(1), "SHIP");
  const Column& high = out.GetColumn("high_line_count");
  const Column& low = out.GetColumn("low_line_count");
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_GT(high.DoubleAt(i) + low.DoubleAt(i), 0.0);
    // Priorities are uniform over five values, two of which are "high":
    // expect the high share near 40%.
    const double share =
        high.DoubleAt(i) / (high.DoubleAt(i) + low.DoubleAt(i));
    EXPECT_NEAR(share, 0.4, 0.1);
  }
}

TEST(Q19Test, RevenuePositiveAndBranchesFilter) {
  Table out = RunOnReference(MediumDb(), queries::Q19());
  ASSERT_EQ(out.num_rows(), 1);
  const double revenue = out.GetColumn("revenue").DoubleAt(0);
  EXPECT_GT(revenue, 0.0);

  // The disjunctive filter must be far more selective than the pushed-down
  // lineitem prefilter alone.
  const LogicalQuery q = queries::Q19();
  Column pre = q.relations[0].filter->Evaluate(MediumDb().lineitem);
  int64_t prefiltered = 0;
  for (int64_t i = 0; i < pre.size(); ++i) prefiltered += pre.Int32At(i);
  EXPECT_GT(prefiltered, 0);
}

}  // namespace
}  // namespace gpl
