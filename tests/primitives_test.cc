#include <algorithm>
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>

#include "common/random.h"
#include "exec/primitives.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::FloatTable;
using testing_util::Int32Table;

TEST(FilterKernelTest, KeepsMatchingRows) {
  KernelPtr k = MakeFilterKernel(Lt(Col("x"), LitInt(3)));
  Result<Table> out = k->Process(Int32Table("x", {5, 1, 2, 9, 0}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3);
  EXPECT_EQ(out->GetColumn("x").Int32At(0), 1);
  EXPECT_EQ(out->GetColumn("x").Int32At(2), 0);
  EXPECT_FALSE(k->blocking());
  EXPECT_EQ(k->name(), "k_map");
}

TEST(FilterKernelTest, EmptyWhenNothingMatches) {
  KernelPtr k = MakeFilterKernel(Gt(Col("x"), LitInt(100)));
  Result<Table> out = k->Process(Int32Table("x", {1, 2, 3}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0);
  EXPECT_EQ(out->num_columns(), 1);  // schema preserved
}

TEST(ProjectKernelTest, ComputesDerivedColumns) {
  KernelPtr k = MakeProjectKernel(
      {{"double_x", Mul(Col("x"), LitInt(2))}, {"x", Col("x")}});
  Result<Table> out = k->Process(Int32Table("x", {1, 2}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_columns(), 2);
  EXPECT_EQ(out->GetColumn("double_x").Int64At(1), 4);
  EXPECT_EQ(out->GetColumn("x").Int32At(1), 2);
}

TEST(HashBuildProbeTest, JoinAcrossKernels) {
  auto state = std::make_shared<HashJoinState>();
  KernelPtr build = MakeHashBuildKernel({Col("bk")}, state);
  EXPECT_TRUE(build->blocking());

  Table build_side("b");
  Column bk(DataType::kInt32), payload(DataType::kFloat64);
  for (int i = 0; i < 4; ++i) {
    bk.AppendInt32(i);
    payload.AppendDouble(i * 10.0);
  }
  GPL_CHECK_OK(build_side.AddColumn("bk", std::move(bk)));
  GPL_CHECK_OK(build_side.AddColumn("payload", std::move(payload)));
  ASSERT_TRUE(build->Process(build_side).ok());
  EXPECT_EQ(state->table.num_entries(), 4);
  EXPECT_GT(build->timing().random_working_set_bytes, 0);

  KernelPtr probe = MakeHashProbeKernel({Col("pk")}, state, {"payload"});
  Result<Table> out = probe->Process(Int32Table("pk", {2, 2, 5, 0}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3);  // 2, 2, 0 match; 5 does not
  EXPECT_DOUBLE_EQ(out->GetColumn("payload").DoubleAt(0), 20.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("payload").DoubleAt(2), 0.0);
}

TEST(HashBuildProbeTest, TileWiseBuildAccumulates) {
  auto state = std::make_shared<HashJoinState>();
  KernelPtr build = MakeHashBuildKernel({Col("bk")}, state);
  ASSERT_TRUE(build->Process(Int32Table("bk", {1, 2})).ok());
  ASSERT_TRUE(build->Process(Int32Table("bk", {3})).ok());
  EXPECT_EQ(state->table.num_entries(), 3);
  EXPECT_EQ(state->build_rows.num_rows(), 3);

  KernelPtr probe = MakeHashProbeKernel({Col("pk")}, state, {"bk"});
  Result<Table> out = probe->Process(Int32Table("pk", {3}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetColumn("bk").Int32At(0), 3);
}

TEST(HashBuildProbeTest, CompositeKeys) {
  auto state = std::make_shared<HashJoinState>();
  Table build_side("b");
  Column a(DataType::kInt32), b(DataType::kInt32);
  a.AppendInt32(1);
  b.AppendInt32(2);
  a.AppendInt32(1);
  b.AppendInt32(3);
  GPL_CHECK_OK(build_side.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(build_side.AddColumn("b", std::move(b)));
  KernelPtr build = MakeHashBuildKernel({Col("a"), Col("b")}, state);
  ASSERT_TRUE(build->Process(build_side).ok());

  Table probe_side("p");
  Column pa(DataType::kInt32), pb(DataType::kInt32);
  pa.AppendInt32(1);
  pb.AppendInt32(3);  // matches second entry only
  pa.AppendInt32(2);
  pb.AppendInt32(2);  // no match (a differs)
  GPL_CHECK_OK(probe_side.AddColumn("pa", std::move(pa)));
  GPL_CHECK_OK(probe_side.AddColumn("pb", std::move(pb)));
  KernelPtr probe =
      MakeHashProbeKernel({Col("pa"), Col("pb")}, state, {"b"});
  Result<Table> out = probe->Process(probe_side);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetColumn("b").Int32At(0), 3);
}

TEST(HashBuildTest, ResetClearsSharedState) {
  auto state = std::make_shared<HashJoinState>();
  KernelPtr build = MakeHashBuildKernel({Col("bk")}, state);
  ASSERT_TRUE(build->Process(Int32Table("bk", {1})).ok());
  build->Reset();
  EXPECT_EQ(state->table.num_entries(), 0);
  EXPECT_FALSE(state->build_rows_initialized);
}

TEST(AggregateKernelTest, GlobalSumWithheldUntilFinish) {
  KernelPtr agg = MakeAggregateKernel({}, {{AggSpec::kSum, Col("v"), "total"}});
  Result<Table> mid = agg->Process(FloatTable("v", {1.0, 2.0}));
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->num_columns(), 0);  // withheld
  ASSERT_TRUE(agg->Process(FloatTable("v", {3.5})).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_DOUBLE_EQ(out->GetColumn("total").DoubleAt(0), 6.5);
}

TEST(AggregateKernelTest, GroupedAggregates) {
  Table t("t");
  Column g(DataType::kInt32), v(DataType::kFloat64);
  const int32_t groups[] = {1, 2, 1, 2, 1};
  const double values[] = {1, 10, 2, 20, 3};
  for (int i = 0; i < 5; ++i) {
    g.AppendInt32(groups[i]);
    v.AppendDouble(values[i]);
  }
  GPL_CHECK_OK(t.AddColumn("g", std::move(g)));
  GPL_CHECK_OK(t.AddColumn("v", std::move(v)));

  KernelPtr agg = MakeAggregateKernel({{"g", Col("g")}},
                                      {{AggSpec::kSum, Col("v"), "sum"},
                                       {AggSpec::kCount, nullptr, "count"},
                                       {AggSpec::kAvg, Col("v"), "avg"},
                                       {AggSpec::kMin, Col("v"), "min"},
                                       {AggSpec::kMax, Col("v"), "max"}});
  ASSERT_TRUE(agg->Process(t).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2);  // groups sorted: 1, 2
  EXPECT_EQ(out->GetColumn("g").Int32At(0), 1);
  EXPECT_DOUBLE_EQ(out->GetColumn("sum").DoubleAt(0), 6.0);
  EXPECT_EQ(out->GetColumn("count").Int64At(0), 3);
  EXPECT_DOUBLE_EQ(out->GetColumn("avg").DoubleAt(0), 2.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("min").DoubleAt(0), 1.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("max").DoubleAt(0), 3.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("sum").DoubleAt(1), 30.0);
}

TEST(AggregateKernelTest, StringGroupKeysPreserveDictionary) {
  Table t("t");
  Column g(DataType::kString), v(DataType::kFloat64);
  g.AppendString("FRANCE");
  v.AppendDouble(1.0);
  g.AppendString("GERMANY");
  v.AppendDouble(2.0);
  g.AppendString("FRANCE");
  v.AppendDouble(3.0);
  GPL_CHECK_OK(t.AddColumn("nation", std::move(g)));
  GPL_CHECK_OK(t.AddColumn("v", std::move(v)));
  KernelPtr agg = MakeAggregateKernel({{"nation", Col("nation")}},
                                      {{AggSpec::kSum, Col("v"), "sum"}});
  ASSERT_TRUE(agg->Process(t).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2);
  EXPECT_EQ(out->GetColumn("nation").StringAt(0), "FRANCE");
  EXPECT_DOUBLE_EQ(out->GetColumn("sum").DoubleAt(0), 4.0);
}

TEST(AggregateKernelTest, ResetAllowsReuse) {
  KernelPtr agg = MakeAggregateKernel({}, {{AggSpec::kSum, Col("v"), "s"}});
  ASSERT_TRUE(agg->Process(FloatTable("v", {5.0})).ok());
  agg->Reset();
  ASSERT_TRUE(agg->Process(FloatTable("v", {1.0})).ok());
  Result<Table> out = agg->Finish();
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->GetColumn("s").DoubleAt(0), 1.0);
}

// ---- Grouping through the hash index ----

void ExpectTablesBitIdentical(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (int64_t c = 0; c < expected.num_columns(); ++c) {
    SCOPED_TRACE(expected.ColumnNameAt(c));
    EXPECT_EQ(expected.ColumnNameAt(c), actual.ColumnNameAt(c));
    const Column& e = expected.ColumnAt(c);
    const Column& a = actual.ColumnAt(c);
    ASSERT_EQ(e.type(), a.type());
    EXPECT_EQ(e.dictionary(), a.dictionary());
    EXPECT_TRUE(std::ranges::equal(e.data32(), a.data32()));
    EXPECT_TRUE(std::ranges::equal(e.data64(), a.data64()));
    // Bitwise, so -0.0 vs 0.0 or differing NaNs would show.
    ASSERT_EQ(e.dataf().size(), a.dataf().size());
    for (size_t r = 0; r < e.dataf().size(); ++r) {
      EXPECT_EQ(std::bit_cast<uint64_t>(e.dataf()[r]),
                std::bit_cast<uint64_t>(a.dataf()[r]))
          << "row " << r;
    }
  }
}

/// Rows with an int32 key "k0" (negative too), an int64 key "k1" (beyond
/// int32), a string key "k2" and a float value "v" that is a multiple of
/// 1/8, so any double fold of it is exact.
Table GroupedRows(Random& rng, int64_t rows, int64_t distinct,
                  const std::shared_ptr<Dictionary>& dict) {
  Column k0(DataType::kInt32), k1(DataType::kInt64),
      k2(DataType::kString, dict), v(DataType::kFloat64);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t g = rng.Uniform(0, distinct - 1);
    k0.AppendInt32(static_cast<int32_t>(g % 151) - 75);
    k1.AppendInt64((g % 5 - 2) * (int64_t{1} << 40) + g / 5);
    k2.AppendString(g % 3 == 0 ? "AIR" : (g % 3 == 1 ? "RAIL" : "SHIP"));
    v.AppendDouble(static_cast<double>(rng.Uniform(-800, 800)) / 8.0);
  }
  Table t("t");
  GPL_CHECK_OK(t.AddColumn("k0", std::move(k0)));
  GPL_CHECK_OK(t.AddColumn("k1", std::move(k1)));
  GPL_CHECK_OK(t.AddColumn("k2", std::move(k2)));
  GPL_CHECK_OK(t.AddColumn("v", std::move(v)));
  return t;
}

std::vector<AggSpec> AllAggregates() {
  return {{AggSpec::kSum, Col("v"), "sum"},
          {AggSpec::kCount, nullptr, "count"},
          {AggSpec::kAvg, Col("v"), "avg"},
          {AggSpec::kMin, Col("v"), "min"},
          {AggSpec::kMax, Col("v"), "max"}};
}

TEST(AggregateKernelTest, ManyGroupsEmitInSortedKeyOrder) {
  const std::vector<ProjectedColumn> keys = {
      {"k0", Col("k0")}, {"k1", Col("k1")}, {"k2", Col("k2")}};
  for (size_t width = 1; width <= 3; ++width) {
    SCOPED_TRACE("key columns: " + std::to_string(width));
    const std::vector<ProjectedColumn> group_by(keys.begin(),
                                                keys.begin() + width);
    Random rng(41 + width);
    auto dict = std::make_shared<Dictionary>();
    KernelPtr agg = MakeAggregateKernel(group_by, AllAggregates());

    // Reference: std::map orders key tuples lexicographically (string keys
    // by dictionary code).
    struct Ref {
      double sum = 0.0, min = 1e300, max = -1e300;
      int64_t count = 0;
    };
    std::map<std::vector<int64_t>, Ref> ref;
    for (int batch = 0; batch < 4; ++batch) {  // the index grows across batches
      const Table t = GroupedRows(rng, 700, 600, dict);
      ASSERT_TRUE(agg->Process(t).ok());
      for (int64_t r = 0; r < t.num_rows(); ++r) {
        std::vector<int64_t> key;
        for (const ProjectedColumn& g : group_by) {
          key.push_back(t.GetColumn(g.name).AsInt64(r));
        }
        Ref& e = ref[key];
        const double v = t.GetColumn("v").DoubleAt(r);
        e.sum += v;
        e.min = std::min(e.min, v);
        e.max = std::max(e.max, v);
        ++e.count;
      }
    }
    ASSERT_GT(ref.size(), 64u);
    Result<Table> out = agg->Finish();
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->num_rows(), static_cast<int64_t>(ref.size()));
    int64_t row = 0;
    for (const auto& [key, e] : ref) {
      for (size_t g = 0; g < width; ++g) {
        ASSERT_EQ(out->GetColumn(group_by[g].name).AsInt64(row), key[g])
            << "row " << row;
      }
      EXPECT_EQ(out->GetColumn("sum").DoubleAt(row), e.sum);
      EXPECT_EQ(out->GetColumn("count").Int64At(row), e.count);
      EXPECT_EQ(out->GetColumn("avg").DoubleAt(row),
                e.sum / static_cast<double>(e.count));
      EXPECT_EQ(out->GetColumn("min").DoubleAt(row), e.min);
      EXPECT_EQ(out->GetColumn("max").DoubleAt(row), e.max);
      ++row;
    }
    EXPECT_EQ(out->GetColumn("k0").type(), DataType::kInt32);
    if (width >= 2) {
      EXPECT_EQ(out->GetColumn("k1").type(), DataType::kInt64);
    }
    if (width == 3) {
      EXPECT_EQ(out->GetColumn("k2").dictionary(), dict);
    }
  }
}

TEST(AggregateKernelTest, PartialCombineRoundTripIsBitIdentical) {
  const std::vector<ProjectedColumn> group_by = {{"k0", Col("k0")},
                                                 {"k2", Col("k2")}};
  // Values of widely varying magnitude and sign: a double fold would depend
  // on order, the exact sums must not.
  Random rng(7);
  auto dict = std::make_shared<Dictionary>();
  Table all = GroupedRows(rng, 3000, 200, dict);
  std::vector<double>& v = all.GetMutableColumn("v").dataf();
  for (double& x : v) {
    x *= std::ldexp(1.0 + rng.NextDouble(),
                    static_cast<int>(rng.Uniform(-30, 30)));
  }

  KernelPtr complete = MakeAggregateKernel(group_by, AllAggregates());
  ASSERT_TRUE(complete->Process(all).ok());
  Result<Table> expected = complete->Finish();
  ASSERT_TRUE(expected.ok());

  // Three uneven shards, one of them empty.
  std::vector<std::vector<int64_t>> shard_rows(3);
  for (int64_t r = 0; r < all.num_rows(); ++r) {
    shard_rows[r % 7 < 5 ? 0 : 2].push_back(r);
  }
  std::vector<Table> partials;
  for (const std::vector<int64_t>& rows : shard_rows) {
    KernelPtr partial =
        MakeAggregateKernel(group_by, AllAggregates(),
                            AggregatePhase::kPartial);
    ASSERT_TRUE(partial->Process(all.Gather(rows)).ok());
    Result<Table> state = partial->Finish();
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->column_names(),
              PartialAggregateColumns(group_by, AllAggregates()));
    partials.push_back(state.take());
  }
  Result<Table> combined =
      CombinePartialAggregates(group_by, AllAggregates(), partials);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  ExpectTablesBitIdentical(*expected, *combined);
}

TEST(AggregateKernelTest, CombineRejectsMalformedPartial) {
  const std::vector<ProjectedColumn> group_by = {{"k0", Col("k0")}};
  Random rng(3);
  auto dict = std::make_shared<Dictionary>();
  KernelPtr partial =
      MakeAggregateKernel(group_by, AllAggregates(), AggregatePhase::kPartial);
  ASSERT_TRUE(partial->Process(GroupedRows(rng, 50, 10, dict)).ok());
  Result<Table> state = partial->Finish();
  ASSERT_TRUE(state.ok());

  // Drop one exact-sum digit column.
  Table truncated("partial");
  for (int64_t c = 0; c < state->num_columns(); ++c) {
    if (state->ColumnNameAt(c) == "__pd0_5") continue;
    GPL_CHECK_OK(
        truncated.AddColumn(state->ColumnNameAt(c), state->ColumnAt(c)));
  }
  Result<Table> combined =
      CombinePartialAggregates(group_by, AllAggregates(), {truncated});
  ASSERT_FALSE(combined.ok());
  EXPECT_EQ(combined.status().code(), StatusCode::kInvalidArgument);
}

TEST(SortKernelTest, SortsAscendingAndDescending) {
  KernelPtr asc = MakeSortKernel({{"x", false}});
  ASSERT_TRUE(asc->Process(Int32Table("x", {3, 1})).ok());
  ASSERT_TRUE(asc->Process(Int32Table("x", {2})).ok());
  Result<Table> out = asc->Finish();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetColumn("x").Int32At(0), 1);
  EXPECT_EQ(out->GetColumn("x").Int32At(2), 3);
  EXPECT_TRUE(asc->blocking());

  KernelPtr desc = MakeSortKernel({{"x", true}});
  ASSERT_TRUE(desc->Process(Int32Table("x", {3, 1, 2})).ok());
  Result<Table> out2 = desc->Finish();
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->GetColumn("x").Int32At(0), 3);
}

TEST(SortKernelTest, MultiKeyStableOrder) {
  Table t("t");
  Column a(DataType::kInt32), b(DataType::kFloat64);
  const int av[] = {2, 1, 2, 1};
  const double bv[] = {0.5, 9.0, 0.1, 3.0};
  for (int i = 0; i < 4; ++i) {
    a.AppendInt32(av[i]);
    b.AppendDouble(bv[i]);
  }
  GPL_CHECK_OK(t.AddColumn("a", std::move(a)));
  GPL_CHECK_OK(t.AddColumn("b", std::move(b)));
  KernelPtr sort = MakeSortKernel({{"a", false}, {"b", true}});
  ASSERT_TRUE(sort->Process(t).ok());
  Result<Table> out = sort->Finish();
  ASSERT_TRUE(out.ok());
  // a=1 rows first, within them b descending: 9.0, 3.0.
  EXPECT_EQ(out->GetColumn("a").Int32At(0), 1);
  EXPECT_DOUBLE_EQ(out->GetColumn("b").DoubleAt(0), 9.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("b").DoubleAt(1), 3.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("b").DoubleAt(2), 0.5);
}

TEST(SortKernelTest, StringKeysSortLexicographically) {
  Column s(DataType::kString);
  s.AppendString("GERMANY");
  s.AppendString("ARGENTINA");
  s.AppendString("FRANCE");
  Table t("t");
  GPL_CHECK_OK(t.AddColumn("n", std::move(s)));
  KernelPtr sort = MakeSortKernel({{"n", false}});
  ASSERT_TRUE(sort->Process(t).ok());
  Result<Table> out = sort->Finish();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetColumn("n").StringAt(0), "ARGENTINA");
  EXPECT_EQ(out->GetColumn("n").StringAt(2), "GERMANY");
}

TEST(KbePrimitivesTest, PrefixSumAndScatter) {
  Table t = Int32Table("x", {5, 1, 7, 2, 8});
  Column flags = ComputeFlags(t, Gt(Col("x"), LitInt(4)));  // 1 0 1 0 1
  int64_t total = 0;
  Column offsets = PrefixSum(flags, &total);
  EXPECT_EQ(total, 3);
  EXPECT_EQ(offsets.Int32At(0), 0);
  EXPECT_EQ(offsets.Int32At(2), 1);
  EXPECT_EQ(offsets.Int32At(4), 2);

  Table out = ScatterRows(t, flags, offsets);
  ASSERT_EQ(out.num_rows(), 3);
  EXPECT_EQ(out.GetColumn("x").Int32At(0), 5);
  EXPECT_EQ(out.GetColumn("x").Int32At(1), 7);
  EXPECT_EQ(out.GetColumn("x").Int32At(2), 8);
}

TEST(TimingDescTest, BlockingFlagsMatchPaper) {
  EXPECT_FALSE(FilterTiming(1.0).blocking);
  EXPECT_FALSE(ProjectTiming(1.0, 2).blocking);
  EXPECT_TRUE(PrefixSumTiming().blocking);
  EXPECT_TRUE(HashBuildTiming(0).blocking);
  EXPECT_FALSE(HashProbeTiming(0).blocking);
  EXPECT_FALSE(AggregateTiming(1.0, 1).blocking);  // k_reduce* is non-blocking
  EXPECT_TRUE(ScanAggregateTiming().blocking);     // KBE scan aggregation
  EXPECT_TRUE(SortTiming().blocking);
}

TEST(TimingDescTest, ProbeDeclaresRandomAccess) {
  const sim::KernelTimingDesc d = HashProbeTiming(1 << 20);
  EXPECT_GT(d.random_access_fraction, 0.0);
  EXPECT_EQ(d.random_working_set_bytes, 1 << 20);
}

}  // namespace
}  // namespace gpl
