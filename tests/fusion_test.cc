#include "plan/fusion.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "exec/fused_kernel.h"
#include "exec/primitives.h"
#include "model/cost_model.h"
#include "test_util.h"

namespace gpl {
namespace {

using testing_util::Int32Table;

FusionStageView Map(int64_t private_bytes = 16) {
  FusionStageView v;
  v.private_bytes_per_item = private_bytes;
  return v;
}

FusionStageView Blocking() {
  FusionStageView v;
  v.blocking = true;
  return v;
}

FusionStageView CompleteAggregate() {
  FusionStageView v;
  v.is_aggregate = true;
  return v;
}

FusionStageView PartialAggregate() {
  FusionStageView v;
  v.is_aggregate = true;
  v.partial_aggregate = true;
  return v;
}

std::vector<size_t> GroupSizes(const FusionPlan& plan) {
  std::vector<size_t> sizes;
  for (const FusedGroup& g : plan.groups) sizes.push_back(g.count);
  return sizes;
}

/// Every stage appears in exactly one group, in order.
void ExpectCoversAllStages(const FusionPlan& plan, size_t num_stages) {
  size_t next = 0;
  for (const FusedGroup& g : plan.groups) {
    EXPECT_EQ(g.first, next);
    EXPECT_GE(g.count, 1u);
    next += g.count;
  }
  EXPECT_EQ(next, num_stages);
}

TEST(PlanFusionTest, AllNonBlockingStagesFuseIntoOneChain) {
  const std::vector<FusionStageView> stages = {Map(), Map(), Map(), Map()};
  const FusionPlan plan = PlanFusion(stages);
  EXPECT_EQ(GroupSizes(plan), (std::vector<size_t>{4}));
  EXPECT_EQ(plan.fused_groups, 1);
  EXPECT_EQ(plan.stages_fused, 4);
  EXPECT_EQ(plan.launches_saved(), 3);
  ExpectCoversAllStages(plan, stages.size());
}

TEST(PlanFusionTest, BlockingStagesNeverFuse) {
  // map | BLOCKING | map map — the barrier executes alone, the tail fuses.
  const std::vector<FusionStageView> stages = {Map(), Blocking(), Map(), Map()};
  const FusionPlan plan = PlanFusion(stages);
  EXPECT_EQ(GroupSizes(plan), (std::vector<size_t>{1, 1, 2}));
  EXPECT_EQ(plan.fused_groups, 1);
  ExpectCoversAllStages(plan, stages.size());

  // Two barriers back-to-back stay singletons.
  const FusionPlan barriers = PlanFusion({Blocking(), Blocking()});
  EXPECT_EQ(GroupSizes(barriers), (std::vector<size_t>{1, 1}));
  EXPECT_EQ(barriers.fused_groups, 0);
  EXPECT_EQ(barriers.launches_saved(), 0);
}

TEST(PlanFusionTest, CompleteAggregateNeverFuses) {
  const std::vector<FusionStageView> stages = {Map(), Map(),
                                               CompleteAggregate()};
  const FusionPlan plan = PlanFusion(stages);
  EXPECT_EQ(GroupSizes(plan), (std::vector<size_t>{2, 1}));
  ExpectCoversAllStages(plan, stages.size());
}

TEST(PlanFusionTest, PartialAggregateOnlyTerminatesAChain) {
  // map map PARTIAL map: the partial aggregate joins as the chain's tail,
  // but nothing fuses after it.
  const std::vector<FusionStageView> stages = {Map(), Map(), PartialAggregate(),
                                               Map()};
  const FusionPlan plan = PlanFusion(stages);
  EXPECT_EQ(GroupSizes(plan), (std::vector<size_t>{3, 1}));
  ExpectCoversAllStages(plan, stages.size());

  // A partial aggregate cannot *head* a chain either — it accumulates, so
  // its successor would never see per-tile output.
  const FusionPlan head = PlanFusion({PartialAggregate(), Map()});
  EXPECT_EQ(GroupSizes(head), (std::vector<size_t>{1, 1}));
}

TEST(PlanFusionTest, ExchangeBoundaryStartsItsOwnChain) {
  // The consumer of exchanged data ran after a device hop: it may not join
  // its producer's kernel, but it can head a fresh chain.
  FusionStageView exchanged = Map();
  exchanged.exchange_boundary = true;
  const std::vector<FusionStageView> stages = {Map(), Map(), exchanged, Map()};
  const FusionPlan plan = PlanFusion(stages);
  EXPECT_EQ(GroupSizes(plan), (std::vector<size_t>{2, 2}));
  EXPECT_EQ(plan.fused_groups, 2);
  ExpectCoversAllStages(plan, stages.size());
}

TEST(PlanFusionTest, MultiConsumerTerminatesItsChain) {
  FusionStageView shared = Map();
  shared.multi_consumer = true;
  const std::vector<FusionStageView> stages = {Map(), shared, Map(), Map()};
  const FusionPlan plan = PlanFusion(stages);
  // The multi-consumer stage joins as tail (its output materializes either
  // way), then the rest start over.
  EXPECT_EQ(GroupSizes(plan), (std::vector<size_t>{2, 2}));
  ExpectCoversAllStages(plan, stages.size());
}

TEST(PlanFusionTest, RegisterBudgetSplitsLongChains) {
  FusionOptions options;
  options.max_private_bytes_per_item = 256;
  // 100 + 100 fits; adding the third (300 > 256) splits the chain.
  const std::vector<FusionStageView> stages = {Map(100), Map(100), Map(100)};
  const FusionPlan plan = PlanFusion(stages, options);
  EXPECT_EQ(GroupSizes(plan), (std::vector<size_t>{2, 1}));

  // A generous budget fuses all three.
  options.max_private_bytes_per_item = 1024;
  EXPECT_EQ(GroupSizes(PlanFusion(stages, options)),
            (std::vector<size_t>{3}));
}

TEST(PlanFusionTest, EmptySegmentYieldsEmptyPlan) {
  const FusionPlan plan = PlanFusion(std::vector<FusionStageView>{});
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_EQ(plan.fused_groups, 0);
  EXPECT_EQ(plan.launches_saved(), 0);
}

// ---- FusedKernel: the composed body must equal the unfused chain ----

TEST(FusedKernelTest, MatchesUnfusedChainBitExactly) {
  const Table input = Int32Table("x", {5, 1, 2, 9, 0, 7, 3});

  KernelPtr filter = MakeFilterKernel(Lt(Col("x"), LitInt(5)));
  KernelPtr project = MakeProjectKernel(
      {{"double_x", Mul(Col("x"), LitInt(2))}, {"x", Col("x")}});
  FusedKernel fused({MakeFilterKernel(Lt(Col("x"), LitInt(5))),
                     MakeProjectKernel({{"double_x", Mul(Col("x"), LitInt(2))},
                                        {"x", Col("x")}})});
  EXPECT_FALSE(fused.blocking());

  Result<Table> step = filter->Process(input);
  ASSERT_TRUE(step.ok());
  Result<Table> expected = project->Process(*step);
  ASSERT_TRUE(expected.ok());
  Result<Table> actual = fused.Process(input);
  ASSERT_TRUE(actual.ok());

  ASSERT_EQ(actual->num_rows(), expected->num_rows());
  ASSERT_EQ(actual->num_columns(), expected->num_columns());
  for (int64_t c = 0; c < expected->num_columns(); ++c) {
    EXPECT_TRUE(std::ranges::equal(expected->ColumnAt(c).data32(),
                                   actual->ColumnAt(c).data32()));
    EXPECT_TRUE(std::ranges::equal(expected->ColumnAt(c).data64(),
                                   actual->ColumnAt(c).data64()));
    EXPECT_TRUE(std::ranges::equal(expected->ColumnAt(c).dataf(),
                                   actual->ColumnAt(c).dataf()));
  }

  // Per-stage observations carry the interior cardinalities the simulator
  // needs: stage 0 saw all rows, stage 1 only the survivors.
  const std::vector<FusedStageObservation>& obs = fused.observations();
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].rows_in, input.num_rows());
  EXPECT_EQ(obs[0].rows_out, expected->num_rows());
  EXPECT_EQ(obs[1].rows_in, expected->num_rows());
  EXPECT_EQ(obs[1].rows_out, expected->num_rows());
}

TEST(FusedKernelTest, ComposedTimingUsesRegisterReuse) {
  KernelPtr a = MakeProjectKernel({{"x", Col("x")}});
  KernelPtr b = MakeFilterKernel(Lt(Col("x"), LitInt(5)));
  const int64_t pa = a->timing().private_bytes_per_item;
  const int64_t pb = b->timing().private_bytes_per_item;
  const int64_t pmax = pa > pb ? pa : pb;

  FusedKernel fused({std::move(a), std::move(b)});
  // max + half the rest: stages run sequentially per item, so the compiler
  // reuses part of each stage's registers (mirrors model::ComposeFusedStage).
  EXPECT_EQ(fused.timing().private_bytes_per_item,
            pmax + (pa + pb - pmax) / 2);
}

TEST(FusedKernelTest, ResetClearsChildrenAndObservations) {
  FusedKernel fused({MakeFilterKernel(Lt(Col("x"), LitInt(5))),
                     MakeProjectKernel({{"x", Col("x")}})});
  ASSERT_TRUE(fused.Process(Int32Table("x", {1, 2, 3})).ok());
  EXPECT_GT(fused.observations()[0].rows_in, 0);
  fused.Reset();
  EXPECT_EQ(fused.observations()[0].rows_in, 0);
  Result<Table> again = fused.Process(Int32Table("x", {1}));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_rows(), 1);
}

// ---- model::ComposeFusedStage: the descriptor-level mirror ----

TEST(ComposeFusedStageTest, SumsWorkAndDropsInteriorTraffic) {
  model::SegmentDesc segment;
  segment.input_bytes = 1 << 20;
  for (int i = 0; i < 3; ++i) {
    model::StageDesc s;
    s.timing.name = "k" + std::to_string(i);
    s.timing.compute_inst_per_row = 2.0;
    s.timing.mem_inst_per_row = 4.0;
    s.timing.private_bytes_per_item = 32;
    s.rows_in = 1000.0 - 100.0 * i;
    s.rows_out = 900.0 - 100.0 * i;
    s.bytes_in = 8 * s.rows_in;
    s.bytes_out = 8 * s.rows_out;
    segment.stages.push_back(s);
  }

  const model::StageDesc fused = model::ComposeFusedStage(segment.stages, 0, 3);
  // Boundary I/O is the group's: first stage's input, last stage's output.
  EXPECT_DOUBLE_EQ(fused.rows_in, 1000.0);
  EXPECT_DOUBLE_EQ(fused.bytes_in, 8000.0);
  EXPECT_DOUBLE_EQ(fused.rows_out, 700.0);
  EXPECT_DOUBLE_EQ(fused.bytes_out, 5600.0);
  // Per-row instruction work accumulates scaled by each stage's share of the
  // group's input rows, so it can only shrink relative to the plain sum.
  EXPECT_GT(fused.timing.compute_inst_per_row, 2.0);
  EXPECT_LE(fused.timing.compute_inst_per_row, 6.0);
  // Register reuse: max + half the rest, not the plain sum.
  EXPECT_EQ(fused.timing.private_bytes_per_item, 32 + (96 - 32) / 2);
}

}  // namespace
}  // namespace gpl
