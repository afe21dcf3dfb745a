// Layers timed from outside the engine: the segment-by-segment replay of a
// plan (plan / model / core), the exec primitives and the host stream
// bandwidth they are read against.
#include <algorithm>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/gpl_executor.h"
#include "core/pipeline.h"
#include "exec/expr.h"
#include "exec/primitives.h"
#include "model/cost_model.h"
#include "model/plan_tuner.h"
#include "plan/fusion.h"
#include "plan/segment.h"

namespace perfbench {

using gpl::Result;
using gpl::Status;
using gpl::Table;

namespace {

/// The input view GplExecutor resolves for a segment: a projection of a base
/// table (column names prefixed by the alias) or a prior segment's output.
Result<std::shared_ptr<const Table>> SegmentInput(
    const gpl::tpch::Database& db, const gpl::Segment& segment,
    const std::vector<std::shared_ptr<const Table>>& outputs) {
  if (segment.input_table.empty()) {
    if (segment.input_segment < 0 ||
        segment.input_segment >= static_cast<int>(outputs.size()) ||
        outputs[static_cast<size_t>(segment.input_segment)] == nullptr) {
      return Status::InvalidArgument("segment has no input source");
    }
    return outputs[static_cast<size_t>(segment.input_segment)];
  }
  const Table* base = db.ByName(segment.input_table);
  if (base == nullptr) {
    return Status::NotFound("unknown table: " + segment.input_table);
  }
  auto view = std::make_shared<Table>(segment.input_table);
  for (const std::string& col : segment.input_columns) {
    const std::string name = segment.input_alias.empty()
                                 ? col
                                 : segment.input_alias + "_" + col;
    GPL_RETURN_NOT_OK(view->AddColumn(name, base->GetColumn(col)));
  }
  return std::shared_ptr<const Table>(std::move(view));
}

}  // namespace

Status ReplaySegments(const gpl::tpch::Database& db, const gpl::Engine& engine,
                      const gpl::SegmentedPlan& segmented, bool fused,
                      int host_threads, Spans* spans, int parent,
                      int64_t query, LayerTimes* times) {
  // The host parallelism the workload's own GplExecutor::Run uses.
  const gpl::ScopedHostParallelism parallelism(host_threads);
  for (const gpl::Segment& segment : segmented.segments) {
    for (const gpl::Stage& stage : segment.stages) stage.kernel->Reset();
  }
  // An executor without caches, used only for its DescribeSegment.
  const gpl::GplExecutor describer(&db, &engine.simulator(),
                                   &engine.calibration());
  const gpl::model::CostModel cost_model(engine.simulator().device(),
                                         &engine.calibration());
  std::vector<std::shared_ptr<const Table>> outputs(segmented.segments.size());
  for (size_t i = 0; i < segmented.segments.size(); ++i) {
    const gpl::Segment& segment = segmented.segments[i];
    ScopedSpan segment_span(spans, "segment", parent, query);
    GPL_ASSIGN_OR_RETURN(std::shared_ptr<const Table> input,
                         SegmentInput(db, segment, outputs));

    gpl::model::TuningChoice choice;
    {
      ScopedSpan span(spans, "tune", segment_span.id(), query);
      const auto start = Clock::now();
      const gpl::model::SegmentDesc desc = describer.DescribeSegment(
          segment, input->num_rows(), input->byte_size());
      if (fused) {
        std::vector<int> group_sizes;
        for (const gpl::FusedGroup& group : gpl::PlanFusion(segment).groups) {
          group_sizes.push_back(static_cast<int>(group.count));
        }
        choice = gpl::model::TuneSegmentEngines(
            cost_model, desc, engine.calibration(), group_sizes);
      } else {
        choice = gpl::model::TuneSegment(cost_model, desc,
                                         engine.calibration());
      }
      times->tune_ms += MsSince(start);
    }
    {
      // Fused chains run unfused here: same rows, per-stage kernels.
      ScopedSpan span(spans, "functional", segment_span.id(), query);
      const auto start = Clock::now();
      GPL_ASSIGN_OR_RETURN(
          gpl::FunctionalRun run,
          gpl::RunSegmentFunctional(segment, *input,
                                    choice.params.tile_bytes));
      times->functional_ms += MsSince(start);
      times->functional_rows += run.input_rows;
      outputs[i] = std::make_shared<const Table>(std::move(run.output));
    }
  }
  return Status::OK();
}

namespace {

Result<Table> View(const gpl::tpch::Database& db, const std::string& table,
                   const std::vector<std::string>& columns) {
  const Table* base = db.ByName(table);
  if (base == nullptr) return Status::NotFound("unknown table: " + table);
  Table view(table);
  for (const std::string& col : columns) {
    GPL_RETURN_NOT_OK(view.AddColumn(col, base->GetColumn(col)));
  }
  return view;
}

/// One timed primitive call: rows consumed and bytes moved to and from
/// memory (columns read plus rows or state written).
struct PrimitiveRun {
  double ms = 0.0;
  int64_t rows = 0;
  int64_t bytes = 0;
};

/// Times `run` `reps` times and keeps the median rep (rows and bytes are the
/// same on every rep).
template <typename Fn>
Result<PrimitiveRun> TimePrimitive(int reps, Fn run) {
  std::vector<double> ms;
  PrimitiveRun last;
  for (int r = 0; r < reps; ++r) {
    GPL_ASSIGN_OR_RETURN(last, run());
    ms.push_back(last.ms);
  }
  last.ms = Median(ms);
  return last;
}

/// STREAM-style triad a = b + s*c over arrays far larger than the last-level
/// cache, split evenly over `threads`; best of five repetitions, counting
/// 3 x 8 bytes per element as STREAM does.
double StreamTriadGbps(int threads) {
  constexpr size_t kElems = size_t{8} << 20;  // 64 MiB per array
  std::vector<double> a(kElems), b(kElems, 1.0), c(kElems, 2.0);
  double best_s = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const size_t lo = kElems * static_cast<size_t>(t) /
                          static_cast<size_t>(threads);
        const size_t hi = kElems * static_cast<size_t>(t + 1) /
                          static_cast<size_t>(threads);
        for (size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    for (std::thread& w : workers) w.join();
    best_s = std::min(best_s, MsSince(start) / 1e3);
  }
  // Keep the stores observable.
  volatile double sink = a[kElems / 2];
  (void)sink;
  return 3.0 * 8.0 * static_cast<double>(kElems) / best_s / 1e9;
}

}  // namespace

Status AddPrimitiveMetrics(const gpl::tpch::Database& db, RunReport* report) {
  using namespace gpl;  // expression builders
  const int threads = HostHardwareThreads();
  const double gbps_1t = StreamTriadGbps(1);
  const double gbps = StreamTriadGbps(threads);
  ScopedHostParallelism parallelism(threads);
  constexpr int kReps = 3;

  GPL_ASSIGN_OR_RETURN(
      Table filter_in,
      View(db, "lineitem",
           {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}));
  GPL_ASSIGN_OR_RETURN(PrimitiveRun filter, TimePrimitive(kReps, [&]()
                                                 -> Result<PrimitiveRun> {
    KernelPtr kernel = MakeFilterKernel(
        And(And(Ge(Col("l_shipdate"), LitDate("1994-01-01")),
                Lt(Col("l_shipdate"), LitDate("1995-01-01"))),
            And(InRange(Col("l_discount"), LitFloat(0.05), LitFloat(0.07)),
                Lt(Col("l_quantity"), LitFloat(24.0)))));
    const auto start = Clock::now();
    GPL_ASSIGN_OR_RETURN(Table out, kernel->Process(filter_in));
    PrimitiveRun run{MsSince(start), filter_in.num_rows(),
                     filter_in.byte_size() + out.byte_size()};
    return run;
  }));

  GPL_ASSIGN_OR_RETURN(Table build_in,
                       View(db, "orders", {"o_orderkey", "o_orderdate"}));
  GPL_ASSIGN_OR_RETURN(Table probe_in,
                       View(db, "lineitem", {"l_orderkey", "l_extendedprice"}));
  auto state = std::make_shared<HashJoinState>();
  GPL_ASSIGN_OR_RETURN(PrimitiveRun build, TimePrimitive(kReps, [&]()
                                                -> Result<PrimitiveRun> {
    state->Reset();
    KernelPtr kernel = MakeHashBuildKernel({Col("o_orderkey")}, state);
    const auto start = Clock::now();
    GPL_RETURN_NOT_OK(kernel->Process(build_in).status());
    GPL_RETURN_NOT_OK(kernel->Finish().status());
    const double ms = MsSince(start);
    kernel->PrepareTiming();
    PrimitiveRun run{ms, build_in.num_rows(),
                     build_in.byte_size() + kernel->MaterializedStateBytes()};
    return run;
  }));
  // The probe reads the table left by the last build repetition.
  GPL_ASSIGN_OR_RETURN(PrimitiveRun probe, TimePrimitive(kReps, [&]()
                                                -> Result<PrimitiveRun> {
    KernelPtr kernel =
        MakeHashProbeKernel({Col("l_orderkey")}, state, {"o_orderdate"});
    const auto start = Clock::now();
    GPL_ASSIGN_OR_RETURN(Table out, kernel->Process(probe_in));
    PrimitiveRun run{MsSince(start), probe_in.num_rows(),
                     probe_in.byte_size() + out.byte_size()};
    return run;
  }));

  GPL_ASSIGN_OR_RETURN(
      Table agg_in, View(db, "lineitem",
                         {"l_returnflag", "l_linestatus", "l_quantity",
                          "l_extendedprice", "l_discount"}));
  GPL_ASSIGN_OR_RETURN(PrimitiveRun aggregate, TimePrimitive(kReps, [&]()
                                                    -> Result<PrimitiveRun> {
    KernelPtr kernel = MakeAggregateKernel(
        {{"l_returnflag", Col("l_returnflag")},
         {"l_linestatus", Col("l_linestatus")}},
        {{AggSpec::kSum, Col("l_quantity"), "sum_qty"},
         {AggSpec::kSum, Col("l_extendedprice"), "sum_base_price"},
         {AggSpec::kAvg, Col("l_discount"), "avg_disc"},
         {AggSpec::kCount, nullptr, "count_order"}});
    const auto start = Clock::now();
    GPL_RETURN_NOT_OK(kernel->Process(agg_in).status());
    GPL_ASSIGN_OR_RETURN(Table out, kernel->Finish());
    PrimitiveRun run{MsSince(start), agg_in.num_rows(),
                     agg_in.byte_size() + out.byte_size()};
    return run;
  }));

  report->per_layer.push_back({"host.stream_gbps", gbps, "GB/s"});
  report->per_layer.push_back({"host.stream_gbps_1t", gbps_1t, "GB/s"});
  const std::pair<const char*, const PrimitiveRun*> primitives[] = {
      {"filter", &filter},
      {"hash_build", &build},
      {"hash_probe", &probe},
      {"aggregate", &aggregate}};
  for (const auto& [name, run] : primitives) {
    const double seconds = run->ms / 1e3;
    report->per_layer.push_back({std::string("exec.") + name + "_rows_per_s",
                                 static_cast<double>(run->rows) / seconds,
                                 "1/s"});
    report->per_layer.push_back(
        {std::string("exec.") + name + "_roofline_frac",
         static_cast<double>(run->bytes) / seconds / (gbps * 1e9),
         "fraction"});
  }
  return Status::OK();
}

}  // namespace perfbench
