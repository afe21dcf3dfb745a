// The three workloads. Each sets itself up several times (setup_s is the
// median), then runs its seeded query stream for the requested seconds.
// Untraced runs time only what a user waits for; traced runs add spans and
// the outside replay of each layer (see NOTES.md).
#include <algorithm>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/gpl_executor.h"
#include "service/query_service.h"
#include "shard/partitioner.h"
#include "trace/trace.h"

namespace perfbench {

using gpl::Engine;
using gpl::Result;
using gpl::Status;
using gpl::Table;

namespace {

/// Setups per run; setup_s reports their median.
constexpr int kSetups = 3;

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. Layers a workload does not
/// exercise report 0 (pool and service outside serve_zipf_sf02, shard
/// outside sharded_x4_sf05).
constexpr LayerSpec kLayers[] = {
    {"tpch.generate_ms", "ms"},
    {"tpch.rows_per_s", "1/s"},
    {"engine.init_ms", "ms"},
    {"shard.partition_ms", "ms"},
    {"shard.exchange_mb_per_query", "MB"},
    {"shard.stitched_rows", "count"},
    {"shard.sim_exchange_ms", "ms"},
    {"shard.sim_merge_ms", "ms"},
    {"plan.plan_ms", "ms"},
    {"plan.segment_ms", "ms"},
    {"model.tune_ms", "ms"},
    {"model.tuning_cache_hit_rate", "fraction"},
    {"core.functional_ms", "ms"},
    {"core.functional_rows_per_s", "1/s"},
    {"core.unattributed_ms", "ms"},
    {"exec.filter_rows_per_s", "1/s"},
    {"exec.filter_roofline_frac", "fraction"},
    {"exec.hash_build_rows_per_s", "1/s"},
    {"exec.hash_build_roofline_frac", "fraction"},
    {"exec.hash_probe_rows_per_s", "1/s"},
    {"exec.hash_probe_roofline_frac", "fraction"},
    {"exec.aggregate_rows_per_s", "1/s"},
    {"exec.aggregate_roofline_frac", "fraction"},
    {"host.stream_gbps", "GB/s"},
    {"host.stream_gbps_1t", "GB/s"},
    {"pool.subplan_hit_rate", "fraction"},
    {"pool.attaches", "count"},
    {"pool.evictions", "count"},
    {"pool.bytes_mb", "MiB"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.exec_p50_ms", "ms"},
    {"service.rejected", "count"},
    {"service.max_queue_depth", "count"},
    {"bench.trace_overhead_pct", "%"},
};

/// Orders the per-layer metrics canonically and fills in zeros for layers
/// the workload did not report.
void CanonicalizeLayers(RunReport* report) {
  std::vector<Metric> ordered;
  for (const LayerSpec& spec : kLayers) {
    Metric metric{spec.name, 0.0, spec.unit};
    for (const Metric& m : report->per_layer) {
      if (m.name == spec.name) metric.value = m.value;
    }
    ordered.push_back(metric);
  }
  report->per_layer = std::move(ordered);
}

void AddLayer(RunReport* report, const char* name, double value) {
  report->per_layer.push_back({name, value, ""});
}

double PerQuery(double total, int64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

/// Checks the kept result tables against the committed digests, outside the
/// timed window.
Status CheckResults(const std::vector<QueryClass>& classes, double sf,
                    const DigestMap& digests,
                    const std::vector<Table>& tables,
                    std::vector<QueryRecord>* records) {
  for (size_t i = 0; i < records->size(); ++i) {
    QueryRecord& r = (*records)[i];
    if (!r.ok) continue;
    const std::string key =
        DigestKey(sf, classes[static_cast<size_t>(r.cls)].name);
    auto it = digests.find(key);
    if (it == digests.end()) {
      return Status::NotFound("no committed digest for " + key);
    }
    r.match = TableDigest(tables[i]) == it->second;
  }
  return Status::OK();
}

Status Finish(const std::vector<QueryClass>& classes, const StreamMix& mix,
              double sf,
              const DigestMap& digests, const std::vector<Table>& tables,
              std::vector<QueryRecord>* records, double window_s,
              const SetupTimes& setup, bool trace, RunReport* report) {
  GPL_RETURN_NOT_OK(CheckResults(classes, sf, digests, tables, records));
  AddQueryMetrics(classes, mix, *records, window_s, report);
  AddSetupMetrics(setup, trace, report);
  report->correct = report->failed == 0 && report->attempted > 0;
  return Status::OK();
}

/// Plans a query through Engine::Plan and SegmentPlan under spans.
Result<gpl::SegmentedPlan> PlanTraced(const Engine& engine,
                                      const gpl::LogicalQuery& query,
                                      Spans* log, int parent, int64_t qid,
                                      LayerTimes* times) {
  gpl::PhysicalOpPtr plan;
  {
    ScopedSpan span(log, "plan", parent, qid);
    const auto start = Clock::now();
    GPL_ASSIGN_OR_RETURN(plan, engine.Plan(query));
    times->plan_ms += MsSince(start);
  }
  ScopedSpan span(log, "segment_plan", parent, qid);
  const auto start = Clock::now();
  GPL_ASSIGN_OR_RETURN(gpl::SegmentedPlan segmented, gpl::SegmentPlan(plan));
  times->segment_ms += MsSince(start);
  return segmented;
}

/// W1 and W3: one client, one Engine in gpl mode, the 11 classes in a seeded
/// order per pass. `shards` > 1 routes every query through the sharded
/// executor over a hash-partitioned copy built during setup.
Result<RunReport> RunEngineWorkload(const Args& args, const DigestMap& digests,
                                    double sf, int shards, int host_threads,
                                    double tail_percentile) {
  const std::vector<QueryClass> classes = QueryClasses();
  const auto num_classes = static_cast<double>(classes.size());
  const StreamMix mix{std::vector<double>(classes.size(), 1.0 / num_classes),
                      tail_percentile};
  gpl::ExecOptions exec;
  exec.host_threads = host_threads;
  exec.shards = shards;
  exec.partition = gpl::shard::PartitionScheme::kHash;

  SetupTimes setup;
  std::unique_ptr<gpl::tpch::Database> db;
  std::unique_ptr<gpl::shard::ShardedDatabase> sharded;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < kSetups; ++rep) {
    engine.reset();
    sharded.reset();
    db.reset();
    const auto start = Clock::now();
    db = std::make_unique<gpl::tpch::Database>(
        gpl::tpch::Generate({.scale_factor = sf}));
    setup.generate_ms.push_back(MsSince(start));
    gpl::EngineOptions options;
    options.mode = gpl::EngineMode::kGpl;
    options.exec = exec;
    if (shards > 1) {
      const auto partition_start = Clock::now();
      GPL_ASSIGN_OR_RETURN(
          gpl::shard::ShardedDatabase parts,
          gpl::shard::PartitionDatabase(*db, {shards, exec.partition}));
      sharded = std::make_unique<gpl::shard::ShardedDatabase>(std::move(parts));
      setup.partition_ms.push_back(MsSince(partition_start));
      options.sharded_db = sharded.get();
    }
    const auto engine_start = Clock::now();
    engine = std::make_unique<Engine>(db.get(), options);
    // Builds the shard executor (and its per-device calibration) now, so
    // the first query does not pay for it.
    if (shards > 1) GPL_RETURN_NOT_OK(engine->ShardedFor(exec).status());
    setup.engine_ms.push_back(MsSince(engine_start));
    setup.total_s.push_back(MsSince(start) / 1e3);
  }
  setup.rows_generated = DatabaseRows(*db);

  RunReport report;
  Spans spans;
  Spans* log = args.trace ? &spans : nullptr;
  // The production GPL entry point for traced single-device runs, sharing
  // the engine's tuning cache so the first pass still tunes cold.
  const gpl::GplExecutor executor(db.get(), &engine->simulator(),
                                  &engine->calibration(),
                                  &engine->tuning_cache());
  gpl::GplOptions gpl_options;
  gpl_options.exec = exec;

  Rng rng(args.seed);
  std::vector<int> pass;
  size_t next = 0;
  std::vector<QueryRecord> records;
  std::vector<Table> tables;
  LayerTimes layers;
  double production_ms = 0.0, unattributed_ms = 0.0;
  int64_t cache_hits = 0, cache_lookups = 0, stitched_rows = 0;
  double exchange_bytes = 0.0, exchange_ms = 0.0, merge_ms = 0.0;
  // The first pass runs before the window: it tunes cold (its tuning-cache
  // misses still count below) and touches memory for the first time, which
  // made it a sixth of the latency samples' weight and the W1 tail swing
  // by up to 51 % from run to run.
  for (int cls : rng.Permutation(static_cast<int>(classes.size()))) {
    GPL_ASSIGN_OR_RETURN(
        gpl::QueryResult result,
        engine->Execute(classes[static_cast<size_t>(cls)].query, exec));
    cache_hits += result.metrics.tuning_cache_hits;
    cache_lookups +=
        result.metrics.tuning_cache_hits + result.metrics.tuning_cache_misses;
  }
  const auto window_start = Clock::now();
  while (records.size() < classes.size() ||
         MsSince(window_start) < args.seconds * 1e3) {
    if (next == pass.size()) {
      pass = rng.Permutation(static_cast<int>(classes.size()));
      next = 0;
    }
    QueryRecord record;
    record.cls = pass[next++];
    const gpl::LogicalQuery& query =
        classes[static_cast<size_t>(record.cls)].query;
    const int64_t qid = static_cast<int64_t>(records.size());
    Table table;
    const auto start = Clock::now();
    if (log == nullptr) {
      Result<gpl::QueryResult> result = engine->Execute(query, exec);
      record.wall_ms = MsSince(start);
      record.ok = result.ok();
      if (result.ok()) {
        record.metrics = result->metrics;
        table = std::move(result->table);
      }
    } else {
      ScopedSpan query_span(log, "query", -1, qid);
      LayerTimes q;
      GPL_ASSIGN_OR_RETURN(
          gpl::SegmentedPlan segmented,
          PlanTraced(*engine, query, log, query_span.id(), qid, &q));
      double run_ms = 0.0;
      double in_program_ms = 0.0;  // plan/tune time the run reports itself
      const auto production = [&]() -> Status {
        if (shards > 1) {
          ScopedSpan span(log, "sharded_run", query_span.id(), qid);
          const auto run_start = Clock::now();
          GPL_ASSIGN_OR_RETURN(gpl::QueryResult result,
                               engine->Execute(query, exec));
          run_ms = MsSince(run_start);
          record.metrics = result.metrics;
          table = std::move(result.table);
          in_program_ms = record.metrics.plan_wall_ms +
                          record.metrics.tune_wall_ms;
        } else {
          ScopedSpan span(log, "gpl_run", query_span.id(), qid);
          const auto run_start = Clock::now();
          GPL_ASSIGN_OR_RETURN(gpl::GplRunResult run,
                               executor.Run(segmented, gpl_options));
          run_ms = MsSince(run_start);
          record.metrics = engine->FinalizeGplMetrics(run);
          table = std::move(run.output);
          in_program_ms = run.tuner_wall_ms;
        }
        return Status::OK();
      };
      const auto replay = [&]() {
        return ReplaySegments(*db, *engine, segmented, /*fused=*/false,
                              exec.host_threads, log, query_span.id(), qid,
                              &q);
      };
      // Alternate the order so allocator and cache warm-up favour neither.
      if (qid % 2 == 0) {
        GPL_RETURN_NOT_OK(replay());
        record.ok = production().ok();
      } else {
        record.ok = production().ok();
        GPL_RETURN_NOT_OK(replay());
      }
      unattributed_ms += run_ms - in_program_ms - q.functional_ms;
      // The untraced call: Engine::Execute = Plan + SegmentPlan + Run for a
      // single device; the sharded Execute plans internally.
      production_ms += run_ms + (shards > 1 ? 0.0 : q.plan_ms + q.segment_ms);
      layers.Add(q);
      record.wall_ms = MsSince(start);
    }
    cache_hits += record.metrics.tuning_cache_hits;
    cache_lookups +=
        record.metrics.tuning_cache_hits + record.metrics.tuning_cache_misses;
    exchange_bytes += static_cast<double>(record.metrics.exchange_bytes);
    stitched_rows += record.metrics.stitched_rows;
    exchange_ms += record.metrics.exchange_ms;
    merge_ms += record.metrics.merge_ms;
    records.push_back(std::move(record));
    tables.push_back(std::move(table));
  }
  const double window_s = MsSince(window_start) / 1e3;

  if (log != nullptr) {
    const auto n = static_cast<int64_t>(records.size());
    const double traced_ms = spans.TotalMs("query");
    int64_t tune_spans = 0;
    for (const Spans::Span& s : spans.spans()) tune_spans += s.name == "tune";
    AddLayer(&report, "plan.plan_ms", PerQuery(spans.SelfMs("plan"), n));
    AddLayer(&report, "plan.segment_ms",
             PerQuery(spans.SelfMs("segment_plan"), n));
    AddLayer(&report, "model.tune_ms",
             PerQuery(spans.SelfMs("tune"), tune_spans));
    AddLayer(&report, "model.tuning_cache_hit_rate",
             cache_lookups == 0 ? 0.0
                                : static_cast<double>(cache_hits) /
                                      static_cast<double>(cache_lookups));
    AddLayer(&report, "core.functional_ms",
             PerQuery(spans.SelfMs("functional"), n));
    AddLayer(&report, "core.functional_rows_per_s",
             static_cast<double>(layers.functional_rows) /
                 (layers.functional_ms / 1e3));
    AddLayer(&report, "core.unattributed_ms", PerQuery(unattributed_ms, n));
    AddLayer(&report, "shard.exchange_mb_per_query",
             PerQuery(exchange_bytes / 1e6, n));
    AddLayer(&report, "shard.stitched_rows",
             static_cast<double>(stitched_rows));
    AddLayer(&report, "shard.sim_exchange_ms", PerQuery(exchange_ms, n));
    AddLayer(&report, "shard.sim_merge_ms", PerQuery(merge_ms, n));
    AddLayer(&report, "bench.trace_overhead_pct",
             100.0 * (traced_ms - production_ms) / production_ms);
    GPL_RETURN_NOT_OK(AddPrimitiveMetrics(*db, &report));
    if (!args.spans_path.empty()) {
      GPL_RETURN_NOT_OK(spans.WriteJson(args.spans_path));
    }
  }
  GPL_RETURN_NOT_OK(Finish(classes, mix, sf, digests, tables, &records,
                           window_s, setup, args.trace, &report));
  if (log != nullptr) CanonicalizeLayers(&report);
  return report;
}

/// Replays each class once on a private fused-mode engine (no subplan
/// cache) to attribute plan, model and core time on the serving workload,
/// whose own engines live inside the QueryService. `options` are the
/// service's engine options with the subplan cache left off.
Status ReplayClassesFused(const gpl::tpch::Database& db,
                          const std::vector<QueryClass>& classes,
                          const gpl::EngineOptions& options, Spans* log,
                          RunReport* report) {
  Engine engine(&db, options);
  const gpl::GplExecutor executor(&db, &engine.simulator(),
                                  &engine.calibration());
  gpl::GplOptions gpl_options;
  gpl_options.exec = options.exec;
  gpl_options.fused = true;
  LayerTimes layers;
  double unattributed_ms = 0.0;
  int64_t tune_spans = 0;
  const auto n = static_cast<int64_t>(classes.size());
  for (int64_t c = 0; c < n; ++c) {
    const int64_t qid = -2 - c;  // distinct from the window's query ids
    ScopedSpan query_span(log, "replay_query", -1, qid);
    LayerTimes q;
    GPL_ASSIGN_OR_RETURN(
        gpl::SegmentedPlan segmented,
        PlanTraced(engine, classes[static_cast<size_t>(c)].query, log,
                   query_span.id(), qid, &q));
    double run_ms = 0.0, tuner_ms = 0.0;
    const auto production = [&]() -> Status {
      ScopedSpan span(log, "gpl_run", query_span.id(), qid);
      const auto start = Clock::now();
      GPL_ASSIGN_OR_RETURN(gpl::GplRunResult run,
                           executor.Run(segmented, gpl_options));
      run_ms = MsSince(start);
      tuner_ms = run.tuner_wall_ms;
      return Status::OK();
    };
    const auto replay = [&]() {
      return ReplaySegments(db, engine, segmented, /*fused=*/true,
                            options.exec.host_threads, log, query_span.id(),
                            qid, &q);
    };
    if (c % 2 == 0) {
      GPL_RETURN_NOT_OK(replay());
      GPL_RETURN_NOT_OK(production());
    } else {
      GPL_RETURN_NOT_OK(production());
      GPL_RETURN_NOT_OK(replay());
    }
    unattributed_ms += run_ms - tuner_ms - q.functional_ms;
    tune_spans += static_cast<int64_t>(segmented.segments.size());
    layers.Add(q);
  }
  AddLayer(report, "plan.plan_ms", PerQuery(layers.plan_ms, n));
  AddLayer(report, "plan.segment_ms", PerQuery(layers.segment_ms, n));
  AddLayer(report, "model.tune_ms", PerQuery(layers.tune_ms, tune_spans));
  AddLayer(report, "core.functional_ms", PerQuery(layers.functional_ms, n));
  AddLayer(report, "core.functional_rows_per_s",
           static_cast<double>(layers.functional_rows) /
               (layers.functional_ms / 1e3));
  AddLayer(report, "core.unattributed_ms", PerQuery(unattributed_ms, n));
  return Status::OK();
}

/// Median queue wait and execution time of the service's own records, read
/// from the spans QueryService::ExportTrace emits (host ns on the timeline).
/// A record's optional "(queued)" span precedes its execution span.
void AddServiceSpanMetrics(const gpl::service::QueryService& service,
                           RunReport* report) {
  gpl::trace::TraceCollector collector;
  service.ExportTrace(&collector);
  std::vector<double> waits, execs;
  double queued_ms = 0.0;
  for (const gpl::trace::SpanEvent& span : collector.spans()) {
    const double ms = (span.end_cycles - span.start_cycles) / 1e6;
    if (span.category == "service.queue") {
      queued_ms = ms;
    } else if (span.category == "service.exec") {
      waits.push_back(queued_ms);
      execs.push_back(ms);
      queued_ms = 0.0;
    }
  }
  AddLayer(report, "service.queue_wait_p50_ms", Median(waits));
  AddLayer(report, "service.exec_p50_ms", Median(execs));
}

}  // namespace

Result<RunReport> RunServeZipfSf02(const Args& args, const DigestMap& digests) {
  constexpr double kSf = 0.2;
  constexpr size_t kOutstanding = 2;
  constexpr size_t kWarmupQueries = 2000;  // 2-3 s at ~800 queries/s
  const std::vector<QueryClass> classes = QueryClasses();
  gpl::service::ServiceOptions options;
  // Two serial workers and one polling client leave a core of the four
  // spare; with four workers on nproc host threads each (and a 64 MiB
  // cache), ten runs of the same code spread by up to 36 % in p50.
  options.num_workers = 2;
  options.engine.mode = gpl::EngineMode::kFused;
  options.engine.exec.host_threads = 1;
  // The cache holds every class's subplan data, so after the warm-up the
  // window serves from it. At 64, 96 and 112 MiB it thrashed instead: the
  // hit rate, and with it throughput, swung by 30-40 % between seeds and
  // between runs of one seed, far past the benchmark's bounds.
  options.subplan_cache = true;
  options.subplan_cache_mb = 256;

  SetupTimes setup;
  std::unique_ptr<gpl::tpch::Database> db;
  std::unique_ptr<gpl::service::QueryService> service;
  for (int rep = 0; rep < kSetups; ++rep) {
    service.reset();
    db.reset();
    const auto start = Clock::now();
    db = std::make_unique<gpl::tpch::Database>(
        gpl::tpch::Generate({.scale_factor = kSf}));
    setup.generate_ms.push_back(MsSince(start));
    const auto engine_start = Clock::now();
    service = std::make_unique<gpl::service::QueryService>(db.get(), options);
    setup.engine_ms.push_back(MsSince(engine_start));
    setup.total_s.push_back(MsSince(start) / 1e3);
  }
  setup.rows_generated = DatabaseRows(*db);

  // Zipf(1.0) over the classes in their fixed rank order.
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t r = 0; r < classes.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(total);
  }
  // p95, not p99: p99 moved with single bursts of slow queries; p95 lies in
  // the body of the distribution and still has hundreds of samples beyond.
  StreamMix mix{{}, 95.0};
  for (size_t r = 0; r < classes.size(); ++r) {
    mix.share.push_back(1.0 / static_cast<double>(r + 1) / total);
  }
  Rng rng(args.seed);
  const auto draw = [&]() {
    const double u = rng.Uniform() * total;
    return static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin());
  };

  RunReport report;
  Spans spans;
  struct Pending {
    gpl::service::QueryHandle handle;
    size_t record = 0;
    int span = -1;
    Clock::time_point start;
  };
  // One client keeps kOutstanding queries in flight until `max_queries`
  // were submitted or `seconds` passed, then drains them. Every submission
  // gets a record (and a handle, empty when admission rejected it).
  const auto closed_loop =
      [&](size_t max_queries, double seconds, Spans* log,
          std::vector<QueryRecord>* records,
          std::vector<gpl::service::QueryHandle>* handles) {
        std::vector<Pending> pending;
        const auto start = Clock::now();
        for (;;) {
          while (pending.size() < kOutstanding &&
                 records->size() < max_queries &&
                 MsSince(start) < seconds * 1e3) {
            QueryRecord record;
            record.cls =
                std::min(draw(), static_cast<int>(classes.size()) - 1);
            const QueryClass& qc = classes[static_cast<size_t>(record.cls)];
            const auto qid = static_cast<int64_t>(records->size());
            Pending p;
            p.record = records->size();
            p.span = log == nullptr ? -1 : log->Open("query", -1, qid);
            p.start = Clock::now();
            Result<gpl::service::QueryHandle> handle = Status::OK();
            {
              ScopedSpan span(log, "submit", p.span, qid);
              handle = service->Submit(qc.name, qc.query);
            }
            if (handle.ok()) {
              p.handle = *handle;
              handles->push_back(*handle);
              pending.push_back(std::move(p));
            } else {
              // Rejected at admission: counts as a failed query.
              record.wall_ms = MsSince(p.start);
              if (log != nullptr) log->Close(p.span);
              handles->emplace_back();
            }
            records->push_back(record);
          }
          if (pending.empty()) return;
          bool progressed = false;
          for (size_t i = 0; i < pending.size();) {
            if (!pending[i].handle.Done()) {
              ++i;
              continue;
            }
            Pending p = std::move(pending[i]);
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
            QueryRecord& record = (*records)[p.record];
            {
              ScopedSpan span(log, "await", p.span,
                              static_cast<int64_t>(p.record));
              const Result<gpl::QueryResult>& result = p.handle.Await();
              record.ok = result.ok();
              if (result.ok()) record.metrics = result->metrics;
            }
            record.wall_ms = MsSince(p.start);
            if (log != nullptr) log->Close(p.span);
            progressed = true;
          }
          // Yield, not sleep: a 50-us sleep added 0.1 ms of timer wake-up to
          // a 0.5-ms p50, and its spread with it. Two workers and this
          // client still leave one core of the four spare.
          if (!progressed) std::this_thread::yield();
        }
      };

  // Warm-up, outside the window: the same closed loop until the subplan
  // cache holds every class, so the window measures a serving cache in its
  // steady state rather than its first fill.
  {
    std::vector<QueryRecord> warm;
    std::vector<gpl::service::QueryHandle> warm_handles;
    closed_loop(kWarmupQueries, 1e9, nullptr, &warm, &warm_handles);
    for (const QueryRecord& r : warm) {
      if (!r.ok) return Status::Internal("a warm-up query failed");
    }
  }
  const gpl::service::ServiceStats before = service->Stats();

  Spans* log = args.trace ? &spans : nullptr;
  std::vector<QueryRecord> records;
  std::vector<gpl::service::QueryHandle> handles;
  const auto window_start = Clock::now();
  closed_loop(SIZE_MAX, args.seconds, log, &records, &handles);
  const double window_s = MsSince(window_start) / 1e3;

  if (log != nullptr) {
    gpl::service::ServiceStats after;
    {
      ScopedSpan span(log, "stats", -1, -1);
      after = service->Stats();
    }
    const double hits = static_cast<double>(after.subplan_cache_hits -
                                            before.subplan_cache_hits);
    const double misses = static_cast<double>(after.subplan_cache_misses -
                                              before.subplan_cache_misses);
    AddLayer(&report, "pool.subplan_hit_rate",
             hits + misses == 0.0 ? 0.0 : hits / (hits + misses));
    AddLayer(&report, "pool.attaches",
             static_cast<double>(after.subplan_attaches -
                                 before.subplan_attaches));
    AddLayer(&report, "pool.evictions",
             static_cast<double>(after.subplan_evictions -
                                 before.subplan_evictions));
    AddLayer(&report, "pool.bytes_mb",
             static_cast<double>(after.subplan_bytes) / (1 << 20));
    AddLayer(&report, "service.rejected",
             static_cast<double>(after.rejected - before.rejected));
    AddLayer(&report, "service.max_queue_depth",
             static_cast<double>(after.max_queue_depth));
    {
      ScopedSpan span(log, "export_trace", -1, -1);
      AddServiceSpanMetrics(*service, &report);
    }
    int64_t cache_hits = 0, cache_lookups = 0;
    double client_ms = 0.0;
    for (const QueryRecord& r : records) {
      cache_hits += r.metrics.tuning_cache_hits;
      cache_lookups +=
          r.metrics.tuning_cache_hits + r.metrics.tuning_cache_misses;
      client_ms += r.wall_ms;
    }
    AddLayer(&report, "model.tuning_cache_hit_rate",
             cache_lookups == 0 ? 0.0
                                : static_cast<double>(cache_hits) /
                                      static_cast<double>(cache_lookups));
    // The traced client adds only span records around Submit and Await:
    // their measured unit cost times the spans recorded, per client wall.
    const size_t window_spans = spans.spans().size();
    Spans probe;
    const auto probe_start = Clock::now();
    constexpr int kProbeSpans = 10000;
    for (int i = 0; i < kProbeSpans; ++i) {
      probe.Close(probe.Open("probe", -1, i));
    }
    const double span_ms = MsSince(probe_start) / kProbeSpans;
    AddLayer(&report, "bench.trace_overhead_pct",
             100.0 * span_ms * static_cast<double>(window_spans) / client_ms);
    GPL_RETURN_NOT_OK(
        ReplayClassesFused(*db, classes, options.engine, log, &report));
    GPL_RETURN_NOT_OK(AddPrimitiveMetrics(*db, &report));
    if (!args.spans_path.empty()) {
      GPL_RETURN_NOT_OK(spans.WriteJson(args.spans_path));
    }
  }

  std::vector<Table> tables;
  for (gpl::service::QueryHandle& handle : handles) {
    tables.push_back(handle.valid() && handle.Await().ok()
                         ? handle.Await()->table
                         : Table());
  }
  GPL_RETURN_NOT_OK(Finish(classes, mix, kSf, digests, tables, &records,
                           window_s, setup, args.trace, &report));
  if (log != nullptr) CanonicalizeLayers(&report);
  return report;
}

Result<RunReport> RunPowerSf1(const Args& args, const DigestMap& digests) {
  // ~85 queries per 30 s: p85 leaves about 13 beyond.
  return RunEngineWorkload(args, digests, /*sf=*/1.0, /*shards=*/1,
                           gpl::HostHardwareThreads(),
                           /*tail_percentile=*/85.0);
}

Result<RunReport> RunShardedX4Sf05(const Args& args, const DigestMap& digests) {
  // Serial host execution: the four shards run one after another, each on
  // an eighth of a million lineitem rows, so nproc threads bought no speed
  // (p50 178 ms against 174 ms serial) and only scheduler noise.
  // 120-200 queries per 40 s: p90 leaves 12-20 beyond.
  return RunEngineWorkload(args, digests, /*sf=*/0.5, /*shards=*/4,
                           /*host_threads=*/1, /*tail_percentile=*/90.0);
}

}  // namespace perfbench
