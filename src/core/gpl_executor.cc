#include "core/gpl_executor.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "exec/fused_kernel.h"
#include "exec/primitives.h"
#include "plan/fusion.h"

namespace gpl {

namespace {
// Estimated bytes per hash-table entry when the table has not been built yet
// (buckets + key/row/next arrays).
constexpr double kHashEntryBytes = 32.0;

/// The type-erased payload of a cached segment: everything a warm run needs
/// to replay the segment without executing it. `stages`/`stage_timings`/
/// `num_tiles` feed the timing simulation (which re-runs on every hit, so
/// simulated observables stay bit-identical to the cold run); `output`/`hash`
/// carry the functional result.
struct CachedSegment {
  std::shared_ptr<const Table> output;
  std::shared_ptr<const HashJoinState> hash;  ///< build segments only
  std::vector<StageObservation> stages;       ///< per-original-stage actuals
  /// Post-execution timing descriptors, one per original stage. Most kernels'
  /// descriptors are state-free, but the hash build's reflects the built
  /// table — a hit must simulate with the cold run's exact descriptors.
  std::vector<sim::KernelTimingDesc> stage_timings;
  int64_t input_rows = 0;
  int64_t input_bytes = 0;
  int64_t num_tiles = 0;
  int64_t bytes = 0;  ///< retention charge (hash state or output table)
};

/// Aborts an owned subplan-cache compute on unwind unless disarmed: error
/// paths between Acquire and Publish must wake the waiters to retry.
class ComputeTicket {
 public:
  ComputeTicket() = default;
  ~ComputeTicket() {
    if (cache_ != nullptr) cache_->Abort(key_);
  }
  ComputeTicket(const ComputeTicket&) = delete;
  ComputeTicket& operator=(const ComputeTicket&) = delete;

  void Arm(pool::SubplanCache* cache, std::string key) {
    cache_ = cache;
    key_ = std::move(key);
  }
  void Disarm() { cache_ = nullptr; }

 private:
  pool::SubplanCache* cache_ = nullptr;
  std::string key_;
};
}  // namespace

const char* SubplanOutcomeName(SubplanOutcome outcome) {
  switch (outcome) {
    case SubplanOutcome::kBypass:
      return "off";
    case SubplanOutcome::kMiss:
      return "miss";
    case SubplanOutcome::kHit:
      return "hit";
  }
  return "unknown";
}

GplExecutor::GplExecutor(const tpch::Database* db,
                         const sim::Simulator* simulator,
                         const model::CalibrationTable* calibration,
                         model::TuningCache* tuning_cache,
                         pool::SubplanCache* subplan_cache)
    : db_(db),
      simulator_(simulator),
      calibration_(calibration),
      tuning_cache_(tuning_cache),
      subplan_cache_(subplan_cache),
      cost_model_(simulator->device(), calibration) {
  GPL_CHECK(db_ != nullptr && simulator_ != nullptr && calibration_ != nullptr);
  // The database identity every cache key embeds: the instance plus its
  // table cardinalities (a regenerated database at another scale factor must
  // never collide, even if the allocator reuses the address).
  char ptr_buf[32];
  std::snprintf(ptr_buf, sizeof(ptr_buf), "%p", static_cast<const void*>(db_));
  db_tag_ = ptr_buf;
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    const Table* table = db_->ByName(name);
    db_tag_ += ':';
    db_tag_ += std::to_string(table == nullptr ? -1 : table->num_rows());
  }
}

Result<std::shared_ptr<const Table>> GplExecutor::ResolveInput(
    const Segment& segment,
    const std::vector<std::shared_ptr<const Table>>& prior_outputs,
    pool::SubplanCache* cache) const {
  if (!segment.input_table.empty()) {
    const Table* base = db_->ByName(segment.input_table);
    if (base == nullptr) {
      return Status::NotFound("unknown table: " + segment.input_table);
    }
    const auto build_view = [&]() -> Result<Table> {
      Table view(segment.input_table);
      for (const std::string& col : segment.input_columns) {
        const std::string name = segment.input_alias.empty()
                                     ? col
                                     : segment.input_alias + "_" + col;
        // A slice view shares the base column's buffer: no copy.
        const Column& column = base->GetColumn(col);
        GPL_RETURN_NOT_OK(view.AddColumn(name, column.Slice(0, column.size())));
      }
      return view;
    };
    if (cache == nullptr) {
      GPL_ASSIGN_OR_RETURN(Table view, build_view());
      return std::shared_ptr<const Table>(
          std::make_shared<const Table>(std::move(view)));
    }
    // Shared-scan path: concurrently admitted queries over the same
    // (table, alias, columns) leaf attach to one in-flight materialization,
    // and retained views charge the pool per column so overlapping views
    // share page runs.
    std::string key = "scan|" + db_tag_ + "|" + segment.input_table + "/" +
                      segment.input_alias + ":";
    for (const std::string& col : segment.input_columns) {
      key += col;
      key += ',';
    }
    pool::SubplanCache::Acquisition acq = cache->Acquire(key);
    if (acq.hit) {
      cache->AddScanRows(/*shared=*/true, base->num_rows());
      return std::static_pointer_cast<const Table>(acq.payload);
    }
    ComputeTicket ticket;
    ticket.Arm(cache, key);
    const auto scan_start = std::chrono::steady_clock::now();
    GPL_ASSIGN_OR_RETURN(Table view, build_view());
    const double cost_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - scan_start)
                               .count();
    auto shared_view = std::make_shared<const Table>(std::move(view));
    std::vector<pool::SubplanCache::SharedUnit> units;
    units.reserve(segment.input_columns.size());
    for (const std::string& col : segment.input_columns) {
      pool::SubplanCache::SharedUnit unit;
      unit.key = "col|" + db_tag_ + "|" + segment.input_table + "." + col;
      unit.bytes = base->GetColumn(col).byte_size();
      units.push_back(std::move(unit));
    }
    cache->Publish(key, shared_view, shared_view->byte_size(), cost_ms, units);
    ticket.Disarm();
    cache->AddScanRows(/*shared=*/false, base->num_rows());
    return std::shared_ptr<const Table>(shared_view);
  }
  if (segment.input_segment >= 0 &&
      segment.input_segment < static_cast<int>(prior_outputs.size())) {
    const auto& prior =
        prior_outputs[static_cast<size_t>(segment.input_segment)];
    if (prior != nullptr) return prior;
  }
  return Status::InvalidArgument("segment has no input source");
}

model::SegmentDesc GplExecutor::DescribeSegment(const Segment& segment,
                                                int64_t input_rows,
                                                int64_t input_bytes) const {
  model::SegmentDesc desc;
  desc.input_bytes = static_cast<double>(input_bytes);
  double rows = static_cast<double>(input_rows);
  double bytes = static_cast<double>(input_bytes);
  for (const Stage& stage : segment.stages) {
    stage.kernel->PrepareTiming();
    model::StageDesc sd;
    sd.timing = stage.kernel->timing();
    sd.rows_in = rows;
    sd.bytes_in = bytes;
    sd.rows_out = stage.est_rows_out;
    sd.bytes_out = stage.est_bytes_out();
    // A not-yet-built hash table's working set is estimated from the rows
    // that will be inserted.
    if ((sd.timing.name == "k_hash_build" ||
         sd.timing.name == "k_partition_build") &&
        sd.timing.random_working_set_bytes == 0) {
      sd.timing.random_working_set_bytes =
          static_cast<int64_t>(rows * kHashEntryBytes);
      sd.timing.random_access_fraction =
          sd.timing.random_access_fraction > 0 ? sd.timing.random_access_fraction
                                               : 0.7;
      sd.bytes_out = static_cast<double>(sd.timing.random_working_set_bytes);
    }
    desc.extra_resident_bytes += sd.timing.random_working_set_bytes;
    desc.stages.push_back(sd);
    rows = std::max(sd.rows_out, 0.0);
    bytes = std::max(sd.bytes_out, 0.0);
  }
  return desc;
}

Result<GplRunResult> GplExecutor::Run(const SegmentedPlan& plan,
                                      const GplOptions& options) const {
  GplRunResult result;

  // Host parallelism for the functional kernel bodies and the tuner grid,
  // scoped to this run. Purely host-side: the simulated timing below is
  // computed from descriptors and observed cardinalities, never from how
  // fast (or how parallel) the host produced them.
  ScopedHostParallelism host_parallelism(options.exec.host_threads);

  // Fresh functional state for every run.
  for (const Segment& segment : plan.segments) {
    for (const Stage& stage : segment.stages) stage.kernel->Reset();
  }

  // Data memoization is bypassed entirely under fault injection: an injected
  // fault must hit the same launch/reservation sites as isolated execution,
  // and a cache hit would skip some of them.
  pool::SubplanCache* cache =
      options.exec.fault == nullptr ? subplan_cache_ : nullptr;

  std::vector<std::shared_ptr<const Table>> outputs(plan.segments.size());
  for (size_t i = 0; i < plan.segments.size(); ++i) {
    // Cancellation/deadline check at the segment boundary: a cancelled run
    // unwinds here instead of simulating the remaining segments.
    if (options.exec.cancel != nullptr) {
      GPL_RETURN_NOT_OK(options.exec.cancel->Check());
    }
    const Segment& segment = plan.segments[i];
    const auto segment_start = std::chrono::steady_clock::now();
    GPL_ASSIGN_OR_RETURN(std::shared_ptr<const Table> input,
                         ResolveInput(segment, outputs, cache));

    const model::SegmentDesc desc =
        DescribeSegment(segment, input->num_rows(), input->byte_size());

    // Fusion pass (fused mode only). The grouping is deterministic from the
    // segment's stages, so it is part of the tuning-cache scope below.
    std::vector<int> group_sizes;
    if (options.fused) {
      const FusionPlan fusion = PlanFusion(segment);
      group_sizes.reserve(fusion.groups.size());
      for (const FusedGroup& group : fusion.groups) {
        group_sizes.push_back(static_cast<int>(group.count));
      }
    }
    // The engine scope keys cached choices to the mode (and, for the fused
    // mode, the fusion grouping) they were tuned for: modes search different
    // spaces, so a hit must never cross modes.
    std::string engine_scope;
    if (options.fused) {
      engine_scope = "fused:";
      for (size_t g = 0; g < group_sizes.size(); ++g) {
        if (g > 0) engine_scope += ',';
        engine_scope += std::to_string(group_sizes[g]);
      }
    } else {
      engine_scope = options.concurrent ? "gpl" : "noce";
    }

    // The tuning signature pins device, per-stage descriptors/estimates,
    // overrides, and engine scope. The subplan key embeds it (plus the
    // functional chain signature and database tag), so a subplan hit
    // provably replays under the same tuned parameters as its cold run.
    const bool tuning_cache_enabled =
        tuning_cache_ != nullptr && options.exec.use_tuning_cache;
    std::string tuning_signature;
    if ((options.exec.use_cost_model && tuning_cache_enabled) ||
        cache != nullptr) {
      tuning_signature = model::TuningCache::SegmentSignature(
          simulator_->device(), desc, options.exec.overrides, engine_scope);
    }

    // ---- Subplan-cache lookup (data memoization) ----
    std::shared_ptr<const CachedSegment> cached;
    ComputeTicket ticket;
    std::string seg_key;
    SubplanOutcome subplan = SubplanOutcome::kBypass;
    if (cache != nullptr && !segment.uncacheable &&
        !segment.chain_signature.empty()) {
      seg_key = "seg|" + db_tag_ + "|" +
                (options.exec.use_cost_model ? "cm|" : "def|") +
                segment.chain_signature + "|" + tuning_signature;
      pool::SubplanCache::Acquisition acq = cache->Acquire(seg_key);
      if (acq.hit) {
        cached = std::static_pointer_cast<const CachedSegment>(acq.payload);
        subplan = SubplanOutcome::kHit;
        ++result.subplan_cache_hits;
      } else {
        ticket.Arm(cache, seg_key);
        subplan = SubplanOutcome::kMiss;
        ++result.subplan_cache_misses;
      }
    }

    // ---- Parameter tuning (the <5 ms query-optimization step) ----
    const auto tune_start = std::chrono::steady_clock::now();
    const model::TuningOverrides& overrides = options.exec.overrides;
    model::TuningChoice choice;
    bool tuning_cache_hit = false;
    if (options.exec.use_cost_model) {
      bool& hit = tuning_cache_hit;
      if (tuning_cache_enabled) {
        if (auto tuned = tuning_cache_->Lookup(tuning_signature)) {
          choice = std::move(*tuned);
          hit = true;
        }
      }
      if (hit) {
        ++result.tuning_cache_hits;
      } else {
        choice = options.fused
                     ? model::TuneSegmentEngines(cost_model_, desc,
                                                 *calibration_, group_sizes,
                                                 overrides)
                     : model::TuneSegment(cost_model_, desc, *calibration_,
                                          overrides);
        if (tuning_cache_enabled) {
          tuning_cache_->Insert(tuning_signature, choice);
          ++result.tuning_cache_misses;
        }
      }
    } else {
      choice.params.tile_bytes =
          overrides.tile_bytes > 0 ? overrides.tile_bytes
                                   : MiB(1);  // the paper's default Δ
      const int wg = overrides.workgroups_per_kernel > 0
                         ? overrides.workgroups_per_kernel
                         : 2 * simulator_->device().num_cus;
      bool default_fused = false;
      if (options.fused) {
        for (int size : group_sizes) default_fused |= size > 1;
      }
      if (default_fused) {
        // Without the cost model the fused mode fuses every legal chain.
        choice.engine = model::SegmentEngine::kFused;
        choice.fused_group_sizes = group_sizes;
        choice.params.workgroups.assign(group_sizes.size(), wg);
        choice.estimate = cost_model_.EstimateSegmentSequential(
            model::ComposeFusedSegment(desc, group_sizes), choice.params);
      } else {
        choice.params.workgroups.assign(segment.stages.size(), wg);
        for (size_t g = 0; g + 1 < segment.stages.size(); ++g) {
          choice.params.channels.push_back(
              overrides.has_channel ? overrides.channel : sim::ChannelConfig{});
        }
        choice.estimate = cost_model_.EstimateSegment(desc, choice.params);
      }
    }
    result.tuner_wall_ms +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - tune_start)
            .count();

    const bool run_fused = options.fused &&
                           choice.engine == model::SegmentEngine::kFused &&
                           !choice.fused_group_sizes.empty();

    // ---- Functional execution (real results + observed cardinalities) ----
    // The fused path streams tiles through a segment whose fusible chains
    // are collapsed into FusedKernels; results are bit-identical because the
    // composed body replays the exact per-stage flow (see FusedKernel).
    // On a subplan-cache hit the functional pass is skipped entirely: the
    // cached entry carries the cold run's per-stage observations, and the
    // timing simulation below replays them unchanged.
    Segment exec_segment;
    std::vector<std::shared_ptr<FusedKernel>> group_kernels;
    FunctionalRun func;
    if (cached == nullptr) {
      if (run_fused) {
        exec_segment.output_is_hash_build = segment.output_is_hash_build;
        size_t next = 0;
        for (int size_i : choice.fused_group_sizes) {
          const size_t size = static_cast<size_t>(size_i);
          Stage stage = segment.stages[next + size - 1];  // tail's estimates
          if (size > 1) {
            std::vector<KernelPtr> children;
            children.reserve(size);
            for (size_t s = next; s < next + size; ++s) {
              children.push_back(segment.stages[s].kernel);
            }
            auto fused_kernel =
                std::make_shared<FusedKernel>(std::move(children));
            stage.kernel = fused_kernel;
            group_kernels.push_back(std::move(fused_kernel));
          } else {
            group_kernels.push_back(nullptr);
          }
          exec_segment.stages.push_back(std::move(stage));
          next += size;
        }
      }
      Result<FunctionalRun> func_result =
          RunSegmentFunctional(run_fused ? exec_segment : segment, *input,
                               choice.params.tile_bytes);
      GPL_RETURN_NOT_OK(func_result.status());  // ticket aborts on unwind
      func = func_result.take();
    }

    // Per-original-stage observations: replayed from the cache on a hit;
    // expanded from the FusedKernels' recorded child cardinalities on a cold
    // fused run (so EXPLAIN ANALYZE and the composed timing below see the
    // same per-stage actuals as an unfused run); taken as-is otherwise.
    FunctionalRun observations;
    if (cached != nullptr) {
      observations.input_rows = cached->input_rows;
      observations.input_bytes = cached->input_bytes;
      observations.num_tiles = cached->num_tiles;
      observations.stages = cached->stages;
    } else if (run_fused) {
      observations.input_rows = func.input_rows;
      observations.input_bytes = func.input_bytes;
      observations.num_tiles = func.num_tiles;
      for (size_t g = 0; g < group_kernels.size(); ++g) {
        if (group_kernels[g] == nullptr) {
          observations.stages.push_back(func.stages[g]);
          continue;
        }
        const auto& child_obs = group_kernels[g]->observations();
        for (size_t c = 0; c < child_obs.size(); ++c) {
          StageObservation so;
          so.rows_in = child_obs[c].rows_in;
          so.bytes_in = child_obs[c].bytes_in;
          so.rows_out = child_obs[c].rows_out;
          so.bytes_out = child_obs[c].bytes_out;
          observations.stages.push_back(so);
        }
      }
    } else {
      observations.input_rows = func.input_rows;
      observations.input_bytes = func.input_bytes;
      observations.num_tiles = func.num_tiles;
      observations.stages = std::move(func.stages);
    }

    // Fusion accounting, derived from the chosen grouping and the
    // per-original-stage observations — identical on cold runs and cache
    // hits (interior hand-offs stay in registers: neither materialized nor
    // channeled).
    int fused_groups = 0;
    int launches_saved = 0;
    int64_t fused_bytes_avoided = 0;
    if (run_fused) {
      size_t next = 0;
      for (int size_i : choice.fused_group_sizes) {
        const size_t size = static_cast<size_t>(size_i);
        if (size > 1) {
          ++fused_groups;
          launches_saved += static_cast<int>(size) - 1;
          for (size_t c = next; c + 1 < next + size; ++c) {
            fused_bytes_avoided += observations.stages[c].bytes_out;
          }
        }
        next += size;
      }
    }

    // Post-execution per-stage timing descriptors: live kernels on a cold
    // run, the cold run's recorded descriptors on a hit (the hash build's
    // descriptor reflects the built table, which a hit never rebuilds).
    const auto stage_timing = [&](size_t s) -> sim::KernelTimingDesc {
      return cached != nullptr ? cached->stage_timings[s]
                               : segment.stages[s].kernel->timing();
    };

    // ---- Timing simulation with observed cardinalities ----
    SegmentReport report;
    sim::PipelineSpec spec;
    spec.tile_bytes = choice.params.tile_bytes;
    spec.extra_resident_bytes = desc.extra_resident_bytes;
    if (run_fused) {
      // One launch per group; fused groups get the composed timing
      // descriptor built from the *observed* per-stage cardinalities.
      size_t next = 0;
      for (size_t g = 0; g < choice.fused_group_sizes.size(); ++g) {
        const size_t size =
            static_cast<size_t>(choice.fused_group_sizes[g]);
        sim::KernelLaunch launch;
        if (size == 1) {
          launch.desc = stage_timing(next);
        } else {
          std::vector<model::StageDesc> observed;
          observed.reserve(size);
          for (size_t s = next; s < next + size; ++s) {
            model::StageDesc sd;
            sd.timing = desc.stages[s].timing;
            const StageObservation& obs = observations.stages[s];
            sd.rows_in = static_cast<double>(obs.rows_in);
            sd.bytes_in = static_cast<double>(obs.bytes_in);
            sd.rows_out = static_cast<double>(obs.rows_out);
            sd.bytes_out = static_cast<double>(obs.bytes_out);
            observed.push_back(std::move(sd));
          }
          launch.desc = model::ComposeFusedStage(observed, 0, size).timing;
        }
        const StageObservation& first = observations.stages[next];
        const StageObservation& last = observations.stages[next + size - 1];
        launch.rows_in = first.rows_in;
        launch.bytes_in = first.bytes_in;
        launch.rows_out = last.rows_out;
        launch.bytes_out = last.bytes_out;
        launch.workgroups_per_tile =
            g < choice.params.workgroups.size() ? choice.params.workgroups[g]
                                                : 0;
        launch.input = sim::Endpoint::kGlobal;
        launch.output = sim::Endpoint::kGlobal;
        if (!report.description.empty()) report.description += " -> ";
        report.description += launch.desc.name;
        spec.kernels.push_back(std::move(launch));
        next += size;
      }
    } else {
      const size_t num_stages = segment.stages.size();
      for (size_t s = 0; s < num_stages; ++s) {
        sim::KernelLaunch launch;
        launch.desc = stage_timing(s);
        const StageObservation& obs = observations.stages[s];
        launch.rows_in = obs.rows_in;
        launch.bytes_in = obs.bytes_in;
        launch.rows_out = obs.rows_out;
        launch.bytes_out = obs.bytes_out;
        launch.workgroups_per_tile =
            s < choice.params.workgroups.size() ? choice.params.workgroups[s]
                                                : 0;
        launch.input =
            s == 0 ? sim::Endpoint::kGlobal : sim::Endpoint::kChannel;
        launch.output = s + 1 == num_stages ? sim::Endpoint::kGlobal
                                            : sim::Endpoint::kChannel;
        spec.kernels.push_back(std::move(launch));
      }
      spec.channel_configs = choice.params.channels;
      while (spec.channel_configs.size() + 1 < num_stages) {
        spec.channel_configs.push_back(sim::ChannelConfig{});
      }
      for (size_t s = 0; s < num_stages; ++s) {
        if (!report.description.empty()) report.description += " -> ";
        report.description += segment.stages[s].kernel->name();
      }
    }
    for (const Stage& stage : segment.stages) {
      report.stage_names.push_back(stage.kernel->name());
    }

    spec.trace = options.exec.trace;
    spec.fault = options.exec.fault;
    spec.label = "segment " + std::to_string(i) + ": " + report.description;
    GPL_SLOG(Debug, "core")
        .Field("segment", spec.label)
        .Field("tile_bytes", spec.tile_bytes)
        .Field("kernels", spec.kernels.size())
        .Field("concurrent", options.concurrent)
        .Field("engine", model::SegmentEngineName(
                             run_fused ? model::SegmentEngine::kFused
                                       : choice.engine))
        << "running segment";

    Result<sim::SimResult> sim_result = Status::OK();
    if (run_fused) {
      sim::Simulator::FusedAccounting accounting;
      accounting.fused_kernels = fused_groups;
      accounting.launches_saved = launches_saved;
      accounting.bytes_avoided = fused_bytes_avoided;
      sim_result = simulator_->RunFusedSegment(spec, accounting);
      report.engine = model::SegmentEngine::kFused;
    } else if (options.fused &&
               choice.engine == model::SegmentEngine::kKernelAtATime) {
      sim_result = simulator_->RunSequentialTiles(spec);
      report.engine = model::SegmentEngine::kKernelAtATime;
    } else {
      report.engine = options.concurrent
                          ? model::SegmentEngine::kGplChannel
                          : model::SegmentEngine::kKernelAtATime;
      sim_result = options.concurrent ? simulator_->RunPipeline(spec)
                                      : simulator_->RunSequentialTiles(spec);
      if (!sim_result.ok() &&
          sim_result.status().code() == StatusCode::kChannelAllocFailed &&
          options.exec.degrade_on_channel_failure) {
        // Graceful degradation: the pipelined segment could not get its
        // channels, so re-execute it kernel-at-a-time (the w/o-CE path needs
        // none). The functional output is already computed and unaffected;
        // only the simulated timing of this segment degrades.
        GPL_SLOG(Warning, "core").Field("segment", spec.label)
            << "degrading to kernel-at-a-time: "
            << sim_result.status().ToString();
        sim_result = simulator_->RunSequentialTiles(spec);
        if (sim_result.ok()) {
          report.degraded = true;
          report.engine = model::SegmentEngine::kKernelAtATime;
          ++result.degraded_segments;
        }
      }
    }
    GPL_RETURN_NOT_OK(sim_result.status());  // ticket aborts on unwind
    report.sim = sim_result.take();

    result.counters.Accumulate(report.sim.counters);
    result.total_cycles += report.sim.counters.elapsed_cycles;
    result.predicted_total_cycles += choice.estimate.total_cycles;
    if (run_fused) {
      ++result.fused_segments;
      result.fused_launches_saved += launches_saved;
      result.fused_bytes_avoided += fused_bytes_avoided;
      report.fused_groups = fused_groups;
      report.launches_saved = launches_saved;
      report.fused_bytes_avoided = fused_bytes_avoided;
    }

    // ---- Segment output: replay, publish, or pass through ----
    std::shared_ptr<const Table> out_ptr;
    if (cached != nullptr) {
      out_ptr = cached->output;
      if (segment.output_is_hash_build && segment.hash_state != nullptr) {
        // Downstream probe kernels read the cached snapshot through
        // HashJoinState::probe_table()/probe_rows().
        segment.hash_state->shared = cached->hash;
      }
    } else if (subplan == SubplanOutcome::kMiss) {
      auto entry = std::make_shared<CachedSegment>();
      entry->stages = observations.stages;
      entry->input_rows = observations.input_rows;
      entry->input_bytes = observations.input_bytes;
      entry->num_tiles = observations.num_tiles;
      entry->stage_timings.reserve(segment.stages.size());
      for (const Stage& stage : segment.stages) {
        entry->stage_timings.push_back(stage.kernel->timing());
      }
      out_ptr = std::make_shared<const Table>(std::move(func.output));
      entry->output = out_ptr;
      if (segment.output_is_hash_build && segment.hash_state != nullptr) {
        // Move the built state into an immutable snapshot and leave the
        // live state reading through it, exactly as a future hit would.
        auto snap = std::make_shared<HashJoinState>();
        snap->table = std::move(segment.hash_state->table);
        snap->build_rows = std::move(segment.hash_state->build_rows);
        snap->build_rows_initialized =
            segment.hash_state->build_rows_initialized;
        segment.hash_state->table = JoinHashTable();
        segment.hash_state->build_rows = Table();
        segment.hash_state->build_rows_initialized = false;
        segment.hash_state->shared = snap;
        entry->hash = snap;
        entry->bytes =
            snap->table.byte_size() + snap->build_rows.byte_size();
      } else {
        entry->bytes = out_ptr->byte_size();
      }
      const double cost_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - segment_start)
              .count();
      cache->Publish(seg_key, entry, entry->bytes, cost_ms);
      ticket.Disarm();
    } else {
      out_ptr = std::make_shared<const Table>(std::move(func.output));
    }
    outputs[i] = out_ptr;

    report.subplan_cache = subplan;
    report.tuning = choice;
    report.predicted_cycles = choice.estimate.total_cycles;
    report.measured_cycles = report.sim.counters.elapsed_cycles;
    report.tuning_cache_hit = tuning_cache_hit;
    report.host_wall_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - segment_start)
                              .count();
    report.observations = std::move(observations);
    result.segments.push_back(std::move(report));
  }

  if (!outputs.empty() && outputs.back() != nullptr) {
    result.output = *outputs.back();
  }
  return result;
}

}  // namespace gpl
