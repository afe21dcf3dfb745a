#ifndef GPL_SHARD_SHARDED_EXECUTOR_H_
#define GPL_SHARD_SHARDED_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "model/exchange_model.h"
#include "plan/cardinality.h"
#include "plan/physical_plan.h"
#include "shard/device_group.h"
#include "shard/partitioner.h"
#include "sim/link.h"

namespace gpl {
namespace shard {

/// Estimated bytes the partial-aggregate gather ships to device 0: the
/// per-group partial state (counts and superaccumulator digits for sum/avg,
/// a bare running value for min/max — no count column, the combine never
/// consults one) from each of the `num_shards - 1` non-resident shards,
/// using the aggregate's estimated group count. Exposed so tests can pin
/// the estimate against the measured gather bytes of an actual execution.
int64_t EstimatePartialGatherBytes(const PhysicalOp& agg, int num_shards);

/// One Exchange operator of a distributed plan, for EXPLAIN-style reporting:
/// the relation it moves, how, and the cost model's prediction.
struct ExchangeOpReport {
  std::string table;
  ExchangeKind kind = ExchangeKind::kPassthrough;
  int64_t predicted_bytes = 0;
  double predicted_ms = 0.0;
};

/// A query planned for the shard group — the one object EXPLAIN prints,
/// EXPLAIN ANALYZE annotates and Execute runs, so what is shown is what is
/// charged. Built by ShardedExecutor::Plan and valid only for the executor
/// that built it.
struct DistributedPlan {
  std::string query;  ///< the query's name (trace spans, logs)
  int num_shards = 1;
  /// True when the aggregate was pushed down (combine-merge); false when the
  /// query falls back to the row-id stitch-and-replay merge.
  bool partial_aggregate = false;
  /// The physical plan over the unpartitioned catalog: `boundary` points
  /// into it, and the merge replays it above the boundary.
  PhysicalOpPtr plan;
  /// What every shard runs, Exchange operators inline. On a 1-device group
  /// this is `plan` itself, with no exchanges.
  PhysicalOpPtr shard_plan;
  /// The node of `plan` the merged table replaces.
  const PhysicalOp* boundary = nullptr;
  std::string rowid_column;      ///< stitch merge only
  model::ExchangePlan exchange;  ///< per-relation decisions and totals
  /// One entry per Exchange operator of `shard_plan`, each built from the
  /// same record as its operator: the relation decisions, the spine
  /// relocation, then the gather. Execute charges the relation entries
  /// exactly as listed; the gather ships what the shards produced.
  std::vector<ExchangeOpReport> exchanges;
};

/// Data-parallel execution of one query across a DeviceGroup: every device
/// runs the same exchange-annotated plan over its shard of the fact table,
/// per-shard results are gathered to device 0 over the group's link, and a
/// deterministic merge produces the final table.
///
/// Exchange operators are first-class plan nodes (PhysicalOp::kExchange):
/// planning wraps every non-fact scan of the shard subtree in an Exchange
/// whose kind (broadcast / repartition / co-partitioned passthrough) the
/// cost model picks per relation over the group's sim::Link, memoized in the
/// TuningCache. On a device the operator is an identity — the link cost is
/// charged once at the group level, exactly as priced.
///
/// Bit-identity. Double summation is non-associative, so merging per-shard
/// *rounded* aggregates could never be bit-identical to a single-device run.
/// Two merge strategies preserve exactness:
///
///  - Partial-aggregate pushdown (the fast path): when the subtree below the
///    plan's root aggregate provably partitions — every row of its output
///    lands on exactly one shard, which holds for spines bottoming out at
///    the partitioned fact scan joined against replicated or co-partitioned
///    relations — each shard runs the aggregate in partial mode
///    (AggregatePhase::kPartial), emitting exact superaccumulator digits for
///    sums and counts/min/max state. The merge combines partials per group
///    (CombinePartialAggregates — exact, order-independent) and replays only
///    the cheap remainder above the aggregate. The gather ships tiny
///    per-group state instead of fact-table rows.
///
///  - Row-id stitch (the fallback): the shard subtree carries the
///    partitioner's l_rowid column to its root; the merge concatenates the
///    partials, stable-sorts on l_rowid to restore exact fact-table row
///    order, and replays the rest of the plan from the boundary up
///    (KbeEngine::ExecuteWithInput) — same kernels, same rows, same order as
///    one device.
///
/// Both paths produce bit-identical tables to the single-device engine at
/// any shard count. Plans that never scan the fact table (or scan it twice)
/// are rejected with kUnimplemented. A 1-device group short-circuits to the
/// plain single-device path: no partitioning, no stitch, zero sharding tax.
///
/// Timing. Simulated elapsed = max over per-device times + serialized
/// exchange (broadcasts + the gather, priced by sim::Link) + the merge
/// charged on device 0. Counters sum all devices' work; per-device times and
/// utilizations land in QueryMetrics.
///
/// Thread-safety: like Engine, an instance is single-threaded; the
/// ShardedDatabase and the source database are read-only and shared.
class ShardedExecutor {
 public:
  /// `db` is the unpartitioned source (planning uses its global statistics),
  /// `sharded` the matching PartitionDatabase output; both must outlive the
  /// executor. `group.size()` must equal `sharded->num_shards()`.
  /// `options.device` is ignored (the group's specs are used); a shared
  /// `options.tuning_cache` is honored, as are per-execution ExecOptions.
  /// `calibrations` optionally supplies precomputed per-device-name
  /// calibration tables (the QueryService shares one map across workers);
  /// missing devices are calibrated here and owned by the executor.
  ShardedExecutor(
      const tpch::Database* db, const ShardedDatabase* sharded,
      DeviceGroup group, EngineOptions options,
      const std::map<std::string, model::CalibrationTable>* calibrations =
          nullptr);

  int num_shards() const { return group_.size(); }
  const DeviceGroup& group() const { return group_; }
  const sim::Link& link() const { return link_; }
  model::TuningCache& tuning_cache() const { return *tuning_cache_; }

  /// Plans `query` for the group: the exchange-annotated per-shard plan,
  /// the merge strategy and the priced exchanges. Nothing executes and no
  /// link traffic is recorded (the exchange plan is memoized in the
  /// TuningCache).
  Result<DistributedPlan> Plan(const LogicalQuery& query) const;

  /// Runs a plan built by this executor's Plan() (a plan for another shard
  /// count is kInvalidArgument).
  Result<QueryResult> Execute(const DistributedPlan& dist,
                              const ExecOptions& exec);
  /// Plan() then Execute(dist); `plan_wall_ms` times the Plan() call.
  Result<QueryResult> Execute(const LogicalQuery& query);
  Result<QueryResult> Execute(const LogicalQuery& query,
                              const ExecOptions& exec);

 private:
  /// Picks the merge strategy's shard subtree of `dist->plan`, then
  /// annotates it with Exchange operators (cost-model priced,
  /// TuningCache-memoized).
  Status PlanDistributed(DistributedPlan* dist) const;
  /// The fallback split: sets `dist`'s boundary (the node of `dist->plan`
  /// the merge replaces) and rowid column, and returns the shard subtree
  /// with l_rowid threaded to its root.
  Result<PhysicalOpPtr> SplitAndInject(DistributedPlan* dist) const;
  /// Exchange plan for the tables scanned inside the shard subtree (tables
  /// above the boundary run on the merge device and are never shipped).
  Result<model::ExchangePlan> ExchangeForPlan(
      const PhysicalOp& shard_subtree) const;

  const tpch::Database* db_;
  const ShardedDatabase* sharded_;
  DeviceGroup group_;
  EngineOptions options_;
  Catalog catalog_;  ///< global statistics of the unpartitioned source
  /// Calibrations computed here (one per distinct device name not covered
  /// by the shared map passed to the constructor).
  std::map<std::string, model::CalibrationTable> owned_calibrations_;
  std::unique_ptr<model::TuningCache> owned_tuning_cache_;
  model::TuningCache* tuning_cache_;  ///< owned or shared
  std::vector<std::unique_ptr<Engine>> engines_;  ///< one per shard/device
  sim::Link link_;  ///< accumulates exchange traffic across executions

  // Metrics handles (null without EngineOptions::metrics): exchange traffic
  // by kind, and accumulated simulated busy ms per device slot (the
  // per-shard makespan contribution of every completed query).
  obs::Counter* broadcast_bytes_counter_ = nullptr;
  obs::Counter* shuffle_bytes_counter_ = nullptr;
  std::vector<obs::Gauge*> slot_busy_gauges_;
};

}  // namespace shard
}  // namespace gpl

#endif  // GPL_SHARD_SHARDED_EXECUTOR_H_
