#include "shard/sharded_executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "common/logging.h"
#include "engine/kbe_engine.h"
#include "exec/exact_sum.h"
#include "exec/primitives.h"
#include "plan/selinger.h"
#include "shard/partition_scheme.h"
#include "sim/engine.h"
#include "trace/trace.h"

namespace gpl {
namespace shard {

namespace {

/// Cycles on `device` corresponding to `ms` (inverse of CyclesToMs).
double MsToCycles(const sim::DeviceSpec& device, double ms) {
  return ms * static_cast<double>(device.core_mhz) * 1e3;
}

/// Collects the referenced columns of every scan in the plan tree.
void CollectScanColumns(const PhysicalOp& op,
                        std::map<std::string, std::set<std::string>>* out) {
  if (op.kind == PhysicalOp::Kind::kScan) {
    std::set<std::string>& cols = (*out)[op.table];
    cols.insert(op.columns.begin(), op.columns.end());
  }
  if (op.child != nullptr) CollectScanColumns(*op.child, out);
  if (op.build_child != nullptr) CollectScanColumns(*op.build_child, out);
}

/// One step on the root-to-fact-scan path: the node, and whether the edge
/// from its parent was the build side of a hash join.
struct PathStep {
  const PhysicalOp* node;
  bool via_build;
};

/// Appends the path from `op` down to the scan of `fact` (inclusive).
/// Returns false (and leaves `path` unchanged) if the subtree has none.
bool FindFactPath(const PhysicalOp& op, const std::string& fact,
                  bool via_build, std::vector<PathStep>* path) {
  path->push_back({&op, via_build});
  if (op.kind == PhysicalOp::Kind::kScan && op.table == fact) return true;
  if (op.child != nullptr && FindFactPath(*op.child, fact, false, path)) {
    return true;
  }
  if (op.build_child != nullptr &&
      FindFactPath(*op.build_child, fact, true, path)) {
    return true;
  }
  path->pop_back();
  return false;
}

int CountFactScans(const PhysicalOp& op, const std::string& fact) {
  int n = (op.kind == PhysicalOp::Kind::kScan && op.table == fact) ? 1 : 0;
  if (op.child != nullptr) n += CountFactScans(*op.child, fact);
  if (op.build_child != nullptr) n += CountFactScans(*op.build_child, fact);
  return n;
}

/// New table without the named column (all other columns copied).
Table DropColumn(const Table& table, const std::string& column) {
  Table out(table.name());
  for (int64_t i = 0; i < table.num_columns(); ++i) {
    if (table.ColumnNameAt(i) == column) continue;
    GPL_CHECK_OK(out.AddColumn(table.ColumnNameAt(i), table.ColumnAt(i)));
  }
  return out;
}

ExchangeKind KindForStrategy(model::ExchangeStrategy strategy) {
  switch (strategy) {
    case model::ExchangeStrategy::kCoPartitioned:
      return ExchangeKind::kPassthrough;
    case model::ExchangeStrategy::kBroadcast:
      return ExchangeKind::kBroadcast;
    case model::ExchangeStrategy::kRepartition:
      return ExchangeKind::kRepartition;
  }
  return ExchangeKind::kPassthrough;
}

/// How one subtree's output is laid out across the shard group.
struct DistInfo {
  /// True: the union of per-shard outputs is exactly the global relation,
  /// each row on one shard. False: every shard holds the full relation.
  bool partitioned = false;
  /// The partition-equivalence set: every output column whose value, on
  /// each row, provably equals the fact partitioning key that routed the
  /// row to its shard. The set starts as the scan's partition column and
  /// grows through equi-join chains — a join key pair (p = b) with p in the
  /// set makes b partition-equivalent on every output row, and vice versa.
  /// Empty for replicated subtrees and for kRange partitioning (row-range
  /// partitions carry no key proof).
  std::set<std::string> partition_cols;
};

bool Contains(const std::set<std::string>& set, const std::string& name) {
  return set.find(name) != set.end();
}

/// The join-key column pairs of a hash join, for columns-only keys:
/// (probe_keys[i], build_keys[i]) as names. Pairs with expression keys are
/// skipped — an expression over the key loses the co-location proof.
std::vector<std::pair<std::string, std::string>> ColumnKeyPairs(
    const PhysicalOp& op) {
  std::vector<std::pair<std::string, std::string>> pairs;
  const size_t n = std::min(op.probe_keys.size(), op.build_keys.size());
  for (size_t i = 0; i < n; ++i) {
    std::string pk, bk;
    if (op.probe_keys[i]->IsColumnRef(&pk) &&
        op.build_keys[i]->IsColumnRef(&bk)) {
      pairs.emplace_back(std::move(pk), std::move(bk));
    }
  }
  return pairs;
}

/// Proves (conservatively) how the subtree's output distributes across
/// shards. Returns false when no proof exists (an aggregate, sort or
/// exchange inside the subtree) — the caller then falls back to the row-id
/// stitch. The invariants: "partitioned" outputs are disjoint across shards
/// with union equal to the single-device output; "replicated" outputs are
/// identical on every shard. Joins preserve them: probe-partitioned x
/// build-replicated (and the converse) emit each global row on exactly one
/// shard regardless of keys; partitioned x partitioned is shard-local iff
/// some aligned key pair joins the two sides' partition-equivalence sets —
/// matching rows then agree on a column the partitioner co-located, so they
/// live on the same shard. A compound key only tightens the match: extra
/// key pairs restrict rows, and a row subset preserves partitioning. This
/// is what admits the planner's merged multi-edge joins (e.g. Q5's
/// {l_orderkey, l_suppkey} = {o_orderkey, s_suppkey}: the aligned first
/// pair is the co-located one) and key-order permutations of the same join.
bool ClassifySubtree(const PhysicalOp& op, const ShardedDatabase& sharded,
                     DistInfo* out) {
  switch (op.kind) {
    case PhysicalOp::Kind::kScan: {
      out->partitioned = sharded.IsPartitioned(op.table);
      out->partition_cols.clear();
      if (out->partitioned &&
          sharded.options.scheme == PartitionScheme::kHash) {
        const std::string key = HashPartitionKeyColumn(op.table);
        if (!key.empty()) {
          out->partition_cols.insert(op.alias.empty()
                                         ? key
                                         : op.alias + "_" + key);
        }
      }
      return true;
    }
    case PhysicalOp::Kind::kFilter:
      // Row subset: distribution and surviving columns are unchanged.
      return ClassifySubtree(*op.child, sharded, out);
    case PhysicalOp::Kind::kProject: {
      if (!ClassifySubtree(*op.child, sharded, out)) return false;
      if (out->partitioned && !out->partition_cols.empty()) {
        // A key survives only through an identity projection (possibly
        // renamed); expressions over it lose the co-location proof.
        std::set<std::string> surviving;
        for (const ProjectedColumn& p : op.projections) {
          std::string name;
          if (p.expr->IsColumnRef(&name) && Contains(out->partition_cols, name)) {
            surviving.insert(p.name);
          }
        }
        out->partition_cols = std::move(surviving);
      }
      return true;
    }
    case PhysicalOp::Kind::kHashJoin: {
      DistInfo probe, build;
      if (!ClassifySubtree(*op.child, sharded, &probe)) return false;
      if (!ClassifySubtree(*op.build_child, sharded, &build)) return false;
      if (!probe.partitioned && !build.partitioned) {
        // Replicated x replicated: every shard computes the same join.
        out->partitioned = false;
        out->partition_cols.clear();
        return true;
      }
      const std::vector<std::pair<std::string, std::string>> pairs =
          ColumnKeyPairs(op);
      const std::set<std::string> payload(op.build_payload.begin(),
                                          op.build_payload.end());
      if (probe.partitioned && build.partitioned) {
        // Shard-local only when some aligned key pair joins the two
        // partition-equivalence sets: matching rows then share a co-located
        // key value, so they live on the same shard. Any other key pairs
        // merely restrict the match further.
        bool aligned = false;
        for (const auto& [pk, bk] : pairs) {
          if (Contains(probe.partition_cols, pk) &&
              Contains(build.partition_cols, bk)) {
            aligned = true;
            break;
          }
        }
        if (!aligned) return false;
      }
      // The output row lands on the shard of its probe row (or of its build
      // row when only the build side partitions) — partitioned either way.
      out->partitioned = true;
      out->partition_cols.clear();
      // Probe columns all flow through; build columns survive via payload.
      if (probe.partitioned) {
        out->partition_cols = probe.partition_cols;
      }
      if (build.partitioned) {
        for (const std::string& col : build.partition_cols) {
          if (Contains(payload, col)) out->partition_cols.insert(col);
        }
      }
      // Equi-join equivalence: on every output row each key pair satisfies
      // probe_col == build_col, so partition-equivalence crosses the join in
      // both directions — a build key tied to a partition-equivalent probe
      // key is itself partition-equivalent (if its column survives), and
      // vice versa. This threads the proof through functionally tied
      // compound keys (e.g. the partsupp spine's ps keys equal the fact's
      // l keys on every joined row).
      for (const auto& [pk, bk] : pairs) {
        const bool pk_in =
            probe.partitioned && Contains(probe.partition_cols, pk);
        const bool bk_in =
            build.partitioned && Contains(build.partition_cols, bk);
        if (pk_in && Contains(payload, bk)) out->partition_cols.insert(bk);
        if (bk_in) out->partition_cols.insert(pk);
      }
      return true;
    }
    default:
      // Aggregate/sort/exchange below the pushdown point: no proof.
      return false;
  }
}

/// One attach join on the fact path: the fact-side child (the probe spine a
/// repartition of the attached relations would re-key) and the estimated
/// bytes of its output (est_rows x 8 bytes/col x output columns).
struct AttachPoint {
  const PhysicalOp* spine_node = nullptr;
  int64_t spine_bytes = 0;
};

/// Maps every table scanned off the fact path of `subtree` to its attach
/// point — the hash join on the path where that table's subtree meets the
/// spine. Joins high on the path sit above selective filters and earlier
/// joins, so their spine is far narrower than the raw fact scan; pricing a
/// repartition against the attach-join spine (not the whole fact table)
/// is what lets mid-spine repartitions beat broadcasts honestly. A table
/// attaching at several joins keeps the widest spine (conservative).
/// Tables in a subtree with no fact scan get no entry (callers fall back
/// to fact bytes).
std::map<std::string, AttachPoint> FindAttachPoints(const PhysicalOp& subtree,
                                                    const std::string& fact) {
  std::map<std::string, AttachPoint> out;
  std::vector<PathStep> path;
  if (!FindFactPath(subtree, fact, false, &path)) return out;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const PhysicalOp* node = path[i].node;
    if (node->kind != PhysicalOp::Kind::kHashJoin) continue;
    const PhysicalOp* fact_child = path[i + 1].node;
    const PhysicalOp* off_spine = path[i + 1].via_build
                                      ? node->child.get()
                                      : node->build_child.get();
    AttachPoint point;
    point.spine_node = fact_child;
    point.spine_bytes = static_cast<int64_t>(
        fact_child->est_rows * 8.0 *
        static_cast<double>(OutputColumns(*fact_child).size()));
    std::map<std::string, std::set<std::string>> scans;
    CollectScanColumns(*off_spine, &scans);
    for (const auto& [table, columns] : scans) {
      auto it = out.find(table);
      if (it == out.end() || point.spine_bytes > it->second.spine_bytes) {
        out[table] = point;
      }
    }
  }
  return out;
}

/// The Exchange operator of one report record: the plan node EXPLAIN prints
/// and the entry it lists are one record, so they cannot disagree.
PhysicalOpPtr WrapInExchange(PhysicalOpPtr child, const ExchangeOpReport& op) {
  return MakeExchange(std::move(child), op.kind, op.table, op.predicted_bytes);
}

/// Deep-clones the tree, wrapping every non-fact scan that has a relation
/// record in its Exchange operator. The fact scan stays bare — it is the
/// pivot of the exchange, never itself moved. A repartitioning relation's
/// operator carries its own traffic only; the shared spine relocation its
/// plan may include is rendered once, as the `spine` record's repartition
/// Exchange wrapping `spine_node` (the fact-side child of the paying
/// relation's attach join) — the operator is an identity on a device, the
/// relocation is charged at the group level exactly as priced.
PhysicalOpPtr AnnotateExchanges(
    const PhysicalOp& op, const std::string& fact,
    const std::map<std::string, const ExchangeOpReport*>& relations,
    const PhysicalOp* spine_node, const ExchangeOpReport* spine) {
  auto copy = std::make_shared<PhysicalOp>(op);
  if (op.child != nullptr) {
    copy->child =
        AnnotateExchanges(*op.child, fact, relations, spine_node, spine);
  }
  if (op.build_child != nullptr) {
    copy->build_child =
        AnnotateExchanges(*op.build_child, fact, relations, spine_node, spine);
  }
  PhysicalOpPtr result = std::move(copy);
  if (op.kind == PhysicalOp::Kind::kScan && op.table != fact) {
    auto it = relations.find(op.table);
    if (it != relations.end()) {
      result = WrapInExchange(std::move(result), *it->second);
    }
  }
  if (&op == spine_node) result = WrapInExchange(std::move(result), *spine);
  return result;
}

}  // namespace

int64_t EstimatePartialGatherBytes(const PhysicalOp& agg, int num_shards) {
  int64_t per_row = 8 * static_cast<int64_t>(agg.group_by.size());
  for (const AggSpec& a : agg.aggregates) {
    switch (a.func) {
      case AggSpec::kSum:
      case AggSpec::kAvg:
        // Count + superaccumulator meta + digits.
        per_row += 8 * (2 + ExactFloat64Sum::kDigits);
        break;
      case AggSpec::kMin:
      case AggSpec::kMax:
        // Running value only — the partial wire format carries no count for
        // min/max (the combine never consults one).
        per_row += 8;
        break;
      case AggSpec::kCount:
        per_row += 8;  // count column
        break;
    }
  }
  const int64_t groups = static_cast<int64_t>(agg.est_rows);
  return per_row * groups * static_cast<int64_t>(num_shards - 1);
}

ShardedExecutor::ShardedExecutor(
    const tpch::Database* db, const ShardedDatabase* sharded, DeviceGroup group,
    EngineOptions options,
    const std::map<std::string, model::CalibrationTable>* calibrations)
    : db_(db),
      sharded_(sharded),
      group_(std::move(group)),
      options_(std::move(options)),
      catalog_(Catalog::FromDatabase(*db)),
      owned_tuning_cache_(options_.tuning_cache != nullptr
                              ? nullptr
                              : std::make_unique<model::TuningCache>()),
      tuning_cache_(options_.tuning_cache != nullptr
                        ? options_.tuning_cache
                        : owned_tuning_cache_.get()),
      link_(group_.link) {
  GPL_CHECK(db_ != nullptr && sharded_ != nullptr);
  GPL_CHECK(group_.size() == sharded_->num_shards())
      << "device group size " << group_.size() << " != shard count "
      << sharded_->num_shards();

  engines_.reserve(static_cast<size_t>(group_.size()));
  for (int i = 0; i < group_.size(); ++i) {
    const sim::DeviceSpec& device = group_.devices[static_cast<size_t>(i)];
    const model::CalibrationTable* calibration = nullptr;
    if (calibrations != nullptr) {
      auto it = calibrations->find(device.name);
      if (it != calibrations->end()) calibration = &it->second;
    }
    if (calibration == nullptr) {
      auto it = owned_calibrations_.find(device.name);
      if (it == owned_calibrations_.end()) {
        // One calibration per distinct device spec, shared by its shards.
        it = owned_calibrations_
                 .emplace(device.name,
                          model::CalibrationTable::Run(sim::Simulator(device)))
                 .first;
      }
      calibration = &it->second;
    }
    EngineOptions shard_options = options_;
    shard_options.device = device;
    shard_options.calibration = calibration;
    shard_options.tuning_cache = tuning_cache_;
    // Shard engines are leaves: strip anything that could re-shard.
    shard_options.sharded_db = nullptr;
    shard_options.device_calibrations = nullptr;
    shard_options.exec.shards = 1;
    shard_options.exec.device_list.clear();
    engines_.push_back(std::make_unique<Engine>(
        &sharded_->shards[static_cast<size_t>(i)], shard_options));
  }

  if (obs::MetricsRegistry* metrics = options_.metrics; metrics != nullptr) {
    broadcast_bytes_counter_ = metrics->GetCounter(
        "gpl_shard_exchange_bytes_total",
        "Bytes shipped between devices by exchange kind",
        {{"kind", "broadcast"}});
    shuffle_bytes_counter_ = metrics->GetCounter(
        "gpl_shard_exchange_bytes_total",
        "Bytes shipped between devices by exchange kind",
        {{"kind", "shuffle"}});
    slot_busy_gauges_.reserve(static_cast<size_t>(group_.size()));
    for (int i = 0; i < group_.size(); ++i) {
      slot_busy_gauges_.push_back(metrics->GetGauge(
          "gpl_shard_device_busy_ms",
          "Accumulated simulated busy time per device slot (ms)",
          {{"slot", std::to_string(i)},
           {"device", group_.devices[static_cast<size_t>(i)].name}}));
    }
  }
}

Result<PhysicalOpPtr> ShardedExecutor::SplitAndInject(
    DistributedPlan* dist) const {
  const PhysicalOp& plan = *dist->plan;
  const std::string& fact = sharded_->fact_table();
  const int fact_scans = CountFactScans(plan, fact);
  if (fact_scans != 1) {
    return Status::Unimplemented(
        "sharded execution requires exactly one scan of the partitioned fact "
        "table '" + fact + "'; plan has " + std::to_string(fact_scans));
  }
  std::vector<PathStep> path;
  GPL_CHECK(FindFactPath(plan, fact, false, &path));

  // The shard subtree is the maximal subtree whose probe spine bottoms out
  // at the fact scan. Walking the root-to-fact path, it starts just past
  // the last blocker: an aggregate or sort node (only correct over the full
  // input, so it belongs to the merge), or a build edge (the subtree feeds
  // the build side of the join above, which the merge device re-builds from
  // the stitched rows — bucket chains depend only on insertion order, which
  // the rowid sort restores). Build subtrees hanging off the spine run on
  // every shard; co-partitioning makes their joins with the spine exact.
  size_t start = 0;
  for (size_t i = 0; i < path.size(); ++i) {
    if (path[i].via_build) start = i;
    if (path[i].node->kind == PhysicalOp::Kind::kAggregate ||
        path[i].node->kind == PhysicalOp::Kind::kSort) {
      start = i + 1;
    }
  }
  GPL_CHECK(start < path.size());  // the fact scan is never a blocker

  dist->boundary = path[start].node;
  const PhysicalOp* fact_scan = path.back().node;
  dist->rowid_column = fact_scan->alias.empty()
                           ? std::string(kRowIdColumn)
                           : fact_scan->alias + "_" + kRowIdColumn;

  // Clone the spine (build sides are shared, they are not modified) and
  // thread l_rowid from the fact scan to the shard-plan root: scans list it,
  // projects pass it through, filters/joins forward probe columns as-is.
  // Every edge below `start` is a probe edge, so the path slice is exactly
  // the subtree's child chain.
  PhysicalOpPtr cloned;
  PhysicalOp* parent = nullptr;
  for (size_t i = start; i < path.size(); ++i) {
    auto copy = std::make_shared<PhysicalOp>(*path[i].node);
    if (copy->kind == PhysicalOp::Kind::kProject) {
      copy->projections.push_back(
          {dist->rowid_column, Col(dist->rowid_column)});
    } else if (copy->kind == PhysicalOp::Kind::kScan) {
      copy->columns.push_back(kRowIdColumn);
    }
    if (parent == nullptr) {
      cloned = copy;
    } else {
      parent->child = copy;
    }
    parent = copy.get();
  }
  return cloned;
}

Result<model::ExchangePlan> ShardedExecutor::ExchangeForPlan(
    const PhysicalOp& shard_subtree) const {
  std::map<std::string, std::set<std::string>> scans;
  CollectScanColumns(shard_subtree, &scans);
  const std::map<std::string, AttachPoint> attach_points =
      FindAttachPoints(shard_subtree, sharded_->fact_table());

  int64_t fact_bytes = 0;
  std::vector<model::ExchangeInput> inputs;
  for (const auto& [table, columns] : scans) {
    const Table* base = db_->ByName(table);
    if (base == nullptr) return Status::NotFound("unknown table: " + table);
    int64_t bytes = 0;
    for (const std::string& column : columns) {
      if (column == kRowIdColumn) continue;  // synthesized, never shipped
      if (!base->HasColumn(column)) {
        return Status::NotFound("unknown column " + table + "." + column);
      }
      bytes += base->GetColumn(column).byte_size();
    }
    if (table == sharded_->fact_table()) {
      fact_bytes = bytes;
      continue;  // the pivot of the exchange, not itself exchanged
    }
    model::ExchangeInput input;
    input.table = table;
    input.bytes = bytes;
    input.rows = base->num_rows();
    input.co_partitioned = sharded_->IsPartitioned(table);
    auto it = attach_points.find(table);
    if (it != attach_points.end()) {
      input.spine_bytes = it->second.spine_bytes;
    }
    inputs.push_back(std::move(input));
  }
  // Memoized per plan: a service replaying the same sharded queries prices
  // the whole exchange once (TuningCache::ExchangePlanSignature) — the
  // shared spine relocation couples the per-relation decisions, so nothing
  // finer than the plan can be cached safely.
  return model::PlanExchange(inputs, group_.link, group_.size(), fact_bytes,
                             tuning_cache_);
}

Status ShardedExecutor::PlanDistributed(DistributedPlan* dist) const {
  ExchangeOpReport gather;
  gather.kind = ExchangeKind::kGather;
  // Each strategy picks its shard subtree and prices its gather; `priced`
  // is the subtree of the original plan whose scans the exchange prices.
  PhysicalOpPtr shard_subtree;
  const PhysicalOp* priced = nullptr;

  // Partial-aggregate pushdown: the root spine must be [sort|project|filter]*
  // above one aggregate whose input subtree provably partitions.
  const PhysicalOp* agg = nullptr;
  for (const PhysicalOp* n = dist->plan.get(); n != nullptr;
       n = n->child.get()) {
    if (n->kind == PhysicalOp::Kind::kAggregate) {
      agg = n;
      break;
    }
    if (n->kind != PhysicalOp::Kind::kSort &&
        n->kind != PhysicalOp::Kind::kProject &&
        n->kind != PhysicalOp::Kind::kFilter) {
      break;
    }
  }
  DistInfo info;
  if (agg != nullptr && agg->child != nullptr &&
      ClassifySubtree(*agg->child, *sharded_, &info) && info.partitioned) {
    auto partial = std::make_shared<PhysicalOp>(*agg);
    partial->partial_aggregate = true;
    shard_subtree = std::move(partial);
    priced = shard_subtree.get();
    dist->boundary = agg;
    dist->partial_aggregate = true;
    gather.table = "partial-aggregates";
    gather.predicted_bytes = EstimatePartialGatherBytes(*agg, group_.size());
  } else {
    // Fallback: thread l_rowid through the shard subtree and stitch rows.
    // The exchange is priced on the original boundary subtree: the clone's
    // extra rowid column would widen its attach-join spine estimates.
    GPL_ASSIGN_OR_RETURN(shard_subtree, SplitAndInject(dist));
    priced = dist->boundary;
    gather.table = "shard-partials";
    // Rough gather estimate: the subtree's output rows (plus l_rowid) ship
    // from every non-resident shard; (N-1)/N of them live off-device.
    const int64_t cols =
        static_cast<int64_t>(OutputColumns(*shard_subtree).size()) + 1;
    gather.predicted_bytes = static_cast<int64_t>(
        dist->boundary->est_rows * 8.0 * static_cast<double>(cols) *
        static_cast<double>(group_.size() - 1) /
        static_cast<double>(group_.size()));
  }

  // One record per Exchange operator, in EXPLAIN order: each relation's
  // own traffic, the shared spine relocation (its ms is already in the
  // payer's decision — one DMA — so the entry reports 0 and the entries
  // still sum to the plan totals), then the gather.
  GPL_ASSIGN_OR_RETURN(dist->exchange, ExchangeForPlan(*priced));
  for (const model::ExchangeDecision& d : dist->exchange.decisions) {
    dist->exchanges.push_back(
        {d.table, KindForStrategy(d.strategy), d.bytes - d.spine_bytes, d.ms});
  }
  const ExchangeOpReport* spine = nullptr;
  if (dist->exchange.has_spine) {
    dist->exchanges.push_back({"spine:" + dist->exchange.spine_table,
                               ExchangeKind::kRepartition,
                               dist->exchange.spine_bytes, 0.0});
    spine = &dist->exchanges.back();
  }
  std::map<std::string, const ExchangeOpReport*> relations;
  for (size_t i = 0; i < dist->exchange.decisions.size(); ++i) {
    relations.emplace(dist->exchanges[i].table, &dist->exchanges[i]);
  }
  // The spine node must come from the tree AnnotateExchanges walks (for the
  // stitch, the rowid-threaded clone, not the original boundary subtree).
  const PhysicalOp* spine_node = nullptr;
  if (spine != nullptr) {
    const std::map<std::string, AttachPoint> attach_points =
        FindAttachPoints(*shard_subtree, sharded_->fact_table());
    auto it = attach_points.find(dist->exchange.spine_table);
    if (it != attach_points.end()) spine_node = it->second.spine_node;
  }
  PhysicalOpPtr annotated = AnnotateExchanges(
      *shard_subtree, sharded_->fact_table(), relations, spine_node, spine);
  // The gather: every non-resident shard sends its share over the link,
  // one serialized transfer each (a multi-device group has senders >= 1).
  const int senders = group_.size() - 1;
  gather.predicted_ms = static_cast<double>(senders) *
                        link_.TransferMs(gather.predicted_bytes / senders);
  dist->shard_plan = WrapInExchange(std::move(annotated), gather);
  dist->exchanges.push_back(std::move(gather));
  return Status::OK();
}

Result<DistributedPlan> ShardedExecutor::Plan(
    const LogicalQuery& query) const {
  DistributedPlan dist;
  dist.query = query.name;
  dist.num_shards = group_.size();
  // Planned once, on the unpartitioned database's statistics, with device
  // 0's engine options: the planner sizes partitioned joins against the
  // coordinator device, exactly as a single engine on it would.
  GPL_ASSIGN_OR_RETURN(
      dist.plan, BuildPhysicalPlan(query, catalog_,
                                   PlanOptionsFor(engines_.front()->options())));
  if (group_.size() == 1) {
    // Single-device group: the plain plan runs as-is, nothing is exchanged.
    dist.shard_plan = dist.plan;
    return dist;
  }
  GPL_RETURN_NOT_OK(PlanDistributed(&dist));
  return dist;
}

Result<QueryResult> ShardedExecutor::Execute(const LogicalQuery& query) {
  return Execute(query, options_.exec);
}

Result<QueryResult> ShardedExecutor::Execute(const LogicalQuery& query,
                                             const ExecOptions& exec) {
  const auto plan_start = std::chrono::steady_clock::now();
  GPL_ASSIGN_OR_RETURN(DistributedPlan dist, Plan(query));
  const double plan_wall_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - plan_start)
                                  .count();
  GPL_ASSIGN_OR_RETURN(QueryResult result, Execute(dist, exec));
  result.metrics.plan_wall_ms += plan_wall_ms;
  return result;
}

Result<QueryResult> ShardedExecutor::Execute(const DistributedPlan& dist,
                                             const ExecOptions& exec) {
  if (dist.num_shards != group_.size()) {
    return Status::InvalidArgument(
        "plan for " + std::to_string(dist.num_shards) +
        " shards run on a group of " + std::to_string(group_.size()));
  }
  if (exec.cancel != nullptr) GPL_RETURN_NOT_OK(exec.cancel->Check());
  if (group_.size() == 1) {
    // A 1-device group's shard holds the full database, so the plain plan
    // is exact: no partitioning, no rowid stitch, no exchange — the
    // sharding tax is structurally zero.
    GPL_ASSIGN_OR_RETURN(QueryResult result,
                         engines_.front()->ExecutePlan(dist.shard_plan, exec));
    QueryMetrics& m = result.metrics;
    m.num_shards = 1;
    m.device_elapsed_ms = {m.elapsed_ms};
    m.device_utilization = {1.0};
    if (!slot_busy_gauges_.empty()) {
      obs::Add(slot_busy_gauges_.front(), m.elapsed_ms);
    }
    return result;
  }
  const sim::DeviceSpec& device0 = group_.devices.front();

  // Per-shard execution. Serial on the host (results are simulated, wall
  // clock is not the metric); the shared fault injector and cancellation
  // token are polled in shard order, keeping fault schedules deterministic.
  ExecOptions shard_exec = exec;
  shard_exec.trace = nullptr;  // the executor emits the group-level timeline
  std::vector<QueryResult> partials;
  partials.reserve(static_cast<size_t>(group_.size()));
  for (int i = 0; i < group_.size(); ++i) {
    if (exec.cancel != nullptr) GPL_RETURN_NOT_OK(exec.cancel->Check());
    GPL_ASSIGN_OR_RETURN(
        QueryResult partial,
        engines_[static_cast<size_t>(i)]->ExecutePlan(dist.shard_plan,
                                                      shard_exec));
    partials.push_back(std::move(partial));
  }

  // Exchange: the per-relation broadcasts (priced by the Exchange operators'
  // cost model) plus gathering every non-resident partial to device 0.
  link_.Record(dist.exchange.total_bytes, dist.exchange.total_ms);
  int64_t shuffle_bytes = 0;
  double shuffle_ms = 0.0;
  for (size_t i = 1; i < partials.size(); ++i) {
    const int64_t bytes = partials[i].table.byte_size();
    shuffle_bytes += bytes;
    shuffle_ms += link_.Transfer(bytes);
  }
  const double exchange_ms = dist.exchange.total_ms + shuffle_ms;

  // Group-level timeline: one span per device (they run concurrently from
  // the segment origin), then the serialized exchange, then the merge
  // kernels appended by RunKernelBatch below.
  const double max_device_ms =
      std::max_element(partials.begin(), partials.end(),
                       [](const QueryResult& a, const QueryResult& b) {
                         return a.metrics.elapsed_ms < b.metrics.elapsed_ms;
                       })
          ->metrics.elapsed_ms;
  if (exec.trace != nullptr) {
    for (int i = 0; i < group_.size(); ++i) {
      const sim::DeviceSpec& device = group_.devices[static_cast<size_t>(i)];
      const int track = exec.trace->TrackId(
          "device " + std::to_string(i) + " (" + device.name + ")");
      exec.trace->AddSpan(
          track, dist.query + " shard " + std::to_string(i), "shard.exec", 0.0,
          MsToCycles(device0, partials[static_cast<size_t>(i)]
                                  .metrics.elapsed_ms),
          {{"elapsed_ms",
            std::to_string(partials[static_cast<size_t>(i)]
                               .metrics.elapsed_ms)}});
    }
    const int link_track = exec.trace->TrackId("exchange (" + link_.spec().name + ")");
    exec.trace->AddSpan(
        link_track, dist.query + " exchange", "shard.exchange",
        MsToCycles(device0, max_device_ms),
        MsToCycles(device0, max_device_ms + exchange_ms),
        {{"broadcast_bytes", std::to_string(dist.exchange.total_bytes)},
         {"shuffle_bytes", std::to_string(shuffle_bytes)},
         {"merge", dist.partial_aggregate ? "combine" : "stitch"}});
    exec.trace->AdvanceOrigin(MsToCycles(device0, max_device_ms + exchange_ms));
  }

  // Merge on device 0, then replay the rest of the original plan with the
  // merged table substituted at the boundary (KbeEngine::ExecuteWithInput —
  // the same kernel code a single device runs, charged on device 0's
  // simulator). Tables above the boundary are read from the unpartitioned
  // source, which is what device 0 would hold as the coordinator.
  const sim::Simulator& sim0 = engines_.front()->simulator();
  sim::HwCounters merge_counters;
  int64_t stitched_rows = 0;
  Table substitute;
  if (dist.partial_aggregate) {
    // Combine-merge: fold the per-shard partial-aggregate states per group.
    // Exact and order-independent (superaccumulator digits for sums), so
    // the result is bit-identical to a single device's aggregate output.
    std::vector<Table> partial_tables;
    partial_tables.reserve(partials.size());
    int64_t rows_in = 0;
    int64_t bytes_in = 0;
    for (QueryResult& partial : partials) {
      rows_in += partial.table.num_rows();
      bytes_in += partial.table.byte_size();
      partial_tables.push_back(std::move(partial.table));
    }
    GPL_ASSIGN_OR_RETURN(
        Table combined,
        CombinePartialAggregates(dist.boundary->group_by,
                                 dist.boundary->aggregates, partial_tables));
    sim::KernelLaunch combine;
    combine.desc = AggregateTiming(
        1.0, static_cast<int>(dist.boundary->aggregates.size()));
    combine.desc.name = "k_shard_combine";
    combine.rows_in = rows_in;
    combine.bytes_in = bytes_in;
    combine.rows_out = combined.num_rows();
    combine.bytes_out = combined.byte_size();
    GPL_ASSIGN_OR_RETURN(
        const sim::SimResult r,
        sim0.RunKernelBatch(combine, 0, exec.trace, exec.fault));
    merge_counters.Accumulate(r.counters);
    substitute = std::move(combined);
  } else {
    // Stitch-merge: concatenate the partials (schemas and dictionaries are
    // shared across shards), stable-sort by the injected row id, drop it.
    // The merged table equals — row for row — what a single device would
    // feed the boundary's parent.
    Table merged = std::move(partials[0].table);
    for (size_t i = 1; i < partials.size(); ++i) {
      GPL_RETURN_NOT_OK(merged.AppendTable(partials[i].table));
    }
    stitched_rows = merged.num_rows();
    const int64_t rowid_index = merged.ColumnIndex(dist.rowid_column);
    if (rowid_index < 0) {
      return Status::Internal("sharded partial result lost the '" +
                              dist.rowid_column + "' column");
    }
    const int64_t merged_bytes_with_rowid = merged.byte_size();
    const Column& rowid = merged.ColumnAt(rowid_index);
    std::vector<int64_t> order(static_cast<size_t>(merged.num_rows()));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int64_t>(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&rowid](int64_t a, int64_t b) {
                       return rowid.Int64At(a) < rowid.Int64At(b);
                     });
    merged = merged.Gather(order);
    merged = DropColumn(merged, dist.rowid_column);

    sim::KernelLaunch gather;
    gather.desc = ScatterTiming(static_cast<int>(merged.num_columns() + 1));
    gather.desc.name = "k_shard_gather";
    gather.rows_in = merged.num_rows();
    gather.bytes_in = merged_bytes_with_rowid;
    gather.rows_out = merged.num_rows();
    gather.bytes_out = merged.byte_size();
    GPL_ASSIGN_OR_RETURN(
        const sim::SimResult r,
        sim0.RunKernelBatch(gather, 0, exec.trace, exec.fault));
    merge_counters.Accumulate(r.counters);
    substitute = std::move(merged);
  }
  KbeEngine merge_engine(db_, &sim0);
  GPL_ASSIGN_OR_RETURN(
      QueryResult merge_result,
      merge_engine.ExecuteWithInput(dist.plan, dist.boundary,
                                    std::move(substitute), exec));
  merge_counters.Accumulate(merge_result.metrics.counters);
  const double merge_ms = device0.CyclesToMs(merge_counters.elapsed_cycles);
  Table current = std::move(merge_result.table);

  // Metrics: counters sum every device's work plus the merge; elapsed is
  // the parallel makespan. The breakdown is rescaled so its parts still sum
  // to the makespan.
  QueryResult result;
  result.table = std::move(current);
  QueryMetrics& m = result.metrics;
  for (const QueryResult& partial : partials) {
    m.counters.Accumulate(partial.metrics.counters);
    m.tune_wall_ms += partial.metrics.tune_wall_ms;
    m.tuning_cache_hits += partial.metrics.tuning_cache_hits;
    m.tuning_cache_misses += partial.metrics.tuning_cache_misses;
    m.degraded_segments += partial.metrics.degraded_segments;
    m.fused_segments += partial.metrics.fused_segments;
    m.fused_launches_saved += partial.metrics.fused_launches_saved;
    m.fused_bytes_avoided += partial.metrics.fused_bytes_avoided;
    m.device_elapsed_ms.push_back(partial.metrics.elapsed_ms);
    m.predicted_ms = std::max(m.predicted_ms, partial.metrics.predicted_ms);
  }
  m.counters.Accumulate(merge_counters);
  m.Finalize(device0);
  const double serial_ms = m.elapsed_ms;
  m.elapsed_ms = max_device_ms + exchange_ms + merge_ms;
  if (serial_ms > 0.0) {
    const double scale = m.elapsed_ms / serial_ms;
    m.compute_ms *= scale;
    m.mem_ms *= scale;
    m.dc_ms *= scale;
    m.delay_ms *= scale;
    m.other_ms *= scale;
  }
  if (m.predicted_ms > 0.0) m.predicted_ms += exchange_ms + merge_ms;
  m.num_shards = group_.size();
  m.partial_combine = dist.partial_aggregate;
  m.stitched_rows = stitched_rows;
  m.broadcast_bytes = dist.exchange.total_bytes;
  m.exchange_all_broadcast_bytes = dist.exchange.all_broadcast_bytes;
  m.shuffle_bytes = shuffle_bytes;
  m.exchange_bytes = dist.exchange.total_bytes + shuffle_bytes;
  m.exchange_ms = exchange_ms;
  m.merge_ms = merge_ms;
  for (double device_ms : m.device_elapsed_ms) {
    m.device_utilization.push_back(
        m.elapsed_ms > 0.0 ? device_ms / m.elapsed_ms : 0.0);
  }
  obs::Inc(broadcast_bytes_counter_,
           static_cast<uint64_t>(dist.exchange.total_bytes));
  obs::Inc(shuffle_bytes_counter_, static_cast<uint64_t>(shuffle_bytes));
  for (size_t i = 0;
       i < slot_busy_gauges_.size() && i < m.device_elapsed_ms.size(); ++i) {
    obs::Add(slot_busy_gauges_[i], m.device_elapsed_ms[i]);
  }
  GPL_SLOG(Info, "shard")
      .Field("query", dist.query)
      .Field("group", group_.ToString())
      .Field("merge", dist.partial_aggregate ? "combine" : "stitch")
      .Field("sim_ms", m.elapsed_ms)
      .Field("max_device_ms", max_device_ms)
      .Field("exchange_ms", exchange_ms)
      .Field("merge_ms", merge_ms)
      << "sharded query executed";
  return result;
}

}  // namespace shard
}  // namespace gpl
