/// Shard scaling: simulated elapsed time of the five evaluation queries as
/// the fact table is partitioned across 1/2/4/8 simulated devices. Not a
/// paper figure — the paper executes on one GPU — but the natural scale-out
/// question for its engine: how far does data-parallel sharding carry each
/// query before exchange and the serial merge dominate?
///
/// Per (shards, query): simulated elapsed, speedup vs single device,
/// exchange bytes/ms (dimension broadcast + partial shuffle over the link),
/// merge ms, mean device utilization, and whether the sharded result is
/// bit-identical to the single-device table. JSONL rows go to --out when
/// given.
///
/// --quick runs shard counts {1, 2, 4} only and turns the bench into a
/// smoke gate for scripts/check.sh: exit 1 if any sharded result is not
/// bit-identical to single-device, if any query's speedup degrades going
/// 1 -> 2 -> 4 shards (small tolerance for exchange jitter), if no query
/// reaches 1.5x at 4 shards, if Q9 fails to beat the single device at 4
/// shards, or if the 1-shard run is not within noise of the unsharded
/// engine (ExecOptions::shards == 1 must route to the plain path).
///
/// JSONL rows carry a unique "case" key ("Q9x4") so scripts/bench_diff.py
/// can diff runs against the committed baseline
/// (bench/baselines/shard_scaling_quick.jsonl); "inv_speedup" is
/// 1 / speedup, so higher-is-worse like every other diffed field.
///
/// Flags (benchutil::ParseBenchArgs): --device=<list> uses a mixed group
/// when given several names (shard counts then sweep only sizes equal to the
/// list length); --link-gbps=<G> overrides the link bandwidth;
/// --partition=hash|range picks the partitioning scheme; --host-threads=<N>
/// sets the host threads.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "shard/device_group.h"
#include "shard/partition_scheme.h"

namespace {

using namespace gpl;

bool TablesBitIdentical(const Table& expected, const Table& actual) {
  if (expected.num_columns() != actual.num_columns() ||
      expected.num_rows() != actual.num_rows()) {
    return false;
  }
  for (int64_t i = 0; i < expected.num_columns(); ++i) {
    if (expected.ColumnNameAt(i) != actual.ColumnNameAt(i)) return false;
    const Column& e = expected.ColumnAt(i);
    const Column& a = actual.ColumnAt(i);
    if (e.type() != a.type()) return false;
    if (!std::ranges::equal(e.data32(), a.data32()) ||
        !std::ranges::equal(e.data64(), a.data64()) ||
        !std::ranges::equal(e.dataf(), a.dataf())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args =
      benchutil::ParseBenchArgs(argc, argv, sim::DeviceSpec::AmdA10());
  const std::vector<sim::DeviceSpec> devices =
      args.devices.empty() ? std::vector<sim::DeviceSpec>{args.device}
                           : args.devices;
  const shard::PartitionScheme scheme = args.partition;

  // Sharding pays off only once data volume dominates fixed launch
  // overhead, so this bench defaults to a larger SF than the others.
  const double sf = benchutil::ScaleFactor(0.1);
  const tpch::Database& db = benchutil::Db(sf);
  benchutil::Banner(
      "Shard scaling",
      ("simulated elapsed vs shard count, bit-identical results (" +
       devices.front().name + (devices.size() > 1 ? " + mixed" : "") + ", " +
       std::string(shard::PartitionSchemeName(scheme)) + " partitioning)")
          .c_str(),
      sf);

  // One calibration per distinct device, shared by the baseline engine and
  // every sharded executor (the table is immutable and device-dependent).
  std::map<std::string, model::CalibrationTable> calibrations;
  for (const sim::DeviceSpec& spec : devices) {
    if (calibrations.count(spec.name) == 0) {
      calibrations.emplace(spec.name,
                           model::CalibrationTable::Run(sim::Simulator(spec)));
    }
  }

  std::vector<std::pair<std::string, LogicalQuery>> workload;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    if (name == "Q5" || name == "Q7" || name == "Q8" || name == "Q9" ||
        name == "Q14") {
      workload.emplace_back(name, query);
    }
  }
  GPL_CHECK(workload.size() == 5);

  // ONE engine serves the whole sweep: unsharded truth with the default
  // ExecOptions, every sharded point by setting ExecOptions::shards (the
  // engine routes through its ShardedExecutor internally).
  EngineOptions options;
  options.mode = EngineMode::kGpl;
  options.device = devices.front();
  options.calibration = &calibrations.at(devices.front().name);
  options.device_calibrations = &calibrations;
  options.exec.host_threads = args.host_threads;
  Engine engine(&db, options);
  std::vector<QueryResult> truth;
  for (auto& [name, query] : workload) {
    Result<QueryResult> result = engine.Execute(query);
    GPL_CHECK(result.ok()) << name << ": " << result.status().ToString();
    truth.push_back(result.take());
  }

  // A multi-device --device= list defines the group outright; otherwise
  // sweep homogeneous groups of the requested shard counts.
  std::vector<int> shard_counts;
  if (devices.size() > 1) {
    shard_counts = {static_cast<int>(devices.size())};
  } else {
    shard_counts = args.quick ? std::vector<int>{1, 2, 4}
                         : std::vector<int>{1, 2, 4, 8};
  }

  benchutil::JsonlWriter jsonl(args.out);
  std::printf("%7s %6s %13s %9s %14s %11s %7s %7s\n", "shards", "query",
              "elapsed (ms)", "speedup", "exchange (KB)", "merge (ms)",
              "util", "bit-id");

  // speedups[query][shard count] for the monotonicity gate.
  std::map<std::string, std::map<int, double>> speedups;
  bool all_bit_identical = true;
  // Q5's compound-key join must stay provably co-partitioned: combine merge
  // with zero stitched rows at every sharded point.
  bool q5_combines = true;
  // Q9 at 4 shards: chosen relation-exchange bytes vs the all-broadcast
  // counterfactual (the repartition of partsupp must undercut it).
  int64_t q9_exchange_at_4 = -1;
  int64_t q9_all_broadcast_at_4 = -1;

  for (int n : shard_counts) {
    ExecOptions exec = options.exec;
    exec.shards = n;
    exec.partition = scheme;
    exec.link_gbps = args.link_gbps;
    if (devices.size() > 1) exec.device_list = devices;
    const std::string group_label =
        shard::DeviceGroup::FromExec(exec, devices.front()).ToString();

    for (size_t q = 0; q < workload.size(); ++q) {
      const auto& [name, query] = workload[q];
      Result<QueryResult> result = engine.Execute(query, exec);
      GPL_CHECK(result.ok()) << name << " x" << n << ": "
                             << result.status().ToString();
      const QueryMetrics& m = result->metrics;

      const bool bit_identical =
          TablesBitIdentical(truth[q].table, result->table);
      all_bit_identical = all_bit_identical && bit_identical;
      const double speedup =
          m.elapsed_ms > 0.0 ? truth[q].metrics.elapsed_ms / m.elapsed_ms
                             : 0.0;
      speedups[name][n] = speedup;
      if (name == "Q5" && n > 1 &&
          (!m.partial_combine || m.stitched_rows != 0)) {
        q5_combines = false;
      }
      if (name == "Q9" && n == 4) {
        q9_exchange_at_4 = m.broadcast_bytes;
        q9_all_broadcast_at_4 = m.exchange_all_broadcast_bytes;
      }
      double mean_util = 0.0;
      for (double u : m.device_utilization) mean_util += u;
      if (!m.device_utilization.empty()) {
        mean_util /= static_cast<double>(m.device_utilization.size());
      }

      std::printf("%7d %6s %13.3f %8.2fx %14.1f %11.4f %6.0f%% %7s\n", n,
                  name.c_str(), m.elapsed_ms, speedup,
                  static_cast<double>(m.exchange_bytes) / 1024.0, m.merge_ms,
                  mean_util * 100.0, bit_identical ? "yes" : "NO");

      std::ostringstream row;
      row.precision(6);
      row << "{\"bench\":\"shard_scaling\",\"case\":\"" << name << "x" << n
          << "\",\"group\":\"" << group_label
          << "\",\"partition\":\"" << shard::PartitionSchemeName(scheme)
          << "\",\"query\":\"" << name << "\",\"shards\":" << n
          << ",\"elapsed_ms\":" << m.elapsed_ms
          << ",\"single_device_ms\":" << truth[q].metrics.elapsed_ms
          << ",\"speedup\":" << speedup
          << ",\"inv_speedup\":" << (speedup > 0.0 ? 1.0 / speedup : 0.0)
          << ",\"broadcast_bytes\":" << m.broadcast_bytes
          << ",\"all_broadcast_bytes\":" << m.exchange_all_broadcast_bytes
          << ",\"shuffle_bytes\":" << m.shuffle_bytes
          << ",\"exchange_ms\":" << m.exchange_ms
          << ",\"merge_ms\":" << m.merge_ms
          << ",\"partial_combine\":" << (m.partial_combine ? "true" : "false")
          << ",\"stitched_rows\":" << m.stitched_rows
          << ",\"mean_utilization\":" << mean_util
          << ",\"bit_identical\":" << (bit_identical ? "true" : "false")
          << "}";
      jsonl.Line(row.str());
    }
    std::printf("\n");
  }

  if (jsonl.enabled()) {
    std::printf("results written to %s\n", args.out.c_str());
  }
  std::printf("(elapsed = max over devices + serialized exchange + serial "
              "merge on device 0)\n");

  if (args.quick && devices.size() == 1) {
    int failures = 0;
    if (!all_bit_identical) {
      std::fprintf(
          stderr,
          "FAIL: sharded results are not bit-identical to single device\n");
      failures++;
    }
    // Adding devices must not slow a query down: going 1 -> 2 -> 4 shards,
    // speedup may only grow (small tolerance for exchange cost on
    // nearly-flat queries).
    constexpr double kTolerance = 0.05;
    double best_at_4 = 0.0;
    double q9_at_4 = 0.0;
    for (const auto& [name, by_count] : speedups) {
      double previous = 0.0;
      for (const auto& [n, speedup] : by_count) {
        if (speedup + kTolerance < previous) {
          std::fprintf(stderr,
                       "FAIL: %s speedup degrades at %d shards (%.2fx after "
                       "%.2fx)\n",
                       name.c_str(), n, speedup, previous);
          failures++;
        }
        previous = speedup;
        if (n == 4 && speedup > best_at_4) best_at_4 = speedup;
        if (n == 4 && name == "Q9") q9_at_4 = speedup;
      }
    }
    if (best_at_4 < 1.5) {
      std::fprintf(stderr,
                   "FAIL: no query reaches 1.5x at 4 shards (best %.2fx)\n",
                   best_at_4);
      failures++;
    }
    // Distributed execution must beat the single device on Q9 (the deepest
    // join tree of the suite) once four devices share the work.
    if (q9_at_4 <= 1.0) {
      std::fprintf(stderr, "FAIL: Q9 at 4 shards is %.2fx (want > 1.0x)\n",
                   q9_at_4);
      failures++;
    }
    // Q5's compound join ({l_orderkey,l_suppkey} = {o_orderkey,s_suppkey})
    // is provably co-partitioned on the aligned orderkey pair; falling back
    // to the row-id stitch would regress the classifier.
    if (!q5_combines) {
      std::fprintf(stderr,
                   "FAIL: Q5 did not take the partial-aggregate combine "
                   "merge (zero stitched rows) at every shard count\n");
      failures++;
    }
    // Q9 must repartition partsupp onto the attach-join spine instead of
    // broadcasting it: the chosen relation-exchange volume at 4 shards has
    // to undercut the all-broadcast counterfactual.
    if (q9_exchange_at_4 < 0 || q9_all_broadcast_at_4 <= 0 ||
        q9_exchange_at_4 >= q9_all_broadcast_at_4) {
      std::fprintf(stderr,
                   "FAIL: Q9 at 4 shards ships %lld relation-exchange bytes, "
                   "not below the %lld all-broadcast baseline\n",
                   static_cast<long long>(q9_exchange_at_4),
                   static_cast<long long>(q9_all_broadcast_at_4));
      failures++;
    }
    // ExecOptions::shards == 1 must route to the plain single-device path:
    // the 1-shard point may not deviate from the unsharded run (simulated
    // time is deterministic, so "noise" here is only serialization rounding).
    for (const auto& [name, by_count] : speedups) {
      const auto one = by_count.find(1);
      if (one == by_count.end()) continue;
      if (one->second < 0.99 || one->second > 1.01) {
        std::fprintf(stderr,
                     "FAIL: %s at 1 shard is %.4fx the unsharded engine "
                     "(want 1.0x: shards=1 must bypass sharding)\n",
                     name.c_str(), one->second);
        failures++;
      }
    }
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
