/// Host-parallelism scaling: wall-clock of the morsel-driven functional
/// executor and the memoized tuner as ExecOptions::host_threads grows. Not a
/// paper figure — the paper's engine is simulated, so *simulated* time is
/// host-thread invariant by construction — this bench demonstrates exactly
/// that invariance (bit-identical tables, counters and simulated cycles at
/// every thread count) while the *host* wall time scales.
///
/// Per (threads, query): cold wall (first run, tuner grid search), warm wall
/// (best of 3, tuning cache hot), speedup vs the serial warm wall, and the
/// tuning-cache hit rate. JSONL rows go to --out when it is given.
///
/// --quick runs {1, 8} threads only and turns the bench into a smoke gate
/// for scripts/check.sh: exit 1 if any thread count is not bit-identical to
/// serial, if the warm 8-thread batch is >1.3x slower than the serial warm
/// batch (tolerance because CI runners may expose a single core, where extra
/// threads can only add overhead), or if the warm-pass cache hit rate is
/// below 90%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

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

bool CountersBitIdentical(const sim::HwCounters& e, const sim::HwCounters& a) {
  return e.elapsed_cycles == a.elapsed_cycles &&
         e.compute_cycles == a.compute_cycles &&
         e.mem_cycles == a.mem_cycles &&
         e.channel_cycles == a.channel_cycles &&
         e.stall_cycles == a.stall_cycles &&
         e.launch_cycles == a.launch_cycles && e.cache_hits == a.cache_hits &&
         e.cache_accesses == a.cache_accesses &&
         e.bytes_materialized == a.bytes_materialized &&
         e.bytes_via_channel == a.bytes_via_channel;
}

struct TimedRun {
  QueryResult result;
  double wall_ms = 0.0;
};

TimedRun TimedExecute(Engine& engine, const std::string& name,
                      const LogicalQuery& query) {
  const auto start = std::chrono::steady_clock::now();
  Result<QueryResult> result = engine.Execute(query);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  GPL_CHECK(result.ok()) << name << ": " << result.status().ToString();
  return {result.take(), wall_ms};
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::BenchArgs args =
      benchutil::ParseBenchArgs(argc, argv, sim::DeviceSpec::AmdA10());
  const bool quick = args.quick;
  const sim::DeviceSpec& device = args.device;
  const std::string& out = args.out;

  const double sf = benchutil::ScaleFactor(quick ? 0.02 : 0.05);
  const tpch::Database& db = benchutil::Db(sf);
  benchutil::Banner(
      "Host scaling",
      ("host wall ms vs --host-threads, bit-identical results (" +
       device.name + ")")
          .c_str(),
      sf);

  // One calibration for every engine below: the table is device-dependent
  // and immutable, so recalibrating per thread count would only add noise.
  const sim::Simulator calibration_sim(device);
  const model::CalibrationTable calibration =
      model::CalibrationTable::Run(calibration_sim);

  std::vector<std::pair<std::string, LogicalQuery>> workload;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    if (name == "Q5" || name == "Q7" || name == "Q8" || name == "Q9" ||
        name == "Q14") {
      workload.emplace_back(name, query);
    }
  }
  GPL_CHECK(workload.size() == 5);

  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8};
  constexpr int kWarmReps = 3;

  benchutil::JsonlWriter jsonl(out);
  std::printf("%8s %6s %14s %14s %10s %10s %8s\n", "threads", "query",
              "cold (ms)", "warm best (ms)", "speedup", "hit rate",
              "bit-id");

  // Per-query serial warm baselines (thread_counts always starts at 1).
  std::vector<QueryResult> serial_results;
  std::vector<double> serial_warm_ms;
  double serial_batch_warm_ms = 0.0;
  double eight_batch_warm_ms = -1.0;
  double eight_hit_rate = -1.0;
  bool all_bit_identical = true;

  for (int threads : thread_counts) {
    EngineOptions options;
    options.mode = EngineMode::kGpl;
    options.device = device;
    options.calibration = &calibration;
    options.exec.host_threads = threads;
    // The engine-owned tuning cache persists across Execute calls, so the
    // cold pass populates it and the warm pass below measures hits.
    Engine engine(&db, options);

    double batch_warm_ms = 0.0;
    int64_t warm_hits = 0;
    int64_t warm_misses = 0;
    for (size_t q = 0; q < workload.size(); ++q) {
      const auto& [name, query] = workload[q];
      const TimedRun cold = TimedExecute(engine, name, query);
      double warm_best_ms = 0.0;
      QueryResult warm_result;
      for (int rep = 0; rep < kWarmReps; ++rep) {
        TimedRun warm = TimedExecute(engine, name, query);
        if (rep == 0 || warm.wall_ms < warm_best_ms) {
          warm_best_ms = warm.wall_ms;
        }
        warm_hits += warm.result.metrics.tuning_cache_hits;
        warm_misses += warm.result.metrics.tuning_cache_misses;
        warm_result = std::move(warm.result);
      }
      batch_warm_ms += warm_best_ms;

      bool bit_identical = true;
      double speedup = 1.0;
      if (threads == 1) {
        serial_results.push_back(warm_result);
        serial_warm_ms.push_back(warm_best_ms);
      } else {
        const QueryResult& baseline = serial_results[q];
        bit_identical =
            TablesBitIdentical(baseline.table, warm_result.table) &&
            CountersBitIdentical(baseline.metrics.counters,
                                 warm_result.metrics.counters) &&
            baseline.metrics.elapsed_ms == warm_result.metrics.elapsed_ms;
        all_bit_identical = all_bit_identical && bit_identical;
        speedup = warm_best_ms > 0.0 ? serial_warm_ms[q] / warm_best_ms : 0.0;
      }

      const double hit_rate =
          warm_hits + warm_misses > 0
              ? static_cast<double>(warm_hits) /
                    static_cast<double>(warm_hits + warm_misses)
              : 0.0;
      std::printf("%8d %6s %14.3f %14.3f %9.2fx %9.1f%% %8s\n", threads,
                  name.c_str(), cold.wall_ms, warm_best_ms, speedup,
                  hit_rate * 100.0, bit_identical ? "yes" : "NO");

      std::ostringstream row;
      row.precision(6);
      row << "{\"bench\":\"host_scaling\",\"device\":\"" << device.name
          << "\",\"query\":\"" << name << "\",\"host_threads\":" << threads
          << ",\"cold_wall_ms\":" << cold.wall_ms
          << ",\"warm_wall_ms\":" << warm_best_ms
          << ",\"speedup_vs_serial\":" << speedup
          << ",\"tuning_cache_hits\":" << warm_hits
          << ",\"tuning_cache_misses\":" << warm_misses
          << ",\"hit_rate\":" << hit_rate
          << ",\"bit_identical\":" << (bit_identical ? "true" : "false")
          << ",\"simulated_ms\":" << warm_result.metrics.elapsed_ms << "}";
      jsonl.Line(row.str());
    }

    const double batch_hit_rate =
        warm_hits + warm_misses > 0
            ? static_cast<double>(warm_hits) /
                  static_cast<double>(warm_hits + warm_misses)
            : 0.0;
    if (threads == 1) serial_batch_warm_ms = batch_warm_ms;
    if (threads == 8) {
      eight_batch_warm_ms = batch_warm_ms;
      eight_hit_rate = batch_hit_rate;
    }
    std::printf("%8d %6s %14s %14.3f %9.2fx %9.1f%%\n\n", threads, "batch",
                "", batch_warm_ms,
                batch_warm_ms > 0.0 ? serial_batch_warm_ms / batch_warm_ms
                                    : 0.0,
                batch_hit_rate * 100.0);
  }

  if (jsonl.enabled()) std::printf("results written to %s\n", out.c_str());
  std::printf("(simulated time is host-thread invariant; wall-clock speedup "
              "depends on available cores)\n");

  if (quick) {
    int failures = 0;
    if (!all_bit_identical) {
      std::fprintf(stderr,
                   "FAIL: parallel results are not bit-identical to serial\n");
      failures++;
    }
    if (eight_batch_warm_ms > 1.3 * serial_batch_warm_ms) {
      std::fprintf(stderr,
                   "FAIL: 8-thread warm batch %.3f ms vs serial %.3f ms "
                   "(> 1.3x tolerance)\n",
                   eight_batch_warm_ms, serial_batch_warm_ms);
      failures++;
    }
    if (eight_hit_rate < 0.9) {
      std::fprintf(stderr, "FAIL: warm tuning-cache hit rate %.1f%% < 90%%\n",
                   eight_hit_rate * 100.0);
      failures++;
    }
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
