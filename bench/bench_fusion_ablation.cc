/// Fusion ablation: the three-way engine comparison behind EngineMode::kFused.
/// Per evaluation query (Q5/Q7/Q8/Q9/Q14) this runs kernel-at-a-time (kbe),
/// the GPL channel pipeline (gpl), and the fused mode (the tuner picking per
/// segment among pipelined / kernel-at-a-time / fused chains) and reports
/// simulated elapsed time, the fused/gpl ratio, and the fusion counters
/// (fused segments, launches saved, interior bytes never materialized).
///
/// --quick turns the bench into a smoke gate for scripts/check.sh: exit 1 if
/// any fused result is not bit-identical to the KBE oracle, if the tuner's
/// fused pick fails to beat the pure GPL pipeline on at least 2 of the 5
/// queries (with fusion actually firing on those wins), or if no launches
/// were saved anywhere.
///
/// JSONL rows carry a unique "case" key (the query name) so
/// scripts/bench_diff.py can diff runs against the committed baseline
/// (bench/baselines/fusion_ablation_quick.jsonl); "fused_over_gpl" is the
/// fused/gpl elapsed ratio, so higher-is-worse like every other diffed field.
#include <algorithm>
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

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchArgs args =
      benchutil::ParseBenchArgs(argc, argv, sim::DeviceSpec::AmdA10());
  const std::string out =
      args.out.empty() ? "BENCH_fusion_ablation.json" : args.out;

  const double sf = benchutil::ScaleFactor();
  const tpch::Database& db = benchutil::Db(sf);
  benchutil::Banner(
      "Fusion ablation",
      ("kbe vs gpl vs fused per query, bit-identical results (" +
       args.device.name + ")")
          .c_str(),
      sf);

  std::vector<std::pair<std::string, LogicalQuery>> workload;
  for (auto& [name, query] : queries::EvaluationSuite()) {
    if (name == "Q5" || name == "Q7" || name == "Q8" || name == "Q9" ||
        name == "Q14") {
      workload.emplace_back(name, query);
    }
  }
  GPL_CHECK(workload.size() == 5);

  benchutil::JsonlWriter jsonl(out);
  std::printf("%6s %12s %12s %12s %10s %6s %7s %12s %7s\n", "query",
              "kbe (ms)", "gpl (ms)", "fused (ms)", "fused/gpl", "fseg",
              "saved", "avoided (KB)", "bit-id");

  int fused_wins = 0;
  int total_launches_saved = 0;
  bool all_bit_identical = true;

  for (auto& [name, query] : workload) {
    const QueryResult kbe =
        benchutil::Run(db, EngineMode::kKbe, query, args.device);
    const QueryResult gpl =
        benchutil::Run(db, EngineMode::kGpl, query, args.device);
    const QueryResult fused =
        benchutil::Run(db, EngineMode::kFused, query, args.device);

    const bool bit_identical = TablesBitIdentical(kbe.table, fused.table);
    all_bit_identical = all_bit_identical && bit_identical;
    const QueryMetrics& fm = fused.metrics;
    const double ratio = gpl.metrics.elapsed_ms > 0.0
                             ? fm.elapsed_ms / gpl.metrics.elapsed_ms
                             : 0.0;
    const bool win =
        fm.elapsed_ms < gpl.metrics.elapsed_ms && fm.fused_segments > 0;
    if (win) fused_wins++;
    total_launches_saved += fm.fused_launches_saved;

    std::printf("%6s %12.4f %12.4f %12.4f %10.3f %6lld %7lld %12.1f %7s\n",
                name.c_str(), kbe.metrics.elapsed_ms, gpl.metrics.elapsed_ms,
                fm.elapsed_ms, ratio,
                static_cast<long long>(fm.fused_segments),
                static_cast<long long>(fm.fused_launches_saved),
                static_cast<double>(fm.fused_bytes_avoided) / 1024.0,
                bit_identical ? "yes" : "NO");

    std::ostringstream row;
    row.precision(6);
    row << "{\"bench\":\"fusion_ablation\",\"case\":\"" << name
        << "\",\"query\":\"" << name << "\",\"device\":\"" << args.device.name
        << "\",\"kbe_ms\":" << kbe.metrics.elapsed_ms
        << ",\"gpl_ms\":" << gpl.metrics.elapsed_ms
        << ",\"fused_ms\":" << fm.elapsed_ms
        << ",\"fused_over_gpl\":" << ratio
        << ",\"fused_segments\":" << fm.fused_segments
        << ",\"fused_launches_saved\":" << fm.fused_launches_saved
        << ",\"fused_bytes_avoided\":" << fm.fused_bytes_avoided
        << ",\"bit_identical\":" << (bit_identical ? "true" : "false") << "}";
    jsonl.Line(row.str());
  }

  if (jsonl.enabled()) std::printf("results written to %s\n", out.c_str());
  std::printf("(fused = tuner-selected per segment; elapsed is simulated)\n");

  if (args.quick) {
    int failures = 0;
    if (!all_bit_identical) {
      std::fprintf(stderr,
                   "FAIL: fused results are not bit-identical to KBE\n");
      failures++;
    }
    // The point of the mode: the per-segment choice must pay off on a
    // meaningful share of the suite, with fusion actually firing.
    if (fused_wins < 2) {
      std::fprintf(stderr,
                   "FAIL: fused beats gpl on %d of 5 queries (want >= 2, "
                   "with fused_segments > 0 on the wins)\n",
                   fused_wins);
      failures++;
    }
    if (total_launches_saved <= 0) {
      std::fprintf(stderr, "FAIL: no kernel launches saved anywhere\n");
      failures++;
    }
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
