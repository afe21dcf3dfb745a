#ifndef GPL_BENCH_BENCH_UTIL_H_
#define GPL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "engine/metrics_json.h"
#include "queries/tpch_queries.h"
#include "shard/partition_scheme.h"

namespace gpl {
namespace benchutil {

/// Scale factor for the benches. The paper uses SF 10 (10 GB); the default
/// here is small enough that every figure regenerates in seconds. Override
/// with GPL_BENCH_SF=0.5 (etc.) to push towards paper scale.
inline double ScaleFactor(double fallback = 0.05) {
  const char* env = std::getenv("GPL_BENCH_SF");
  if (env != nullptr) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return fallback;
}

/// Cached database per scale factor (benches sweep SF).
inline const tpch::Database& Db(double scale_factor) {
  static std::map<double, std::unique_ptr<tpch::Database>>* cache =
      new std::map<double, std::unique_ptr<tpch::Database>>();
  auto it = cache->find(scale_factor);
  if (it == cache->end()) {
    tpch::DbgenConfig config;
    config.scale_factor = scale_factor;
    it = cache->emplace(scale_factor, std::make_unique<tpch::Database>(
                                          tpch::Generate(config)))
             .first;
  }
  return *it->second;
}

/// Host threads pinned by `--host-threads=N` (0 = leave ExecOptions at its
/// hardware-concurrency default). Set by ParseBenchArgs and
/// consumed by Run(), so every bench honors the flag without plumbing it
/// through each call site.
inline int& PinnedHostThreads() {
  static int threads = 0;
  return threads;
}

/// Shard count pinned by `--shards=N` (0 = unset). Carried into
/// ExecOptions::shards by Run() as a routing hint; shard-aware benches read
/// it directly.
inline int& PinnedShards() {
  static int shards = 0;
  return shards;
}

/// Link bandwidth override pinned by `--link-gbps=G` (0 = link default).
inline double& PinnedLinkGbps() {
  static double gbps = 0.0;
  return gbps;
}

/// Executes a query under a mode; aborts on failure (benches are harnesses).
inline QueryResult Run(const tpch::Database& db, EngineMode mode,
                       const LogicalQuery& query,
                       const sim::DeviceSpec& device = sim::DeviceSpec::AmdA10(),
                       const model::TuningOverrides& overrides = {},
                       bool use_cost_model = true) {
  EngineOptions options;
  options.mode = mode;
  options.device = device;
  options.exec.overrides = overrides;
  options.exec.use_cost_model = use_cost_model;
  options.exec.host_threads = PinnedHostThreads();
  if (PinnedShards() > 0) options.exec.shards = PinnedShards();
  options.exec.link_gbps = PinnedLinkGbps();
  Engine engine(&db, options);
  Result<QueryResult> result = engine.Execute(query);
  GPL_CHECK(result.ok()) << query.name << " under " << EngineModeName(mode)
                         << ": " << result.status().ToString();
  return result.take();
}

/// Appends bench results as JSON lines (one object per query/engine run) so
/// figure data can be collected across runs and diffed/plotted by scripts.
/// Construction with an empty path disables it at zero cost.
class JsonlWriter {
 public:
  explicit JsonlWriter(const std::string& path) {
    if (path.empty()) return;
    out_.open(path, std::ios::out | std::ios::trunc);
    if (!out_) {
      std::fprintf(stderr, "warning: cannot open %s for writing\n",
                   path.c_str());
    }
  }

  bool enabled() const { return out_.is_open(); }

  /// Writes one JSONL record: query, engine, device, elapsed_ms and the full
  /// metrics/counter set (same schema as `gplcli --metrics-json`).
  void Record(const std::string& query, EngineMode mode,
              const sim::DeviceSpec& device, const QueryMetrics& metrics) {
    if (!enabled()) return;
    MetricsJsonEntry entry;
    entry.query = query;
    entry.mode = EngineModeName(mode);
    entry.device = device.name;
    entry.metrics = metrics;
    out_ << QueryMetricsToJson(entry) << "\n";
  }

  /// Writes one pre-rendered JSON object as a line — for benches whose rows
  /// are not per-query metrics (e.g. service throughput per worker count).
  void Line(const std::string& json_object) {
    if (!enabled()) return;
    out_ << json_object << "\n";
  }

 private:
  std::ofstream out_;
};

/// Common bench flags for device-parameterized benches: `--out=<path>` plus
/// `--device=<amd|nvidia>[,<amd|nvidia>...]` (through the library's
/// ParseDeviceList rather than a per-bench hand-rolled name switch),
/// `--host-threads=<N>`, and the sharding knobs `--shards=<N>` /
/// `--link-gbps=<G>` (mirrored into ExecOptions by Run()) and
/// `--partition=<hash|range>` (read by shard-aware benches).
struct BenchArgs {
  std::string out;
  sim::DeviceSpec device;  ///< first device of the list (single-device benches)
  std::vector<sim::DeviceSpec> devices;  ///< the full --device= list
  int host_threads = 0;  ///< 0 = hardware concurrency (mirrors ExecOptions)
  int shards = 0;        ///< 0 = bench default
  double link_gbps = 0.0;  ///< 0 = LinkSpec default
  shard::PartitionScheme partition = shard::PartitionScheme::kHash;
  /// `--engine=<gpl|kbe|noce|ocelot|fused>` — restricts engine-sweep benches
  /// to one mode (same spellings as the CLI flag). Unset when absent.
  bool has_engine = false;
  EngineMode engine = EngineMode::kGpl;
  /// `--quick` — reduced sweep with pass/fail gates (used by scripts/check.sh).
  bool quick = false;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                const sim::DeviceSpec& default_device) {
  BenchArgs args;
  args.device = default_device;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      args.out = arg + 6;
    } else if (std::strncmp(arg, "--device=", 9) == 0) {
      Result<std::vector<sim::DeviceSpec>> devices = ParseDeviceList(arg + 9);
      if (!devices.ok()) {
        std::fprintf(stderr, "%s\n", devices.status().ToString().c_str());
        std::exit(2);
      }
      args.devices = devices.take();
      args.device = args.devices.front();
    } else if (std::strncmp(arg, "--host-threads=", 15) == 0) {
      args.host_threads = std::atoi(arg + 15);
      PinnedHostThreads() = args.host_threads;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      args.shards = std::atoi(arg + 9);
      PinnedShards() = args.shards;
    } else if (std::strncmp(arg, "--link-gbps=", 12) == 0) {
      args.link_gbps = std::atof(arg + 12);
      PinnedLinkGbps() = args.link_gbps;
    } else if (std::strncmp(arg, "--partition=", 12) == 0) {
      Result<shard::PartitionScheme> partition =
          shard::ParsePartitionScheme(arg + 12);
      if (!partition.ok()) {
        std::fprintf(stderr, "%s\n", partition.status().ToString().c_str());
        std::exit(2);
      }
      args.partition = partition.take();
    } else if (std::strncmp(arg, "--engine=", 9) == 0) {
      Result<EngineMode> engine = ParseEngineMode(arg + 9);
      if (!engine.ok()) {
        std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
        std::exit(2);
      }
      args.engine = engine.take();
      args.has_engine = true;
    } else if (std::strcmp(arg, "--quick") == 0) {
      args.quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=results.jsonl] [--device=amd|nvidia,...] "
                   "[--host-threads=N] [--shards=N] [--link-gbps=G] "
                   "[--partition=hash|range] "
                   "[--engine=gpl|kbe|noce|ocelot|fused] [--quick]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// Prints the standard bench banner: which paper artifact this regenerates.
inline void Banner(const char* figure, const char* description, double sf) {
  std::printf("==============================================================\n");
  std::printf("GPL reproduction: %s\n", figure);
  std::printf("%s\n", description);
  std::printf("(TPC-H scale factor %.3g; set GPL_BENCH_SF to change)\n", sf);
  std::printf("==============================================================\n");
}

}  // namespace benchutil
}  // namespace gpl

#endif  // GPL_BENCH_BENCH_UTIL_H_
