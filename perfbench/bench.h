// Shared declarations of the end-to-end benchmark runner.
//
// The runner runs one workload per process and prints one JSON record on its
// last stdout line. Every layer is timed from outside the engine: the clocks
// here wrap calls into each module's public functions, and counters are read
// from the public result structs (QueryMetrics, GplRunResult, ServiceStats).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "plan/logical_plan.h"
#include "storage/table.h"
#include "tpch/dbgen.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests_path;  ///< committed reference-checked digests
  std::string spans_path;    ///< where a traced run writes its spans
  bool write_digests = false;
};

/// One query class of the stream: TPC-H name plus its logical plan.
struct QueryClass {
  std::string name;
  gpl::LogicalQuery query;
};

/// The 11 classes every workload draws from, in a fixed order (Zipf rank
/// order for the serving workload).
std::vector<QueryClass> QueryClasses();

/// splitmix64: the benchmark's own seeded generator, so the query stream is
/// identical on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  ///< [0, 1)
  /// Fisher-Yates permutation of 0..n-1.
  std::vector<int> Permutation(int n);

 private:
  uint64_t state_;
};

/// In-memory span log of a traced run. Spans of one query share its id; a
/// span's parent is the index of the span that caused it (-1 for roots).
class Spans {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t query = -1;
  };

  Spans() : origin_(Clock::now()) {}
  int Open(std::string name, int parent, int64_t query);
  void Close(int id);
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time (duration minus the time child spans cover) of every
  /// span with this name, in ms.
  double SelfMs(const std::string& name) const;
  double TotalMs(const std::string& name) const;
  gpl::Status WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens at construction, closes at scope exit; a no-op when the
/// log is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Spans* log, std::string name, int parent, int64_t query)
      : log_(log),
        id_(log == nullptr ? -1 : log->Open(std::move(name), parent, query)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Spans* log_;
  int id_;
};

/// Order- and bit-exact FNV-1a digest of a result table (column names,
/// types and every value; strings by content, doubles by bit pattern).
uint64_t TableDigest(const gpl::Table& table);

/// Committed digests keyed by "<scale factor>/<class>".
using DigestMap = std::map<std::string, uint64_t>;
gpl::Result<DigestMap> LoadDigests(const std::string& path);
std::string DigestKey(double scale_factor, const std::string& query_class);

/// One timed query as the client saw it.
struct QueryRecord {
  int cls = 0;
  double wall_ms = 0.0;
  bool ok = false;
  bool match = false;  ///< result digest equals the committed digest
  gpl::QueryMetrics metrics;
};

/// A metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the end-to-end and per-layer metrics plus the
/// per-class deterministic fingerprint the determinism check compares.
struct RunReport {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, std::string> info;  ///< extra JSON fields (raw)
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = false;
};

/// Setup timings shared by every workload.
struct SetupTimes {
  std::vector<double> total_s;     ///< process-visible setup, per repetition
  std::vector<double> generate_ms; ///< tpch::Generate
  std::vector<double> engine_ms;   ///< Engine / QueryService construction
  std::vector<double> partition_ms;  ///< shard::PartitionDatabase (W3)
  int64_t rows_generated = 0;
};

int64_t DatabaseRows(const gpl::tpch::Database& db);

/// Median by service::Percentile; 0 for an empty sample.
double Median(std::vector<double> values);

/// The class mix a workload's stream is drawn from, and the fixed
/// percentile its query_tail_ms reports.
struct StreamMix {
  std::vector<double> share;  ///< each class's share of the stream
  /// Chosen per workload so that at its query rate at least ten samples lie
  /// beyond it; the count beyond is reported beside the value.
  double tail_percentile = 90.0;
};

/// Fills the metrics every workload derives the same way from its timed
/// query records (latency, throughput, simulated time, model error).
void AddQueryMetrics(const std::vector<QueryClass>& classes,
                     const StreamMix& mix,
                     const std::vector<QueryRecord>& records,
                     double window_s, RunReport* report);

/// Fills setup_s, peak_rss_mb and the setup layers.
void AddSetupMetrics(const SetupTimes& setup, bool trace, RunReport* report);

// ---- Layers timed from outside (layers.cc) ----

/// Per-query layer times of one traced query (ms).
struct LayerTimes {
  double plan_ms = 0.0;
  double segment_ms = 0.0;
  double tune_ms = 0.0;
  double functional_ms = 0.0;
  int64_t functional_rows = 0;

  void Add(const LayerTimes& other) {
    plan_ms += other.plan_ms;
    segment_ms += other.segment_ms;
    tune_ms += other.tune_ms;
    functional_ms += other.functional_ms;
    functional_rows += other.functional_rows;
  }
};

/// Replays a segmented plan segment by segment through the public GPL entry
/// points — GplExecutor::DescribeSegment with TuneSegment (or
/// TuneSegmentEngines when `fused`), then RunSegmentFunctional — recording a
/// span per call under `parent`. Tuning always bypasses the TuningCache, so
/// tune spans time the grid search itself. Resets the plan's kernels first.
/// `host_threads` is the workload's ExecOptions::host_threads.
gpl::Status ReplaySegments(const gpl::tpch::Database& db,
                           const gpl::Engine& engine,
                           const gpl::SegmentedPlan& plan, bool fused,
                           int host_threads,
                           Spans* spans, int parent, int64_t query,
                           LayerTimes* times);

/// Times the exec primitives (filter, hash build, hash probe, aggregate)
/// through Make*Kernel -> Process/Finish on the workload's own columns and
/// the host stream bandwidth, and appends the exec.* and host.* metrics.
gpl::Status AddPrimitiveMetrics(const gpl::tpch::Database& db,
                                RunReport* report);

// ---- Workloads (workloads.cc) ----

gpl::Result<RunReport> RunPowerSf1(const Args& args, const DigestMap& digests);
gpl::Result<RunReport> RunServeZipfSf02(const Args& args,
                                        const DigestMap& digests);
gpl::Result<RunReport> RunShardedX4Sf05(const Args& args,
                                        const DigestMap& digests);

/// Runs every class once at `scale_factor`, checks each result against the
/// CPU reference (ref::ExecutePlan + ref::TablesEqual) and prints the digest
/// lines of the committed digest file.
gpl::Status WriteDigests(double scale_factor);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
