// Entry point of the benchmark runner: argument parsing, the helpers every
// workload shares (seeded stream, span log, result digests, metric
// aggregation) and the JSON record printed on the last stdout line.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "engine/engine.h"
#include "queries/tpch_queries.h"
#include "ref/reference_executor.h"
#include "service/query_service.h"

namespace perfbench {

std::vector<QueryClass> QueryClasses() {
  std::vector<QueryClass> classes;
  for (auto& [name, query] : gpl::queries::EvaluationSuite()) {
    classes.push_back({name, std::move(query)});
  }
  for (auto& [name, query] : gpl::queries::ExtendedSuite()) {
    classes.push_back({name, std::move(query)});
  }
  return classes;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(Next() % static_cast<uint64_t>(i + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

int64_t Spans::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Spans::Open(std::string name, int parent, int64_t query) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.query = query;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::Close(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

double Spans::TotalMs(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double Spans::SelfMs(const std::string& name) const {
  // Children of one span are recorded sequentially on one thread, so they
  // never overlap: the part of the parent they cover is their summed length.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  int64_t ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(ns) / 1e6;
}

gpl::Status Spans::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return gpl::Status::Internal("cannot write spans to " + path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out ? gpl::Status::OK()
             : gpl::Status::Internal("short write of spans to " + path);
}

namespace {

void Fnv(uint64_t* h, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= bytes[i];
    *h *= 0x100000001b3ULL;
  }
}

}  // namespace

uint64_t TableDigest(const gpl::Table& table) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const int64_t rows = table.num_rows();
  Fnv(&h, &rows, sizeof(rows));
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.ColumnNameAt(c);
    Fnv(&h, name.data(), name.size() + 1);
    const gpl::Column& col = table.ColumnAt(c);
    const auto type = static_cast<uint8_t>(col.type());
    Fnv(&h, &type, 1);
    for (int64_t r = 0; r < rows; ++r) {
      switch (col.type()) {
        case gpl::DataType::kString: {
          const std::string& s = col.StringAt(r);
          Fnv(&h, s.data(), s.size() + 1);
          break;
        }
        case gpl::DataType::kFloat64: {
          const double v = col.DoubleAt(r);
          uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof(bits));
          Fnv(&h, &bits, sizeof(bits));
          break;
        }
        default: {
          const int64_t v = col.AsInt64(r);
          Fnv(&h, &v, sizeof(v));
          break;
        }
      }
    }
  }
  return h;
}

std::string DigestKey(double scale_factor, const std::string& query_class) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g/%s", scale_factor, query_class.c_str());
  return buf;
}

gpl::Result<DigestMap> LoadDigests(const std::string& path) {
  std::ifstream in(path);
  if (!in) return gpl::Status::NotFound("digest file not found: " + path);
  DigestMap digests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hex;
    if (!(fields >> key >> hex)) {
      return gpl::Status::InvalidArgument("malformed digest line: " + line);
    }
    digests[key] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return digests;
}

int64_t DatabaseRows(const gpl::tpch::Database& db) {
  return db.region.num_rows() + db.nation.num_rows() + db.supplier.num_rows() +
         db.customer.num_rows() + db.part.num_rows() +
         db.partsupp.num_rows() + db.orders.num_rows() +
         db.lineitem.num_rows();
}

double Median(std::vector<double> values) {
  return gpl::service::Percentile(std::move(values), 50.0);
}

namespace {

/// Quantile of the workload's class mix: a sample of class c weighs
/// share[c] / (samples of c), so a partial pass or an uneven draw does not
/// shift the class composition the quantile is taken over. Each sample sits
/// at the middle of its weight on the cumulative axis, and p interpolates
/// linearly between neighbouring samples (Hazen's rule, weighted).
double MixQuantile(std::vector<std::pair<double, double>> weighted, double p) {
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  double total = 0.0;
  for (const auto& [value, weight] : weighted) total += weight;
  double below = 0.0;
  double prev_pos = 0.0, prev_value = weighted.front().first;
  for (size_t i = 0; i < weighted.size(); ++i) {
    const auto& [value, weight] = weighted[i];
    const double pos = (below + weight / 2.0) / total;
    if (p <= pos) {
      if (i == 0) return value;
      return prev_value + (value - prev_value) * (p - prev_pos) /
                              (pos - prev_pos);
    }
    below += weight;
    prev_pos = pos;
    prev_value = value;
  }
  return weighted.back().first;
}

}  // namespace

void AddQueryMetrics(const std::vector<QueryClass>& classes,
                     const StreamMix& mix,
                     const std::vector<QueryRecord>& records, double window_s,
                     RunReport* report) {
  std::vector<std::vector<double>> class_walls(classes.size());
  std::vector<const QueryRecord*> first(classes.size(), nullptr);
  double sim_sum = 0.0;
  size_t n = 0;
  for (const QueryRecord& r : records) {
    if (!r.ok) continue;
    ++n;
    class_walls[static_cast<size_t>(r.cls)].push_back(r.wall_ms);
    if (first[static_cast<size_t>(r.cls)] == nullptr) {
      first[static_cast<size_t>(r.cls)] = &r;
    }
    sim_sum += r.metrics.elapsed_ms;
  }
  std::vector<std::pair<double, double>> weighted;
  for (size_t c = 0; c < classes.size(); ++c) {
    for (double wall : class_walls[c]) {
      weighted.emplace_back(
          wall, mix.share[c] / static_cast<double>(class_walls[c].size()));
    }
  }
  const double p50 = MixQuantile(weighted, 0.5);
  const double tail = MixQuantile(weighted, mix.tail_percentile / 100.0);
  size_t beyond = 0;
  for (const auto& sample : weighted) beyond += sample.first > tail;

  double log_sum = 0.0;
  int classes_seen = 0;
  double model_error = 0.0;
  std::ostringstream fingerprint;
  fingerprint << "{";
  for (size_t c = 0; c < classes.size(); ++c) {
    if (class_walls[c].empty()) continue;
    log_sum += std::log(Median(class_walls[c]));
    const gpl::QueryMetrics& m = first[c]->metrics;
    model_error += std::abs(m.predicted_ms - m.elapsed_ms) / m.elapsed_ms;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"sim_ms\":%.17g,\"predicted_ms\":%.17g,"
        "\"exchange_bytes\":%" PRId64 ",\"stitched_rows\":%" PRId64
        ",\"sim_exchange_ms\":%.17g,\"sim_merge_ms\":%.17g,"
        "\"cacheable_segments\":%" PRId64
        ",\"samples\":%zu,\"wall_p50_ms\":%.17g}",
        classes_seen == 0 ? "" : ",", classes[c].name.c_str(), m.elapsed_ms,
        m.predicted_ms, m.exchange_bytes, m.stitched_rows, m.exchange_ms,
        m.merge_ms, m.subplan_cache_hits + m.subplan_cache_misses,
        class_walls[c].size(), Median(class_walls[c]));
    fingerprint << buf;
    ++classes_seen;
  }
  fingerprint << "}";

  std::ostringstream stream;
  stream << "[";
  bool first_entry = true;
  for (const QueryRecord& r : records) {
    stream << (first_entry ? "\"" : ",\"")
           << classes[static_cast<size_t>(r.cls)].name << "\"";
    first_entry = false;
  }
  stream << "]";

  const double geomean =
      classes_seen == 0 ? 0.0 : std::exp(log_sum / classes_seen);
  report->end_to_end.push_back({"query_p50_ms", p50, "ms"});
  report->end_to_end.push_back({"query_tail_ms", tail, "ms"});
  report->end_to_end.push_back({"geomean_query_ms", geomean, "ms"});
  report->end_to_end.push_back(
      {"throughput_qps", static_cast<double>(n) / window_s, "1/s"});
  report->end_to_end.push_back(
      {"sim_ms_per_query", n == 0 ? 0.0 : sim_sum / static_cast<double>(n),
       "ms"});
  report->end_to_end.push_back(
      {"model_error_pct",
       classes_seen == 0 ? 0.0 : 100.0 * model_error / classes_seen, "%"});

  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.17g", mix.tail_percentile);
  report->info["tail_percentile"] = buf;
  report->info["tail_samples_beyond"] = std::to_string(beyond);
  report->info["samples"] = std::to_string(n);
  report->info["classes_seen"] = std::to_string(classes_seen);
  std::snprintf(buf, sizeof(buf), "%.17g", window_s);
  report->info["window_s"] = buf;
  report->info["per_class"] = fingerprint.str();
  report->info["stream"] = stream.str();

  report->attempted = static_cast<int64_t>(records.size());
  for (const QueryRecord& r : records) {
    if (!r.ok || !r.match) ++report->failed;
  }
}

void AddSetupMetrics(const SetupTimes& setup, bool trace, RunReport* report) {
  // setup_s goes first: it is the metric a later change most often moves.
  report->end_to_end.insert(report->end_to_end.begin(),
                            {"setup_s", Median(setup.total_s), "s"});
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report->end_to_end.push_back(
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"});
  if (!trace) return;
  const double generate_ms = Median(setup.generate_ms);
  report->per_layer.push_back({"tpch.generate_ms", generate_ms, "ms"});
  report->per_layer.push_back(
      {"tpch.rows_per_s",
       static_cast<double>(setup.rows_generated) / (generate_ms / 1e3), "1/s"});
  report->per_layer.push_back(
      {"engine.init_ms", Median(setup.engine_ms), "ms"});
  report->per_layer.push_back(
      {"shard.partition_ms", Median(setup.partition_ms), "ms"});
}

gpl::Status WriteDigests(double scale_factor) {
  gpl::tpch::Database db = gpl::tpch::Generate({.scale_factor = scale_factor});
  gpl::EngineOptions options;
  options.mode = gpl::EngineMode::kGpl;
  gpl::Engine engine(&db, options);
  for (const QueryClass& qc : QueryClasses()) {
    GPL_ASSIGN_OR_RETURN(gpl::QueryResult result, engine.Execute(qc.query));
    GPL_ASSIGN_OR_RETURN(gpl::PhysicalOpPtr plan, engine.Plan(qc.query));
    GPL_ASSIGN_OR_RETURN(gpl::Table expected, gpl::ref::ExecutePlan(db, plan));
    std::string why;
    if (!gpl::ref::TablesEqual(result.table, expected, &why)) {
      return gpl::Status::Internal(qc.name + " differs from the reference: " +
                                   why);
    }
    std::printf("%s %016" PRIx64 "\n",
                DigestKey(scale_factor, qc.name).c_str(),
                TableDigest(result.table));
  }
  return gpl::Status::OK();
}

}  // namespace perfbench

namespace {

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  std::printf("{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_runner --workload NAME --seed N "
               "--seconds S --trace 0|1 --digests FILE [--spans FILE]\n"
               "       perfbench_runner --write-digests SF\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  double digest_sf = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--digests") {
      args.digests_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--write-digests") {
      args.write_digests = true;
      digest_sf = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.write_digests) {
    const gpl::Status status = perfbench::WriteDigests(digest_sf);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  auto digests = perfbench::LoadDigests(args.digests_path);
  if (!digests.ok()) {
    std::fprintf(stderr, "error: %s\n", digests.status().ToString().c_str());
    return 1;
  }
  gpl::Result<perfbench::RunReport> report = gpl::Status::InvalidArgument(
      "unknown workload '" + args.workload +
      "' (want power_sf1|serve_zipf_sf02|sharded_x4_sf05)");
  if (args.workload == "power_sf1") {
    report = perfbench::RunPowerSf1(args, *digests);
  } else if (args.workload == "serve_zipf_sf02") {
    report = perfbench::RunServeZipfSf02(args, *digests);
  } else if (args.workload == "sharded_x4_sf05") {
    report = perfbench::RunShardedX4Sf05(args, *digests);
  }
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"trace\":%d,\"correct\":%s,\"attempted\":%" PRId64
              ",\"failed\":%" PRId64 ",\"end_to_end\":",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0,
              report->correct ? "true" : "false", report->attempted,
              report->failed);
  PrintMetrics(report->end_to_end);
  std::printf(",\"per_layer\":");
  PrintMetrics(report->per_layer);
  std::printf(",\"info\":{");
  bool first = true;
  for (const auto& [key, raw] : report->info) {
    std::printf("%s\"%s\":%s", first ? "" : ",", key.c_str(), raw.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
