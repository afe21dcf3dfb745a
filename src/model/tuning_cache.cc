#include "model/tuning_cache.h"

#include <cstdio>
#include <cstring>

#include "common/eviction.h"

namespace gpl {
namespace model {

namespace {

/// Appends a double as its raw 64-bit pattern (hex) — exact, no formatting
/// loss, and distinguishes e.g. -0.0 from 0.0.
void AppendBits(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx,",
                static_cast<unsigned long long>(bits));
  out->append(buf);
}

void AppendInt(std::string* out, long long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld,", v);
  out->append(buf);
}

}  // namespace

TuningCache::TuningCache(size_t max_entries) : max_entries_(max_entries) {}

template <typename Value>
std::optional<Value> TuningCache::LookupIn(Memo<Value>* memo,
                                           const std::string& signature) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo->entries.find(signature);
    if (it != memo->entries.end()) {
      memo->hits.fetch_add(1, std::memory_order_relaxed);
      ++it->second.hits;
      memo->lru.splice(memo->lru.begin(), memo->lru, it->second.lru_it);
      return it->second.value;
    }
  }
  memo->misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

template <typename Value>
void TuningCache::InsertInto(Memo<Value>* memo, const std::string& signature,
                             const Value& value) {
  std::lock_guard<std::mutex> lock(mu_);
  // First insert wins: concurrent first-misses compute identical values.
  if (memo->entries.count(signature) > 0) return;
  while (max_entries_ > 0 && memo->entries.size() >= max_entries_ &&
         !memo->lru.empty()) {
    const auto victim = PickEvictionVictim(
        memo->lru, memo->entries, [](const Entry<Value>&) { return 1.0; });
    bytes_ -= static_cast<int64_t>(victim->size() + sizeof(Entry<Value>));
    memo->entries.erase(*victim);
    memo->lru.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  memo->lru.push_front(signature);
  memo->entries.emplace(signature,
                        Entry<Value>{value, 0, memo->lru.begin()});
  bytes_ += static_cast<int64_t>(signature.size() + sizeof(Entry<Value>));
}

std::string TuningCache::SegmentSignature(const sim::DeviceSpec& device,
                                          const SegmentDesc& segment,
                                          const TuningOverrides& overrides,
                                          const std::string& engine_scope) {
  std::string key;
  key.reserve(80 + segment.stages.size() * 160);
  // Engine mode + fusion decision first: a choice tuned for one mode's
  // search space must never alias a hit in another mode.
  key += engine_scope;
  key += '|';
  // Device: the presets are identified by name; num_cus/cache/clock guard
  // against hand-modified specs sharing a name.
  key += device.name;
  key += '|';
  AppendInt(&key, device.num_cus);
  AppendInt(&key, device.cache_bytes);
  AppendInt(&key, device.core_mhz);
  // Segment-wide inputs of the search.
  AppendBits(&key, segment.input_bytes);
  AppendInt(&key, segment.extra_resident_bytes);
  // Per-stage timing descriptor + optimizer cardinality estimates.
  for (const StageDesc& stage : segment.stages) {
    const sim::KernelTimingDesc& t = stage.timing;
    key += t.name;
    key += ':';
    AppendBits(&key, t.compute_inst_per_row);
    AppendBits(&key, t.mem_inst_per_row);
    AppendInt(&key, t.private_bytes_per_item);
    AppendInt(&key, t.local_bytes_per_item);
    AppendInt(&key, t.blocking ? 1 : 0);
    AppendBits(&key, t.random_access_fraction);
    AppendInt(&key, t.random_working_set_bytes);
    AppendBits(&key, stage.rows_in);
    AppendBits(&key, stage.bytes_in);
    AppendBits(&key, stage.rows_out);
    AppendBits(&key, stage.bytes_out);
    key += ';';
  }
  // Knob pins change the search space, so they are part of the key.
  key += '|';
  AppendInt(&key, overrides.tile_bytes);
  AppendInt(&key, overrides.workgroups_per_kernel);
  AppendInt(&key, overrides.has_channel ? 1 : 0);
  if (overrides.has_channel) {
    AppendInt(&key, overrides.channel.num_channels);
    AppendInt(&key, overrides.channel.packet_bytes);
  }
  return key;
}

std::string TuningCache::ExchangePlanSignature(
    const sim::LinkSpec& link, int num_shards, int64_t fact_bytes,
    const std::vector<ExchangeInput>& inputs) {
  std::string key;
  key.reserve(64 + inputs.size() * 64);
  // Version prefix: "xp2" keys the plan-level format with spine-aware
  // pricing. Entries written under the retired per-relation "x|" scheme (or
  // any future shape bump) can never alias this key space.
  key += "xp2|";
  key += link.name;
  key += '|';
  AppendBits(&key, link.gbytes_per_sec);
  AppendBits(&key, link.latency_us);
  AppendInt(&key, num_shards);
  AppendInt(&key, fact_bytes);
  for (const ExchangeInput& input : inputs) {
    key += input.table;
    key += '|';
    AppendInt(&key, input.bytes);
    AppendInt(&key, input.rows);
    AppendInt(&key, input.co_partitioned ? 1 : 0);
    AppendInt(&key, input.spine_bytes);
    key += ';';
  }
  return key;
}

std::optional<ExchangePlan> TuningCache::LookupExchangePlan(
    const std::string& signature) {
  return LookupIn(&exchanges_, signature);
}

void TuningCache::InsertExchangePlan(const std::string& signature,
                                     const ExchangePlan& plan) {
  InsertInto(&exchanges_, signature, plan);
}

std::optional<TuningChoice> TuningCache::Lookup(const std::string& signature) {
  return LookupIn(&segments_, signature);
}

void TuningCache::Insert(const std::string& signature,
                         const TuningChoice& choice) {
  InsertInto(&segments_, signature, choice);
}

TuningCacheStats TuningCache::stats() const {
  TuningCacheStats stats;
  stats.hits = segments_.hits.load(std::memory_order_relaxed);
  stats.misses = segments_.misses.load(std::memory_order_relaxed);
  stats.exchange_hits = exchanges_.hits.load(std::memory_order_relaxed);
  stats.exchange_misses = exchanges_.misses.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.bytes = bytes_;
    stats.entries =
        static_cast<int64_t>(segments_.entries.size() +
                             exchanges_.entries.size());
  }
  return stats;
}

size_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.entries.size();
}

size_t TuningCache::exchange_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exchanges_.entries.size();
}

void TuningCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  segments_.Clear();
  exchanges_.Clear();
  bytes_ = 0;
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace model
}  // namespace gpl
