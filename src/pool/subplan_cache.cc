#include "pool/subplan_cache.h"

#include <algorithm>

#include "common/eviction.h"
#include "common/logging.h"

namespace gpl {
namespace pool {

namespace {
PagePoolOptions PoolOptions(const SubplanCacheOptions& options) {
  PagePoolOptions po;
  po.page_bytes = options.page_bytes;
  po.capacity_bytes = options.capacity_bytes;
  return po;
}
}  // namespace

SubplanCache::SubplanCache(const SubplanCacheOptions& options)
    : options_(options), pool_(PoolOptions(options)) {}

SubplanCache::~SubplanCache() = default;

SubplanCache::Acquisition SubplanCache::Acquire(const std::string& key) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      Entry& entry = it->second;
      ++entry.hits;
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, entry.lru_it);
      Acquisition acq;
      acq.hit = true;
      acq.payload = entry.payload;
      return acq;
    }
    auto fit = inflight_.find(key);
    if (fit == inflight_.end()) {
      inflight_.emplace(key, std::make_shared<InFlight>());
      ++stats_.misses;
      Acquisition acq;
      acq.owner = true;
      return acq;
    }
    // Another query is computing this key right now: attach to it instead of
    // recomputing (shared-scan batching). The record outlives its map slot
    // via the shared_ptr, so a publish after many waiters queued still
    // reaches all of them.
    std::shared_ptr<InFlight> rec = fit->second;
    cv_.wait(lock, [&rec] { return rec->done; });
    if (rec->published) {
      ++stats_.hits;
      ++stats_.attaches;
      Acquisition acq;
      acq.hit = true;
      acq.payload = rec->payload;
      return acq;
    }
    // The owner aborted; loop — this thread may now become the owner.
  }
}

void SubplanCache::Publish(const std::string& key, Payload payload,
                           int64_t bytes, double cost_ms,
                           const std::vector<SharedUnit>& shared_units) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = inflight_.find(key);
  GPL_CHECK(fit != inflight_.end());
  fit->second->done = true;
  fit->second->published = true;
  fit->second->payload = payload;
  inflight_.erase(fit);
  cv_.notify_all();

  if (entries_.count(key) > 0) return;  // benign re-publish race

  Entry entry;
  entry.payload = std::move(payload);
  entry.bytes = bytes;
  entry.cost_ms = cost_ms;
  if (shared_units.empty()) {
    auto run = AcquireWithEvictionLocked(bytes);
    if (!run.has_value()) {
      ++stats_.rejected;
      return;
    }
    entry.run = std::move(*run);
  } else {
    // Charge per shared unit: the first publisher of a unit acquires its
    // run, later publishers take a refcounted share — overlapping scan
    // views pay for each base column once.
    std::vector<std::string> charged;
    bool failed = false;
    for (const SharedUnit& unit : shared_units) {
      auto uit = units_.find(unit.key);
      if (uit != units_.end()) {
        pool_.Share(uit->second.run);
        ++uit->second.users;
      } else {
        auto run = AcquireWithEvictionLocked(unit.bytes);
        if (!run.has_value()) {
          failed = true;
          break;
        }
        UnitRecord rec;
        rec.run = std::move(*run);
        rec.users = 1;
        units_.emplace(unit.key, std::move(rec));
      }
      charged.push_back(unit.key);
    }
    if (failed) {
      for (const std::string& unit_key : charged) {
        auto uit = units_.find(unit_key);
        pool_.Release(uit->second.run);
        if (--uit->second.users == 0) units_.erase(uit);
      }
      ++stats_.rejected;
      return;
    }
    entry.unit_keys = std::move(charged);
  }
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  stats_.bytes += entry.bytes;
  ++stats_.entries;
  ++stats_.inserts;
  entries_.emplace(key, std::move(entry));
}

void SubplanCache::Abort(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = inflight_.find(key);
  GPL_CHECK(fit != inflight_.end());
  fit->second->done = true;
  inflight_.erase(fit);
  cv_.notify_all();
}

std::optional<PageRun> SubplanCache::AcquireWithEvictionLocked(int64_t bytes) {
  for (;;) {
    auto run = pool_.Acquire(bytes);
    if (run.has_value()) return run;
    if (!EvictOneLocked()) return std::nullopt;
  }
}

bool SubplanCache::EvictOneLocked() {
  if (lru_.empty()) return false;
  DropEntryLocked(*PickEvictionVictim(
      lru_, entries_, [](const Entry& entry) { return entry.cost_ms; }));
  ++stats_.evictions;
  return true;
}

void SubplanCache::DropEntryLocked(const std::string& key) {
  auto it = entries_.find(key);
  GPL_CHECK(it != entries_.end());
  Entry& entry = it->second;
  if (!entry.run.empty()) pool_.Release(entry.run);
  for (const std::string& unit_key : entry.unit_keys) {
    auto uit = units_.find(unit_key);
    GPL_CHECK(uit != units_.end());
    pool_.Release(uit->second.run);
    if (--uit->second.users == 0) units_.erase(uit);
  }
  stats_.bytes -= entry.bytes;
  --stats_.entries;
  lru_.erase(entry.lru_it);
  entries_.erase(it);
}

void SubplanCache::AddScanRows(bool shared, int64_t rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shared) {
    stats_.scan_rows_shared += static_cast<uint64_t>(rows);
  } else {
    stats_.scan_rows_scanned += static_cast<uint64_t>(rows);
  }
}

SubplanCacheStats SubplanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SubplanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!lru_.empty()) DropEntryLocked(lru_.back());
}

std::vector<uint64_t> SubplanCache::RegisterGauges(
    obs::MetricsRegistry* metrics, const std::string& prefix) {
  std::vector<uint64_t> ids;
  if (metrics == nullptr) return ids;
  const auto gauge = [&](const std::string& name, const std::string& help,
                         std::function<double()> fn) {
    ids.push_back(
        metrics->AddCallbackGauge(prefix + name, help, {}, std::move(fn)));
  };
  gauge("_entries", "Retained subplan-cache entries",
        [this] { return static_cast<double>(stats().entries); });
  gauge("_bytes", "Logical payload bytes retained in the subplan cache",
        [this] { return static_cast<double>(stats().bytes); });
  gauge("_hits", "Subplan-cache hits (including in-flight attaches)",
        [this] { return static_cast<double>(stats().hits); });
  gauge("_misses", "Subplan-cache misses (owned computes)",
        [this] { return static_cast<double>(stats().misses); });
  gauge("_evictions", "Entries evicted for page pressure",
        [this] { return static_cast<double>(stats().evictions); });
  gauge("_pool_occupancy", "Used fraction of the page pool",
        [this] { return pool_stats().Occupancy(); });
  gauge("_pool_used_pages", "Pages currently referenced by cache entries",
        [this] { return static_cast<double>(pool_stats().used_pages); });
  gauge("_pool_waste_bytes",
        "Internal fragmentation: reserved page bytes minus stored payload",
        [this] { return static_cast<double>(pool_stats().waste_bytes); });
  gauge("_scan_rows_shared", "Base-table rows served from shared scans",
        [this] { return static_cast<double>(stats().scan_rows_shared); });
  return ids;
}

}  // namespace pool
}  // namespace gpl
