#ifndef GPL_POOL_SUBPLAN_CACHE_H_
#define GPL_POOL_SUBPLAN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "pool/page_pool.h"

namespace gpl {
namespace pool {

/// Configuration of a SubplanCache.
struct SubplanCacheOptions {
  /// Budget of the backing PagePool. 0 disables retention entirely: nothing
  /// is ever kept after its in-flight consumers finish, but concurrent
  /// queries computing the same key still attach to the one in-flight
  /// compute (shared-scan batching needs no retention).
  int64_t capacity_bytes = 64ll * 1024 * 1024;
  int64_t page_bytes = 64 * 1024;
};

/// Counters of a SubplanCache (one consistent snapshot). `hits` includes
/// `attaches` — the subset of hits that were served by waiting on another
/// query's in-flight compute rather than by a retained entry.
struct SubplanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t attaches = 0;
  uint64_t inserts = 0;
  uint64_t rejected = 0;  ///< publishes not retained (no pages after eviction)
  uint64_t evictions = 0;
  int64_t bytes = 0;    ///< logical payload bytes of retained entries
  int64_t entries = 0;  ///< retained entries
  /// Shared-scan accounting: base-table rows materialized by actual scan
  /// computes vs. rows served to queries that attached to a cached or
  /// in-flight scan instead of issuing their own.
  uint64_t scan_rows_scanned = 0;
  uint64_t scan_rows_shared = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// A service-wide cache of materialized subplan data — build-side hash
/// tables, decoded scan views, whole segment results — keyed by exact plan
/// signatures (the executor composes them; see GplExecutor). Payloads are
/// type-erased shared_ptrs: the cache owns lifetime and budget, the executor
/// owns meaning. Page accounting goes through a PagePool so overlapping
/// entries can share physical pages (`shared_units`) and occupancy/waste are
/// observable.
///
/// Concurrency protocol: Acquire() either returns a hit, or blocks while
/// another thread computes the same key, or makes the caller the *owner* of
/// the compute. An owner MUST call Publish() or Abort() exactly once;
/// waiters woken by Publish get the payload (an "attach"), waiters woken by
/// Abort retry and may become owners themselves. Eviction never invalidates
/// a served payload — consumers hold shared_ptr pins; eviction only drops
/// the cache's own reference and its pages.
class SubplanCache {
 public:
  using Payload = std::shared_ptr<const void>;

  /// Outcome of Acquire.
  struct Acquisition {
    bool hit = false;    ///< payload is valid (retained entry or attach)
    bool owner = false;  ///< caller must Publish() or Abort() this key
    Payload payload;
  };

  /// A pool-sharing unit of an entry: (unit key, payload bytes). Entries
  /// publishing the same unit key share one page run (refcounted) instead of
  /// each acquiring their own — e.g. two scan views over the same base
  /// column.
  struct SharedUnit {
    std::string key;
    int64_t bytes = 0;
  };

  explicit SubplanCache(const SubplanCacheOptions& options);
  ~SubplanCache();

  SubplanCache(const SubplanCache&) = delete;
  SubplanCache& operator=(const SubplanCache&) = delete;

  Acquisition Acquire(const std::string& key);

  /// Publishes the owner's computed payload: wakes waiters (they all receive
  /// `payload` regardless of retention) and tries to retain the entry,
  /// evicting cold entries for pages as needed. `bytes` is the logical size
  /// charged; `cost_ms` the host cost to recompute (eviction scoring). When
  /// `shared_units` is non-empty the pool charge is per unit with sharing;
  /// otherwise one dedicated run of `bytes`.
  void Publish(const std::string& key, Payload payload, int64_t bytes,
               double cost_ms, const std::vector<SharedUnit>& shared_units = {});

  /// Abandons the owner's compute (error/cancellation): wakes waiters to
  /// retry. The failed status propagates only through the owner.
  void Abort(const std::string& key);

  /// Shared-scan accounting hook (kept here so every executor over this
  /// cache feeds one service-wide view).
  void AddScanRows(bool shared, int64_t rows);

  SubplanCacheStats stats() const;
  PagePoolStats pool_stats() const { return pool_.stats(); }

  /// Drops every retained entry (in-flight computes are unaffected).
  void Clear();

  /// Registers occupancy/waste/traffic gauges on `metrics` and returns the
  /// callback ids; the caller removes them (RemoveCallback) before this
  /// cache is destroyed. `prefix` names the family, e.g. "gpl_subplan".
  std::vector<uint64_t> RegisterGauges(obs::MetricsRegistry* metrics,
                                       const std::string& prefix);

 private:
  struct UnitRecord {
    PageRun run;
    int users = 0;
  };
  struct Entry {
    Payload payload;
    int64_t bytes = 0;
    double cost_ms = 0.0;
    uint64_t hits = 0;
    PageRun run;                         ///< dedicated run (unit_keys empty)
    std::vector<std::string> unit_keys;  ///< shared units charged instead
    std::list<std::string>::iterator lru_it;
  };
  struct InFlight {
    bool done = false;
    bool published = false;
    Payload payload;
  };

  /// Acquires `bytes` of pages, evicting per policy until it fits or the
  /// cache is out of victims. Empty optional = cannot fit.
  std::optional<PageRun> AcquireWithEvictionLocked(int64_t bytes);
  /// Evicts the entry PickEvictionVictim (common/eviction.h) picks, scoring
  /// cost_ms * (1 + hits). False when nothing is evictable.
  bool EvictOneLocked();
  void DropEntryLocked(const std::string& key);

  const SubplanCacheOptions options_;
  PagePool pool_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, UnitRecord> units_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::list<std::string> lru_;  ///< front = most recently used
  SubplanCacheStats stats_;
};

}  // namespace pool
}  // namespace gpl

#endif  // GPL_POOL_SUBPLAN_CACHE_H_
