#include "pool/page_pool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pool/subplan_cache.h"

namespace gpl {
namespace {

using pool::PagePool;
using pool::PagePoolOptions;
using pool::PagePoolStats;
using pool::PageRun;
using pool::SubplanCache;
using pool::SubplanCacheOptions;
using pool::SubplanCacheStats;

PagePoolOptions SmallPool(int64_t pages, int64_t page_bytes = 1024) {
  PagePoolOptions options;
  options.page_bytes = page_bytes;
  options.capacity_bytes = pages * page_bytes;
  return options;
}

TEST(PagePoolTest, AcquireRoundsUpToWholePagesAndTracksWaste) {
  PagePool pool(SmallPool(8));
  auto run = pool.Acquire(1500);  // 1.5 pages -> 2 pages
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->pages.size(), 2u);
  EXPECT_EQ(run->payload_bytes, 1500);

  const PagePoolStats stats = pool.stats();
  EXPECT_EQ(stats.used_pages, 2);
  EXPECT_EQ(stats.free_pages, 6);
  EXPECT_EQ(stats.payload_bytes, 1500);
  EXPECT_EQ(stats.waste_bytes, 2 * 1024 - 1500);
  EXPECT_DOUBLE_EQ(stats.Occupancy(), 2.0 / 8.0);

  pool.Release(*run);
  const PagePoolStats after = pool.stats();
  EXPECT_EQ(after.used_pages, 0);
  EXPECT_EQ(after.payload_bytes, 0);
  EXPECT_EQ(after.waste_bytes, 0);
}

TEST(PagePoolTest, ZeroPayloadAlwaysSucceedsWithEmptyRun) {
  PagePool pool(SmallPool(0));  // capacity 0: no pages at all
  auto empty = pool.Acquire(0);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  auto denied = pool.Acquire(1);
  EXPECT_FALSE(denied.has_value());
  EXPECT_EQ(pool.stats().failures, 1u);
}

TEST(PagePoolTest, FailedAcquireLeavesPoolUnchanged) {
  PagePool pool(SmallPool(2));
  auto held = pool.Acquire(2048);  // both pages
  ASSERT_TRUE(held.has_value());
  const PagePoolStats before = pool.stats();

  EXPECT_FALSE(pool.Acquire(1).has_value());
  const PagePoolStats after = pool.stats();
  EXPECT_EQ(after.used_pages, before.used_pages);
  EXPECT_EQ(after.free_pages, before.free_pages);
  EXPECT_EQ(after.payload_bytes, before.payload_bytes);
  EXPECT_EQ(after.failures, before.failures + 1);
}

/// Free pages are handed out lowest-id first regardless of release order, so
/// identical acquire/release sequences always yield identical runs.
TEST(PagePoolTest, AllocationIsLowestIdFirstDeterministic) {
  PagePool pool(SmallPool(4));
  auto a = pool.Acquire(1024);  // page 0
  auto b = pool.Acquire(1024);  // page 1
  auto c = pool.Acquire(1024);  // page 2
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(a->pages, std::vector<int32_t>{0});
  EXPECT_EQ(b->pages, std::vector<int32_t>{1});
  EXPECT_EQ(c->pages, std::vector<int32_t>{2});

  // Release out of order; the next two-page acquire still takes {0, 2}.
  pool.Release(*c);
  pool.Release(*a);
  auto d = pool.Acquire(2048);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->pages, (std::vector<int32_t>{0, 2}));
}

TEST(PagePoolTest, ShareTakesAReferencePerPage) {
  PagePool pool(SmallPool(4));
  auto run = pool.Acquire(2048);
  ASSERT_TRUE(run.has_value());
  PageRun copy = pool.Share(*run);
  EXPECT_EQ(copy.pages, run->pages);

  // One release keeps the pages alive for the other reference.
  pool.Release(*run);
  EXPECT_EQ(pool.stats().used_pages, 2);
  EXPECT_EQ(pool.stats().payload_bytes, 2048);

  pool.Release(copy);
  EXPECT_EQ(pool.stats().used_pages, 0);
  EXPECT_EQ(pool.stats().payload_bytes, 0);
}

/// Prefix sharing: Extend() reuses the prefix's pages (refcounted) and only
/// allocates fresh pages for the tail, so shared pages are charged once.
TEST(PagePoolTest, ExtendSharesPrefixPages) {
  PagePool pool(SmallPool(8));
  auto prefix = pool.Acquire(2048);  // pages {0, 1}
  ASSERT_TRUE(prefix.has_value());

  auto extended = pool.Extend(*prefix, 3072);
  ASSERT_TRUE(extended.has_value());
  EXPECT_EQ(extended->payload_bytes, 3072);
  ASSERT_EQ(extended->pages.size(), 3u);
  EXPECT_EQ(extended->pages[0], prefix->pages[0]);
  EXPECT_EQ(extended->pages[1], prefix->pages[1]);
  EXPECT_EQ(extended->pages[2], 2);

  // The shared pages count once in occupancy: 3 used pages, not 5.
  EXPECT_EQ(pool.stats().used_pages, 3);

  // The prefix run stays independently releasable: dropping it keeps the
  // extended run's pages alive.
  pool.Release(*prefix);
  EXPECT_EQ(pool.stats().used_pages, 3);
  pool.Release(*extended);
  EXPECT_EQ(pool.stats().used_pages, 0);
}

TEST(PagePoolTest, ExtendFailureLeavesPoolUnchanged) {
  PagePool pool(SmallPool(2));
  auto prefix = pool.Acquire(1024);
  ASSERT_TRUE(prefix.has_value());
  const PagePoolStats before = pool.stats();

  // Tail needs 2 pages but only 1 is free.
  EXPECT_FALSE(pool.Extend(*prefix, 1024 + 2048).has_value());
  const PagePoolStats after = pool.stats();
  EXPECT_EQ(after.used_pages, before.used_pages);
  EXPECT_EQ(after.free_pages, before.free_pages);
  EXPECT_EQ(after.failures, before.failures + 1);
}

/// Concurrent acquire/release exactness: hammer the pool from many threads,
/// then verify the books balance to the empty state — no leaked pages, no
/// double frees, no drifting payload accounting.
TEST(PagePoolTest, ConcurrentAcquireReleaseBalancesExactly) {
  PagePool pool(SmallPool(64));
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failures, t] {
      for (int i = 0; i < kIters; ++i) {
        // Deterministic per-thread size mix, 0.5 .. 4.5 pages.
        const int64_t bytes = 512 + ((t * 131 + i * 17) % 8) * 512;
        auto run = pool.Acquire(bytes);
        if (!run.has_value()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        PageRun shared = pool.Share(*run);
        pool.Release(*run);
        pool.Release(shared);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const PagePoolStats stats = pool.stats();
  EXPECT_EQ(stats.used_pages, 0);
  EXPECT_EQ(stats.free_pages, stats.total_pages);
  EXPECT_EQ(stats.payload_bytes, 0);
  EXPECT_EQ(stats.waste_bytes, 0);
  EXPECT_EQ(stats.failures, failures.load());
  // Every successful acquire was released twice (itself + its share).
  EXPECT_EQ(stats.releases, 2 * (stats.acquires));

  // The drained pool still allocates deterministically from page 0.
  auto run = pool.Acquire(1024);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->pages, std::vector<int32_t>{0});
}

// ---------------------------------------------------------------------------
// SubplanCache protocol (the executor-facing layer over the pool).
// ---------------------------------------------------------------------------

SubplanCacheOptions SmallCache(int64_t pages, int64_t page_bytes = 1024) {
  SubplanCacheOptions options;
  options.page_bytes = page_bytes;
  options.capacity_bytes = pages * page_bytes;
  return options;
}

SubplanCache::Payload IntPayload(int value) {
  return std::static_pointer_cast<const void>(std::make_shared<int>(value));
}

int PayloadValue(const SubplanCache::Payload& payload) {
  return *static_cast<const int*>(payload.get());
}

TEST(SubplanCacheTest, MissPublishHitRoundTrip) {
  SubplanCache cache(SmallCache(8));
  SubplanCache::Acquisition first = cache.Acquire("k");
  ASSERT_TRUE(first.owner);
  EXPECT_FALSE(first.hit);
  cache.Publish("k", IntPayload(42), /*bytes=*/100, /*cost_ms=*/1.0);

  SubplanCache::Acquisition second = cache.Acquire("k");
  ASSERT_TRUE(second.hit);
  EXPECT_FALSE(second.owner);
  EXPECT_EQ(PayloadValue(second.payload), 42);

  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 100);
}

TEST(SubplanCacheTest, AbortWakesWaiterToBecomeOwner) {
  SubplanCache cache(SmallCache(8));
  SubplanCache::Acquisition owner = cache.Acquire("k");
  ASSERT_TRUE(owner.owner);

  std::thread waiter([&cache] {
    SubplanCache::Acquisition acq = cache.Acquire("k");
    // The owner aborted, so the waiter retried and became the next owner.
    ASSERT_TRUE(acq.owner);
    cache.Abort("k");
  });
  // Give the waiter a chance to block on the in-flight record, then abort.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Abort("k");
  waiter.join();

  EXPECT_EQ(cache.stats().attaches, 0u);
  EXPECT_EQ(cache.stats().entries, 0);
}

/// Capacity 0 retains nothing, but concurrent queries on one key still share
/// the single in-flight compute (the attach path needs no pages).
TEST(SubplanCacheTest, CapacityZeroStillAttachesInFlight) {
  SubplanCache cache(SmallCache(0));
  SubplanCache::Acquisition owner = cache.Acquire("k");
  ASSERT_TRUE(owner.owner);

  std::thread waiter([&cache] {
    SubplanCache::Acquisition acq = cache.Acquire("k");
    ASSERT_TRUE(acq.hit);
    EXPECT_EQ(PayloadValue(acq.payload), 7);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.Publish("k", IntPayload(7), /*bytes=*/100, /*cost_ms=*/1.0);
  waiter.join();

  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.attaches, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 0);  // nothing retained
  EXPECT_EQ(stats.rejected, 1u);
  // A later acquire misses: the payload was served but never kept.
  EXPECT_TRUE(cache.Acquire("k").owner);
  cache.Abort("k");
}

/// Eviction under pressure drops the cheapest/least-reused entries but never
/// invalidates a payload a consumer still holds.
TEST(SubplanCacheTest, EvictsColdEntriesUnderPressureAndKeepsServedPins) {
  SubplanCacheOptions options = SmallCache(4);
  SubplanCache cache(options);

  ASSERT_TRUE(cache.Acquire("a").owner);
  cache.Publish("a", IntPayload(1), /*bytes=*/2048, /*cost_ms=*/1.0);
  SubplanCache::Acquisition pinned = cache.Acquire("a");  // hold the payload
  ASSERT_TRUE(pinned.hit);

  ASSERT_TRUE(cache.Acquire("b").owner);
  cache.Publish("b", IntPayload(2), /*bytes=*/2048, /*cost_ms=*/1.0);
  EXPECT_EQ(cache.stats().entries, 2);

  // A third 2-page entry cannot fit without evicting; "a" has a hit and "b"
  // does not, so "b" is the victim.
  ASSERT_TRUE(cache.Acquire("c").owner);
  cache.Publish("c", IntPayload(3), /*bytes=*/2048, /*cost_ms=*/1.0);

  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_TRUE(cache.Acquire("b").owner);  // evicted
  cache.Abort("b");
  EXPECT_TRUE(cache.Acquire("a").hit);
  EXPECT_TRUE(cache.Acquire("c").hit);
  // The pinned payload from before the eviction round is still intact.
  EXPECT_EQ(PayloadValue(pinned.payload), 1);
}

/// Entries publishing the same shared unit charge its pages once; the unit's
/// run is released only when the last referencing entry is dropped.
TEST(SubplanCacheTest, SharedUnitsChargePagesOnce) {
  SubplanCache cache(SmallCache(8));
  const std::vector<SubplanCache::SharedUnit> units = {{"col:a", 2048}};

  ASSERT_TRUE(cache.Acquire("scan1").owner);
  cache.Publish("scan1", IntPayload(1), /*bytes=*/2048, /*cost_ms=*/1.0,
                units);
  ASSERT_TRUE(cache.Acquire("scan2").owner);
  cache.Publish("scan2", IntPayload(2), /*bytes=*/2048, /*cost_ms=*/1.0,
                units);

  // Two entries, one physical 2-page run.
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.pool_stats().used_pages, 2);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.pool_stats().used_pages, 0);
}

/// Concurrent acquire/publish on overlapping keys: every thread observes the
/// same payload value per key (single compute, everyone attaches or hits),
/// and the books balance afterwards.
TEST(SubplanCacheTest, ConcurrentAcquirePublishExactness) {
  SubplanCache cache(SmallCache(64));
  constexpr int kThreads = 8;
  constexpr int kKeys = 4;
  constexpr int kIters = 200;
  std::atomic<uint64_t> mismatches{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &mismatches, t] {
      for (int i = 0; i < kIters; ++i) {
        const int key_id = (t + i) % kKeys;
        std::string key("k");
        key += std::to_string(key_id);
        SubplanCache::Acquisition acq = cache.Acquire(key);
        if (acq.owner) {
          cache.Publish(key, IntPayload(key_id), /*bytes=*/512,
                        /*cost_ms=*/1.0);
        } else if (PayloadValue(acq.payload) != key_id) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.entries, kKeys);
  // Hot keys: after the first round everything hits.
  EXPECT_GE(stats.HitRate(), 0.9);
}

TEST(SubplanCacheTest, RegisterGaugesExportsOccupancyAndTraffic) {
  obs::MetricsRegistry registry;
  SubplanCache cache(SmallCache(8));
  std::vector<uint64_t> ids = cache.RegisterGauges(&registry, "test_subplan");
  EXPECT_FALSE(ids.empty());

  ASSERT_TRUE(cache.Acquire("k").owner);
  cache.Publish("k", IntPayload(1), /*bytes=*/1500, /*cost_ms=*/1.0);
  cache.AddScanRows(/*shared=*/true, 100);

  bool saw_entries = false;
  bool saw_waste = false;
  for (const obs::FamilySnapshot& family : registry.Collect()) {
    if (family.name == "test_subplan_entries") {
      saw_entries = true;
      ASSERT_EQ(family.series.size(), 1u);
      EXPECT_DOUBLE_EQ(family.series[0].value, 1.0);
    }
    if (family.name == "test_subplan_pool_waste_bytes") {
      saw_waste = true;
      ASSERT_EQ(family.series.size(), 1u);
      EXPECT_DOUBLE_EQ(family.series[0].value, 2 * 1024 - 1500.0);
    }
  }
  EXPECT_TRUE(saw_entries);
  EXPECT_TRUE(saw_waste);
  for (uint64_t id : ids) registry.RemoveCallback(id);
}

}  // namespace
}  // namespace gpl
