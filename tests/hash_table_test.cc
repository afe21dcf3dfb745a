#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "exec/hash_table.h"

namespace gpl {
namespace {

TEST(JoinHashTableTest, EmptyTableFindsNothing) {
  JoinHashTable ht;
  std::vector<int64_t> rows;
  ht.Probe(42, &rows);
  EXPECT_TRUE(rows.empty());
  EXPECT_FALSE(ht.Contains(42));
  EXPECT_EQ(ht.num_entries(), 0);
}

TEST(JoinHashTableTest, BuildAndProbeSingleMatches) {
  JoinHashTable ht;
  ht.Build({10, 20, 30});
  std::vector<int64_t> rows;
  ht.Probe(20, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 1);
  EXPECT_TRUE(ht.Contains(10));
  EXPECT_FALSE(ht.Contains(15));
}

TEST(JoinHashTableTest, DuplicateKeysReturnAllRows) {
  JoinHashTable ht;
  ht.Build({7, 8, 7, 9, 7});
  std::vector<int64_t> rows;
  ht.Probe(7, &rows);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<int64_t>{0, 2, 4}));
}

TEST(JoinHashTableTest, RowBaseOffsetsRows) {
  JoinHashTable ht;
  ht.Build({1, 2}, /*row_base=*/100);
  std::vector<int64_t> rows;
  ht.Probe(2, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 101);
}

TEST(JoinHashTableTest, IncrementalInsertAcrossTiles) {
  JoinHashTable ht;
  ht.Insert({1, 2, 3}, 0);
  ht.Insert({3, 4}, 3);
  EXPECT_EQ(ht.num_entries(), 5);
  std::vector<int64_t> rows;
  ht.Probe(3, &rows);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<int64_t>{2, 3}));
}

TEST(JoinHashTableTest, RebuildClearsOldEntries) {
  JoinHashTable ht;
  ht.Build({1, 2, 3});
  ht.Build({9});
  EXPECT_FALSE(ht.Contains(1));
  EXPECT_TRUE(ht.Contains(9));
  EXPECT_EQ(ht.num_entries(), 1);
}

TEST(JoinHashTableTest, NegativeAndLargeKeys) {
  JoinHashTable ht;
  ht.Build({-5, 0, (1LL << 62), -(1LL << 40)});
  EXPECT_TRUE(ht.Contains(-5));
  EXPECT_TRUE(ht.Contains(0));
  EXPECT_TRUE(ht.Contains(1LL << 62));
  EXPECT_TRUE(ht.Contains(-(1LL << 40)));
  EXPECT_FALSE(ht.Contains(1));
}

TEST(JoinHashTableTest, PackKeysIsInjectiveOnPairs) {
  std::set<int64_t> packed;
  for (int32_t a = -3; a <= 3; ++a) {
    for (int32_t b = -3; b <= 3; ++b) {
      packed.insert(JoinHashTable::PackKeys(a, b));
    }
  }
  EXPECT_EQ(packed.size(), 49u);
}

TEST(JoinHashTableTest, ByteSizeGrowsWithEntries) {
  JoinHashTable small, large;
  std::vector<int64_t> few(100), many(10000);
  for (size_t i = 0; i < few.size(); ++i) few[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < many.size(); ++i) many[i] = static_cast<int64_t>(i);
  small.Build(few);
  large.Build(many);
  EXPECT_GT(large.byte_size(), small.byte_size());
  EXPECT_GE(small.byte_size(),
            static_cast<int64_t>(few.size() * 3 * sizeof(int64_t)));
}

TEST(JoinHashTableTest, StressRandomKeysAgainstReference) {
  Random rng(42);
  std::vector<int64_t> keys(5000);
  for (auto& k : keys) k = rng.Uniform(0, 999);
  JoinHashTable ht;
  ht.Build(keys);

  for (int64_t probe = 0; probe < 1000; probe += 37) {
    std::vector<int64_t> expected;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == probe) expected.push_back(static_cast<int64_t>(i));
    }
    std::vector<int64_t> actual;
    ht.Probe(probe, &actual);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "probe key " << probe;
  }
}

TEST(JoinHashTableTest, ProbeBatchMatchesPerKeyProbesInChainOrder) {
  Random rng(9);
  // Many duplicates, tile-wise inserts, and probe batches whose length is
  // not a multiple of the internal prefetch batch.
  JoinHashTable ht;
  std::vector<int64_t> tile(300);
  for (int64_t base = 0; base < 1200; base += 300) {
    for (auto& k : tile) k = rng.Uniform(-200, 200);
    ht.Insert(tile, base);
  }
  std::vector<int64_t> probes(1003);
  for (auto& k : probes) k = rng.Uniform(-250, 250);

  std::vector<int64_t> want_probe, want_build;
  for (size_t i = 0; i < probes.size(); ++i) {
    std::vector<int64_t> rows;
    ht.Probe(probes[i], &rows);
    for (int64_t r : rows) {
      want_probe.push_back(1000 + static_cast<int64_t>(i));
      want_build.push_back(r);
    }
  }
  ASSERT_FALSE(want_probe.empty());
  std::vector<int64_t> probe_rows = {-1}, build_rows = {-2};  // appended to
  ht.ProbeBatch(probes.data(), static_cast<int64_t>(probes.size()), 1000,
                &probe_rows, &build_rows);
  want_probe.insert(want_probe.begin(), -1);
  want_build.insert(want_build.begin(), -2);
  EXPECT_EQ(probe_rows, want_probe);
  EXPECT_EQ(build_rows, want_build);

  JoinHashTable empty;
  std::vector<int64_t> none_probe, none_build;
  empty.ProbeBatch(probes.data(), static_cast<int64_t>(probes.size()), 0,
                   &none_probe, &none_build);
  EXPECT_TRUE(none_probe.empty());
  EXPECT_TRUE(none_build.empty());
}

}  // namespace
}  // namespace gpl
