// Unit tests for the remote-lookup cache (the §V-B "caching the look-up
// results" extension).
#include <gtest/gtest.h>

#include <thread>

#include "dist/lookup_cache.h"

namespace mdos::dist {
namespace {

plasma::RemoteObjectLocation Loc(uint32_t node, uint64_t offset) {
  plasma::RemoteObjectLocation loc;
  loc.home_node = node;
  loc.home_region = node * 10;
  loc.offset = offset;
  loc.data_size = 100;
  return loc;
}

TEST(LookupCacheTest, MissThenHit) {
  LookupCache cache;
  ObjectId id = ObjectId::FromName("a");
  EXPECT_FALSE(cache.Get(id).has_value());
  cache.Put(id, Loc(1, 64));
  auto hit = cache.Get(id);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->home_node, 1u);
  EXPECT_EQ(hit->offset, 64u);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(LookupCacheTest, PutOverwrites) {
  LookupCache cache;
  ObjectId id = ObjectId::FromName("a");
  cache.Put(id, Loc(1, 64));
  cache.Put(id, Loc(2, 128));
  auto hit = cache.Get(id);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->home_node, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LookupCacheTest, InvalidateRemovesEntry) {
  LookupCache cache;
  ObjectId id = ObjectId::FromName("a");
  cache.Put(id, Loc(1, 64));
  cache.Invalidate(id);
  EXPECT_FALSE(cache.Get(id).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(LookupCacheTest, InvalidateUnknownIsNoOp) {
  LookupCache cache;
  cache.Invalidate(ObjectId::FromName("ghost"));
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(LookupCacheTest, CapacityEvictsLru) {
  LookupCache cache(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    cache.Put(ObjectId::FromName("id" + std::to_string(i)), Loc(1, i));
  }
  EXPECT_LE(cache.size(), 3u);
  EXPECT_GE(cache.stats().evictions, 2u);
  // Most recent survives.
  EXPECT_TRUE(cache.Get(ObjectId::FromName("id4")).has_value());
  // Oldest was evicted.
  EXPECT_FALSE(cache.Get(ObjectId::FromName("id0")).has_value());
}

TEST(LookupCacheTest, GetRefreshesLruPosition) {
  LookupCache cache(/*capacity=*/2);
  ObjectId a = ObjectId::FromName("a");
  ObjectId b = ObjectId::FromName("b");
  ObjectId c = ObjectId::FromName("c");
  cache.Put(a, Loc(1, 1));
  cache.Put(b, Loc(1, 2));
  ASSERT_TRUE(cache.Get(a).has_value());  // a becomes MRU
  cache.Put(c, Loc(1, 3));                // evicts b
  EXPECT_TRUE(cache.Get(a).has_value());
  EXPECT_FALSE(cache.Get(b).has_value());
}

TEST(LookupCacheTest, ClearEmptiesCache) {
  LookupCache cache;
  cache.Put(ObjectId::FromName("a"), Loc(1, 1));
  cache.Put(ObjectId::FromName("b"), Loc(1, 2));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LookupCacheTest, ClearResetsStats) {
  LookupCache cache;
  ObjectId id = ObjectId::FromName("a");
  cache.Put(id, Loc(1, 1));
  (void)cache.Get(id);                        // hit
  (void)cache.Get(ObjectId::FromName("z"));   // miss
  cache.Clear();
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(LookupCacheTest, InvalidateNodeDropsOnlyThatNodesEntries) {
  LookupCache cache;
  cache.Put(ObjectId::FromName("a"), Loc(1, 1));
  cache.Put(ObjectId::FromName("b"), Loc(2, 2));
  cache.Put(ObjectId::FromName("c"), Loc(1, 3));
  EXPECT_EQ(cache.InvalidateNode(1), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Get(ObjectId::FromName("a")).has_value());
  EXPECT_TRUE(cache.Get(ObjectId::FromName("b")).has_value());
  EXPECT_FALSE(cache.Get(ObjectId::FromName("c")).has_value());
  EXPECT_EQ(cache.InvalidateNode(7), 0u);
}

TEST(LookupCacheTest, ThreadSafeUnderContention) {
  LookupCache cache(1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        ObjectId id = ObjectId::FromName("k" + std::to_string(i % 100));
        if ((i + t) % 3 == 0) {
          cache.Put(id, Loc(t, i));
        } else if ((i + t) % 3 == 1) {
          (void)cache.Get(id);
        } else {
          cache.Invalidate(id);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto stats = cache.stats();
  EXPECT_GT(stats.insertions, 0u);
}

}  // namespace
}  // namespace mdos::dist
