// Unit tests for the LRU eviction policy, plus the end-to-end
// evict-while-mapped contract: an object a client still holds mapped
// (Get without Release) must never lose its memory to eviction — and,
// for the mapped data plane, that a REMOTE descriptor read racing a
// destructive eviction detects the generation mismatch instead of
// returning recycled bytes.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "plasma/client.h"
#include "plasma/eviction.h"
#include "plasma/store.h"

namespace mdos::plasma {
namespace {

ObjectId Id(int i) { return ObjectId::FromName("obj" + std::to_string(i)); }

TEST(EvictionTest, ChoosesLruFirst) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  policy.Add(Id(2), 100);
  policy.Add(Id(3), 100);

  auto victims =
      policy.ChooseVictims(100, [](const ObjectId&) { return true; });
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], Id(1));  // oldest first
}

TEST(EvictionTest, TouchMovesToMru) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  policy.Add(Id(2), 100);
  policy.Touch(Id(1));  // 2 is now LRU

  auto victims =
      policy.ChooseVictims(100, [](const ObjectId&) { return true; });
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], Id(2));
}

TEST(EvictionTest, AccumulatesUntilBytesSatisfied) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  policy.Add(Id(2), 100);
  policy.Add(Id(3), 100);

  auto victims =
      policy.ChooseVictims(250, [](const ObjectId&) { return true; });
  EXPECT_EQ(victims.size(), 3u);
}

TEST(EvictionTest, SkipsPinnedObjects) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  policy.Add(Id(2), 100);

  auto victims = policy.ChooseVictims(
      100, [](const ObjectId& id) { return id != Id(1); });
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], Id(2));
}

TEST(EvictionTest, ReturnsEmptyWhenCannotSatisfy) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  auto victims =
      policy.ChooseVictims(500, [](const ObjectId&) { return true; });
  EXPECT_TRUE(victims.empty()) << "must not thrash if goal unreachable";
}

TEST(EvictionTest, ReturnsEmptyWhenAllPinned) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  policy.Add(Id(2), 100);
  auto victims =
      policy.ChooseVictims(100, [](const ObjectId&) { return false; });
  EXPECT_TRUE(victims.empty());
}

TEST(EvictionTest, RemoveDropsFromConsideration) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  policy.Add(Id(2), 100);
  policy.Remove(Id(1));
  EXPECT_FALSE(policy.Contains(Id(1)));
  EXPECT_EQ(policy.size(), 1u);

  auto victims =
      policy.ChooseVictims(100, [](const ObjectId&) { return true; });
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], Id(2));
}

TEST(EvictionTest, ReAddMovesToMru) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  policy.Add(Id(2), 100);
  policy.Add(Id(1), 100);  // re-add: refreshed
  auto victims =
      policy.ChooseVictims(100, [](const ObjectId&) { return true; });
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], Id(2));
}

TEST(EvictionTest, TouchUnknownIsNoOp) {
  EvictionPolicy policy;
  policy.Touch(Id(9));
  policy.Remove(Id(9));
  EXPECT_EQ(policy.size(), 0u);
}

TEST(EvictionTest, ChooseDoesNotMutate) {
  EvictionPolicy policy;
  policy.Add(Id(1), 100);
  auto v1 = policy.ChooseVictims(100, [](const ObjectId&) { return true; });
  auto v2 = policy.ChooseVictims(100, [](const ObjectId&) { return true; });
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(policy.size(), 1u);
}

// The store-level half of the contract documented in eviction.h: an
// object a client has Get-mapped (local_refs != 0) is excluded from
// eviction even when it is the LRU candidate, so the client's mmap'd
// buffer is never reused underneath it; dropping the pin makes the
// object evictable again.
TEST(EvictionTest, EvictWhileMappedIsRefused) {
  StoreOptions options;
  options.name = "evict-mapped-test";
  options.capacity = 2 << 20;  // room for exactly two 1 MiB objects
  auto store = Store::Create(options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->Start().ok());
  auto client = PlasmaClient::Connect((*store)->socket_path());
  ASSERT_TRUE(client.ok()) << client.status();

  const std::string payload(1 << 20, 'a');
  ASSERT_TRUE((*client)->CreateAndSeal(Id(1), payload).ok());
  ASSERT_TRUE((*client)->CreateAndSeal(Id(2), payload).ok());

  // Map Id(1): it is now both the LRU-most-recent and pinned; Id(2) is
  // the only legal victim.
  auto mapped = (*client)->Get(Id(1), /*timeout_ms=*/0);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  // A third object forces eviction: Id(2) goes, Id(1) must survive.
  ASSERT_TRUE((*client)->CreateAndSeal(Id(3), payload).ok());
  auto contains = (*client)->Contains(Id(1));
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains) << "mapped object was evicted";
  // The mapping still reads the original bytes.
  char byte = 0;
  ASSERT_TRUE(mapped->ReadData(0, &byte, 1).ok());
  EXPECT_EQ(byte, 'a');

  // With Id(1) pinned and Id(3) fresh, a create needing BOTH slots can
  // only claim Id(3)'s; the pinned object blocks it entirely.
  auto blocked = (*client)->Create(Id(4), 2 << 20);
  EXPECT_EQ(blocked.status().code(), StatusCode::kOutOfMemory)
      << "create must fail rather than evict a mapped object";

  // Releasing the pin restores evictability: the same create succeeds.
  ASSERT_TRUE((*client)->Release(Id(1)).ok());
  auto unblocked = (*client)->Create(Id(4), 2 << 20);
  EXPECT_TRUE(unblocked.ok()) << unblocked.status();

  (*client).reset();
  (*store)->Stop();
}

// Mapped data plane vs destructive eviction: a mapped remote descriptor
// holds NOTHING at the home store (that is the point of the zero-RPC
// plane), so the home store is free to evict the object and recycle its
// bytes while the remote reader still holds the descriptor. The read
// must detect this through the generation re-check and error out via
// the reissued Get — it must NEVER return the recycled bytes.
TEST(EvictionTest, MappedRemoteReadRacingDestructiveEvictionErrors) {
  tf::FabricConfig config;
  config.local = tf::LatencyParams{0, 0.0};
  config.remote = tf::LatencyParams{0, 0.0};
  cluster::NodeOptions options;
  options.pool_size = 2 << 20;  // two 1 MiB slots per home store
  options.mapped_remote_reads = true;
  auto cluster = cluster::Cluster::CreateTwoNode(options, config);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId victim = ObjectId::FromName("mapped-evict-victim");
  std::string payload(1 << 20, '\0');
  SplitMix64(7).Fill(payload.data(), payload.size());
  ASSERT_TRUE((*producer)->CreateAndSeal(victim, payload).ok());

  // The consumer's Get resolves to a generation-stamped descriptor.
  auto buffer = (*consumer)->Get(victim, /*timeout_ms=*/0);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->is_mapped());

  // Two filler creates at the home store: the pool holds two slots, so
  // the second evicts the (unreferenced) victim destructively — no spill
  // tier — and immediately recycles its bytes for the filler payload.
  std::string filler(1 << 20, 'F');
  ASSERT_TRUE(
      (*producer)->CreateAndSeal(ObjectId::FromName("f1"), filler).ok());
  ASSERT_TRUE(
      (*producer)->CreateAndSeal(ObjectId::FromName("f2"), filler).ok());
  auto contains = (*producer)->Contains(victim);
  ASSERT_TRUE(contains.ok());
  ASSERT_FALSE(*contains) << "victim must have been evicted";

  // The copy sees the filler's bytes, the generation re-check flags the
  // overlap, and the reissued Get finds the object gone: the read
  // errors — deterministically, with KeyError — instead of handing back
  // torn data.
  auto crc = buffer->ChecksumData();
  EXPECT_FALSE(crc.ok())
      << "read of a destroyed mapped object returned data";
  EXPECT_EQ(crc.status().code(), StatusCode::kKeyError) << crc.status();

  // The store accounted the attempted fallback.
  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->mapped_fallbacks, 1u);
  ASSERT_TRUE((*consumer)->Release(victim).ok());
}

}  // namespace
}  // namespace mdos::plasma
