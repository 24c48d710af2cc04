// End-to-end tests of k-way replication and failure-driven re-healing:
// seal-time fan-out to replica peers, the per-object replicate flag,
// replica selection / transparent failover when a copy's node dies, the
// re-heal driver restoring the copy count after a kill, origin deletes
// propagating drops, and the mapped data plane resolving against a
// surviving replica once the original home is dead.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.h"
#include "common/crc32.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "test_cluster_util.h"

namespace mdos {
namespace {

using testutil::FastFabric;
using testutil::MakeCluster;
using testutil::NamedId;
using testutil::RandomPayload;
using testutil::ReplicationConverged;
using testutil::WaitUntil;

cluster::NodeOptions ReplicatedNode(uint32_t k) {
  cluster::NodeOptions options = testutil::FailoverNodeOptions();
  options.replication_factor = k;
  return options;
}

TEST(ReplicationTest, SealFansOutToReplicaPeer) {
  auto cluster = MakeCluster(2, ReplicatedNode(2), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());

  const ObjectId id = ObjectId::FromName("replicated-obj");
  const std::string payload = RandomPayload(7, 256 << 10);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  // Seal-time fan-out is synchronous with the seal: the peer holds a
  // sealed copy by the time the producer's ack lands.
  ASSERT_TRUE(WaitUntil([&] {
    auto stats = (*cluster)->node(1)->store().stats();
    return stats.objects_sealed == 1;
  }));

  // Origin-side accounting: one remote copy, nothing under-replicated.
  auto stats = (*cluster)->node(0)->store().stats();
  EXPECT_EQ(stats.replicas_total, 1u);
  EXPECT_EQ(stats.under_replicated, 0u);

  // The replica is a first-class sealed object on the peer: a local
  // client there reads it without touching the origin.
  auto reader = (*cluster)->node(1)->CreateClient("reader");
  ASSERT_TRUE(reader.ok());
  auto buffer = (*reader)->Get(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_FALSE(buffer->is_remote());
  auto crc = buffer->ChecksumData();
  ASSERT_TRUE(crc.ok());
  EXPECT_EQ(*crc, Crc32(payload));
  ASSERT_TRUE((*reader)->Release(id).ok());
}

TEST(ReplicationTest, PerObjectReplicateFlagOnUnreplicatedStore) {
  auto cluster = MakeCluster(2, ReplicatedNode(1), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());

  // Plain object on a k=1 store: no fan-out.
  ASSERT_TRUE(
      (*producer)->CreateAndSeal(NamedId("plain", 0), "solo").ok());
  // Opted-in object: held at >= 2 copies despite replication_factor=1.
  ASSERT_TRUE((*producer)
                  ->CreateAndSeal(NamedId("precious", 0), "keep-me",
                                  /*metadata=*/{}, /*replicate=*/true)
                  .ok());

  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(1)->store().stats().objects_sealed == 1;
  }));
  auto stats = (*cluster)->node(0)->store().stats();
  EXPECT_EQ(stats.replicas_total, 1u);
  EXPECT_EQ(stats.under_replicated, 0u);

  auto reader = (*cluster)->node(1)->CreateClient("reader");
  ASSERT_TRUE(reader.ok());
  auto copy = (*reader)->Contains(NamedId("precious", 0));
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(*copy);
  auto plain = (*reader)->Contains(NamedId("plain", 0));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(*plain);
}

TEST(ReplicationTest, KillReplicaHolderRehealsToFullCopyCount) {
  auto cluster = MakeCluster(3, ReplicatedNode(2), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());

  constexpr int kObjects = 8;
  constexpr size_t kSize = 64 << 10;
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE((*producer)
                    ->CreateAndSeal(NamedId("heal", i),
                                    RandomPayload(i, kSize))
                    .ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return ReplicationConverged(**cluster); }));

  // All replicas land on ONE peer (replica selection is deterministic
  // with identical health/latency: lowest node id). Find it and kill it.
  size_t victim = 0;
  for (size_t i = 1; i < 3; ++i) {
    if ((*cluster)->node(i)->store().stats().objects_sealed > 0) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, 0u) << "replicas never arrived on a peer";
  uint32_t victim_id = (*cluster)->node(victim)->id();
  ASSERT_TRUE((*cluster)->KillNode(victim).ok());

  // The origin's health machine walks the victim to dead (until then
  // the stale copy sets still read as fully replicated), the re-heal
  // driver pushes fresh copies to the survivor, and the backlog drains
  // back to a fully replicated state.
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->registry().peer_state(victim_id) ==
           dist::PeerState::kDead;
  }));
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->store().stats().reheal_copies >=
           static_cast<uint64_t>(kObjects);
  }, /*timeout_ms=*/10000));
  ASSERT_TRUE(WaitUntil([&] { return ReplicationConverged(**cluster); },
                        /*timeout_ms=*/10000));
  auto stats = (*cluster)->node(0)->store().stats();
  EXPECT_EQ(stats.replicas_total, static_cast<uint64_t>(kObjects));
  EXPECT_EQ(stats.under_replicated, 0u);
  EXPECT_GE(stats.reheal_copies, static_cast<uint64_t>(kObjects));
  EXPECT_GE(stats.reheal_bytes, static_cast<uint64_t>(kObjects) * kSize);

  // Every copy now lives on the surviving peer, readable locally there.
  size_t survivor = (victim == 1) ? 2 : 1;
  auto reader = (*cluster)->node(survivor)->CreateClient("reader");
  ASSERT_TRUE(reader.ok());
  for (int i = 0; i < kObjects; ++i) {
    auto buffer = (*reader)->Get(NamedId("heal", i), 2000);
    ASSERT_TRUE(buffer.ok()) << "object " << i << ": " << buffer.status();
    auto crc = buffer->ChecksumData();
    ASSERT_TRUE(crc.ok());
    EXPECT_EQ(*crc, Crc32(RandomPayload(i, kSize))) << "object " << i;
    ASSERT_TRUE((*reader)->Release(NamedId("heal", i)).ok());
  }
}

TEST(ReplicationTest, KillOriginFailsOverReadsAndPromotesNewOrigin) {
  auto cluster = MakeCluster(3, ReplicatedNode(2), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());

  const ObjectId id = ObjectId::FromName("origin-dies");
  const std::string payload = RandomPayload(42, 512 << 10);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());
  ASSERT_TRUE(WaitUntil([&] { return ReplicationConverged(**cluster); }));

  // A consumer elsewhere reads through the registry before the failure
  // so its lookup path is warm, then the origin crashes.
  auto consumer = (*cluster)->node(2)->CreateClient("consumer");
  ASSERT_TRUE(consumer.ok());
  {
    auto buffer = (*consumer)->Get(id, 2000);
    ASSERT_TRUE(buffer.ok()) << buffer.status();
    ASSERT_TRUE((*consumer)->Release(id).ok());
  }
  producer->reset();
  uint32_t origin_id = (*cluster)->node(0)->id();
  ASSERT_TRUE((*cluster)->KillNode(0).ok());
  for (size_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(WaitUntil([&] {
      return (*cluster)->node(i)->registry().peer_state(origin_id) ==
             dist::PeerState::kDead;
    }));
  }

  // Reads transparently fail over to the surviving replica: the dead
  // peer drops out of the ranked candidate list and the lookup lands on
  // the copy's holder.
  ASSERT_TRUE(WaitUntil([&] {
    auto buffer = (*consumer)->Get(id, 500);
    if (!buffer.ok()) return false;
    auto crc = buffer->ChecksumData();
    (void)(*consumer)->Release(id);
    return crc.ok() && *crc == Crc32(payload);
  }, /*timeout_ms=*/10000));

  // The surviving holder elects itself the new origin and re-heals the
  // lost copy onto the remaining peer: copy count back at k=2.
  auto live_copies = [&] {
    uint64_t copies = 0;
    for (size_t i = 1; i < 3; ++i) {
      copies += (*cluster)->node(i)->store().stats().objects_sealed;
    }
    return copies;
  };
  ASSERT_TRUE(WaitUntil([&] { return live_copies() == 2; },
                        /*timeout_ms=*/10000))
      << "re-heal must restore the full copy count";
  ASSERT_TRUE(WaitUntil([&] { return ReplicationConverged(**cluster); },
                        /*timeout_ms=*/10000));
}

TEST(ReplicationTest, OriginDeletePropagatesReplicaDrop) {
  auto cluster = MakeCluster(2, ReplicatedNode(2), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());

  const ObjectId id = ObjectId::FromName("drop-me");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "short-lived").ok());
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(1)->store().stats().objects_sealed == 1;
  }));

  ASSERT_TRUE((*producer)->Delete(id).ok());
  // The drop RPC is fire-and-forget; the replica disappears shortly
  // after, leaving no orphaned copy behind.
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(1)->store().stats().objects_total == 0;
  }));
  auto stats = (*cluster)->node(0)->store().stats();
  EXPECT_EQ(stats.replicas_total, 0u);
  EXPECT_EQ(stats.under_replicated, 0u);
}

TEST(ReplicationTest, MappedReadFallsBackToSurvivingReplica) {
  cluster::NodeOptions options = ReplicatedNode(2);
  options.mapped_remote_reads = true;
  auto cluster = MakeCluster(3, options, FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());

  const ObjectId id = ObjectId::FromName("mapped-replica");
  const std::string payload = RandomPayload(99, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());
  ASSERT_TRUE(WaitUntil([&] { return ReplicationConverged(**cluster); }));

  // First resolve rides the mapped data plane against the home store.
  auto consumer = (*cluster)->node(2)->CreateClient("consumer");
  ASSERT_TRUE(consumer.ok());
  {
    auto buffer = (*consumer)->Get(id, 2000);
    ASSERT_TRUE(buffer.ok()) << buffer.status();
    EXPECT_TRUE(buffer->is_remote());
    auto crc = buffer->ChecksumData();
    ASSERT_TRUE(crc.ok());
    EXPECT_EQ(*crc, Crc32(payload));
    ASSERT_TRUE((*consumer)->Release(id).ok());
  }

  producer->reset();
  ASSERT_TRUE((*cluster)->KillNode(0).ok());

  // With the home dead, a fresh resolve must land a descriptor against
  // the surviving replica and read clean bytes.
  ASSERT_TRUE(WaitUntil([&] {
    auto buffer = (*consumer)->Get(id, 500);
    if (!buffer.ok()) return false;
    auto crc = buffer->ChecksumData();
    (void)(*consumer)->Release(id);
    return crc.ok() && *crc == Crc32(payload);
  }, /*timeout_ms=*/10000));
}

}  // namespace
}  // namespace mdos
