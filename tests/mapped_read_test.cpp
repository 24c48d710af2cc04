// End-to-end tests of the mapped data plane (zero-RPC remote reads):
// remote sealed Gets served as generation-stamped descriptors, payloads
// copied straight from the mapped fabric region, a seqlock-style
// generation re-check after every copy, and the descriptor reissue when
// the check fails. The eviction and spill races live next to their tiers
// (eviction_test.cpp, spill_tier_test.cpp); this file covers the happy
// path, the counters, deletion, and home-store restart (epoch)
// invalidation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/crc32.h"
#include "plasma/client.h"
#include "test_cluster_util.h"

namespace mdos::cluster {
namespace {

using testutil::FastFabric;
using testutil::RandomPayload;

NodeOptions MappedNode() {
  NodeOptions options;
  options.pool_size = 8 << 20;
  options.mapped_remote_reads = true;
  return options;
}

TEST(MappedReadTest, RemoteGetServesValidatedDescriptor) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-happy");
  const std::string payload = RandomPayload(1, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_TRUE(buffer->is_remote());
  EXPECT_TRUE(buffer->is_mapped());

  // Reads validate and repeat cleanly while the home copy is stable.
  for (int pass = 0; pass < 3; ++pass) {
    auto crc = buffer->ChecksumData();
    ASSERT_TRUE(crc.ok()) << crc.status();
    EXPECT_EQ(*crc, Crc32(payload));
  }
  char head[8];
  ASSERT_TRUE(buffer->ReadData(0, head, sizeof head).ok());
  EXPECT_EQ(std::string(head, sizeof head), payload.substr(0, sizeof head));
  EXPECT_TRUE(buffer->is_mapped()) << "no fallback should have fired";

  // Zero-RPC contract: the descriptor was resolved with a lookup and no
  // other RPC crossed the LAN, and the consumer-side store counted the
  // mapped Get.
  auto registry = (*cluster)->node(1)->registry().stats();
  EXPECT_EQ(registry.pin_rpcs, 0u);
  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->mapped_reads, 1u);
  EXPECT_GE(stats->mapped_bytes, payload.size());
  EXPECT_EQ(stats->mapped_fallbacks, 0u);
  ASSERT_TRUE((*consumer)->Release(id).ok());
}

// A mapped descriptor holds nothing at the home, so the home store may
// delete the object outright. The next read must fail (KeyError from the
// reissued Get), never return whatever recycled the bytes.
TEST(MappedReadTest, DeleteInvalidatesOutstandingDescriptor) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-then-deleted");
  const std::string payload = RandomPayload(3, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->is_mapped());

  // Nothing at the home blocks the delete — exactly the hazard the
  // generation protocol exists for.
  ASSERT_TRUE((*producer)->Delete(id).ok());

  std::vector<uint8_t> scratch(payload.size());
  Status read = buffer->ReadData(0, scratch.data(), scratch.size());
  EXPECT_FALSE(read.ok()) << "read of a deleted mapped object succeeded";
  EXPECT_EQ(read.code(), StatusCode::kKeyError) << read;

  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->mapped_fallbacks, 1u);
  ASSERT_TRUE((*consumer)->Release(id).ok());
}

// A killed-and-restarted home store re-creates its generation table with
// a higher epoch in the same fabric region. Descriptors stamped by the
// previous incarnation must fail the epoch half of the validation even
// though their generation counters could collide with the fresh table's
// near-zero values.
TEST(MappedReadTest, RestartedHomeStoreFailsEpochCheck) {
  auto cluster = Cluster::CreateTwoNode(MappedNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("mapped-across-restart");
  const std::string payload = RandomPayload(4, 1 << 20);
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  ASSERT_TRUE(buffer->is_mapped());

  // Crash-restart the home node: the pool region (and the stale bytes in
  // it) survives on the fabric, but the store comes back empty and the
  // table is re-formatted with a bumped epoch.
  producer->reset();  // its socket dies with the store
  ASSERT_TRUE((*cluster)->KillNode(0).ok());
  ASSERT_TRUE((*cluster)->RestartNode(0).ok());

  auto crc = buffer->ChecksumData();
  EXPECT_FALSE(crc.ok())
      << "stale descriptor validated against the new incarnation";
  ASSERT_TRUE((*consumer)->Release(id).ok());
}

}  // namespace
}  // namespace mdos::cluster
