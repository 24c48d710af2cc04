// Cross-module integration tests: full-system scenarios combining the
// fabric, stores, RPC layer, eviction, usage tracking and concurrent
// clients — including a miniature version of the paper's benchmark flow.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cluster/cluster.h"
#include "common/crc32.h"
#include "common/rng.h"

namespace mdos {
namespace {

tf::FabricConfig FastFabric() {
  tf::FabricConfig config;
  config.local = tf::LatencyParams{0, 0.0};
  config.remote = tf::LatencyParams{0, 0.0};
  return config;
}

cluster::NodeOptions SmallNode(uint64_t pool = 16 << 20) {
  cluster::NodeOptions options;
  options.pool_size = pool;
  return options;
}

// The paper's benchmark flow in miniature: commit N objects on node 0,
// then read them from a local client and a remote client, verifying
// payload integrity end to end.
TEST(IntegrationTest, MiniBenchmarkFlowPreservesData) {
  auto cluster = cluster::Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto local_consumer = (*cluster)->node(0)->CreateClient("local");
  auto remote_consumer = (*cluster)->node(1)->CreateClient("remote");
  ASSERT_TRUE(producer.ok() && local_consumer.ok() && remote_consumer.ok());

  constexpr int kObjects = 50;
  constexpr size_t kSize = 10000;
  std::vector<ObjectId> ids;
  std::vector<uint32_t> crcs;
  SplitMix64 rng(1234);
  for (int i = 0; i < kObjects; ++i) {
    ObjectId id = ObjectId::FromName("mini" + std::to_string(i));
    std::string payload(kSize, '\0');
    rng.Fill(payload.data(), payload.size());
    ids.push_back(id);
    crcs.push_back(Crc32(payload));
    ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());
  }

  auto local_buffers = (*local_consumer)->Get(ids, 2000);
  auto remote_buffers = (*remote_consumer)->Get(ids, 2000);
  ASSERT_TRUE(local_buffers.ok());
  ASSERT_TRUE(remote_buffers.ok());
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE((*local_buffers)[i].valid());
    ASSERT_TRUE((*remote_buffers)[i].valid());
    EXPECT_FALSE((*local_buffers)[i].is_remote());
    EXPECT_TRUE((*remote_buffers)[i].is_remote());
    EXPECT_EQ((*local_buffers)[i].ChecksumData().value(), crcs[i]);
    EXPECT_EQ((*remote_buffers)[i].ChecksumData().value(), crcs[i]);
    ASSERT_TRUE((*local_consumer)->Release(ids[i]).ok());
    ASSERT_TRUE((*remote_consumer)->Release(ids[i]).ok());
  }
}

TEST(IntegrationTest, ConcurrentProducersUniqueIdsNoCorruption) {
  auto cluster = cluster::Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());

  constexpr int kPerProducer = 30;
  std::atomic<int> created{0};
  auto produce = [&](int node, const std::string& prefix) {
    auto client = (*cluster)->node(node)->CreateClient(prefix);
    ASSERT_TRUE(client.ok());
    SplitMix64 rng(node + 77);
    for (int i = 0; i < kPerProducer; ++i) {
      ObjectId id = ObjectId::FromName(prefix + std::to_string(i));
      std::string payload(1000 + rng.NextBelow(4000), '\0');
      rng.Fill(payload.data(), payload.size());
      if ((*client)->CreateAndSeal(id, payload).ok()) {
        created.fetch_add(1);
      }
    }
  };

  std::thread t0(produce, 0, "p0-");
  std::thread t1(produce, 1, "p1-");
  t0.join();
  t1.join();
  EXPECT_EQ(created.load(), 2 * kPerProducer);

  // Every object is retrievable from either side.
  auto reader = (*cluster)->node(0)->CreateClient("reader");
  ASSERT_TRUE(reader.ok());
  std::vector<ObjectId> all;
  for (int i = 0; i < kPerProducer; ++i) {
    all.push_back(ObjectId::FromName("p0-" + std::to_string(i)));
    all.push_back(ObjectId::FromName("p1-" + std::to_string(i)));
  }
  auto buffers = (*reader)->Get(all, 5000);
  ASSERT_TRUE(buffers.ok());
  for (const auto& buffer : *buffers) {
    EXPECT_TRUE(buffer.valid());
  }
}

TEST(IntegrationTest, CrossCreateSameIdOnlyOneWins) {
  auto cluster = cluster::Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  auto a = (*cluster)->node(0)->CreateClient();
  auto b = (*cluster)->node(1)->CreateClient();
  ASSERT_TRUE(a.ok() && b.ok());

  // Sequential cross-node creates of the same id: the second must lose
  // (the paper's identifier-uniqueness constraint).
  ObjectId id = ObjectId::FromName("contested");
  ASSERT_TRUE((*a)->CreateAndSeal(id, "winner").ok());
  EXPECT_EQ((*b)->Create(id, 6).status().code(),
            StatusCode::kAlreadyExists);
  auto buffer = (*b)->Get(id, 1000);
  ASSERT_TRUE(buffer.ok());
  auto data = buffer->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "winner");
}

TEST(IntegrationTest, WideDependencyFanInAggregation) {
  // The paper motivates wide-dependency operations: several nodes each
  // publish a partition; one node aggregates them all.
  {
    cluster::Cluster cluster(FastFabric());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(cluster.AddNode(SmallNode()).ok());
    }
    ASSERT_TRUE(cluster.StartAll().ok());

    constexpr int kPartitionLen = 1000;
    int64_t expected_sum = 0;
    std::vector<ObjectId> partitions;
    for (size_t node = 0; node < 3; ++node) {
      auto client = cluster.node(node)->CreateClient();
      ASSERT_TRUE(client.ok());
      std::string payload(kPartitionLen * sizeof(int64_t), '\0');
      auto* values = reinterpret_cast<int64_t*>(payload.data());
      for (int i = 0; i < kPartitionLen; ++i) {
        values[i] = static_cast<int64_t>(node * 100000 + i);
        expected_sum += values[i];
      }
      ObjectId id =
          ObjectId::FromName("partition-" + std::to_string(node));
      partitions.push_back(id);
      ASSERT_TRUE((*client)->CreateAndSeal(id, payload).ok());
    }

    auto aggregator = cluster.node(0)->CreateClient("aggregator");
    ASSERT_TRUE(aggregator.ok());
    auto buffers = (*aggregator)->Get(partitions, 3000);
    ASSERT_TRUE(buffers.ok());
    int64_t sum = 0;
    for (const auto& buffer : *buffers) {
      ASSERT_TRUE(buffer.valid());
      auto data = buffer.CopyData();
      ASSERT_TRUE(data.ok());
      const auto* values = reinterpret_cast<const int64_t*>(data->data());
      for (size_t i = 0; i < data->size() / sizeof(int64_t); ++i) {
        sum += values[i];
      }
    }
    EXPECT_EQ(sum, expected_sum);
    cluster.Stop();
  }
}

TEST(IntegrationTest, ManySmallObjectsAcrossNodes) {
  auto cluster = cluster::Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  auto producer = (*cluster)->node(0)->CreateClient();
  auto consumer = (*cluster)->node(1)->CreateClient();
  ASSERT_TRUE(producer.ok() && consumer.ok());

  constexpr int kCount = 300;
  std::vector<ObjectId> ids;
  for (int i = 0; i < kCount; ++i) {
    ObjectId id = ObjectId::FromName("tiny" + std::to_string(i));
    ids.push_back(id);
    ASSERT_TRUE(
        (*producer)->CreateAndSeal(id, std::to_string(i)).ok());
  }
  auto buffers = (*consumer)->Get(ids, 5000);
  ASSERT_TRUE(buffers.ok());
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE((*buffers)[i].valid()) << i;
    auto data = (*buffers)[i].CopyData();
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(std::string(data->begin(), data->end()),
              std::to_string(i));
  }
}

TEST(IntegrationTest, StoreStatsCountRemoteLookups) {
  auto cluster = cluster::Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  auto producer = (*cluster)->node(0)->CreateClient();
  auto consumer = (*cluster)->node(1)->CreateClient();
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("counted");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "x").ok());
  ASSERT_TRUE((*consumer)->Get(id, 1000).ok());
  auto stats = (*consumer)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->remote_lookups, 1u);
  EXPECT_GE(stats->remote_lookup_hits, 1u);
}

}  // namespace
}  // namespace mdos
