// Tests for the cluster layer: multi-node assembly, transparent remote
// gets, N-node (rack-scale) operation, latency-model integration, and
// cached remote locations healing after the home store moved the bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/rng.h"

namespace mdos::cluster {
namespace {

tf::FabricConfig FastFabric() {
  tf::FabricConfig config;
  config.local = tf::LatencyParams{0, 0.0};
  config.remote = tf::LatencyParams{0, 0.0};
  return config;
}

NodeOptions SmallNode() {
  NodeOptions options;
  options.pool_size = 8 << 20;
  return options;
}

TEST(ClusterTest, TwoNodeConvenienceSetup) {
  auto cluster = Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  EXPECT_EQ((*cluster)->size(), 2u);
  EXPECT_EQ((*cluster)->node(0)->registry().peer_count(), 1u);
  EXPECT_EQ((*cluster)->node(1)->registry().peer_count(), 1u);
}

TEST(ClusterTest, TransparentRemoteGet) {
  auto cluster = Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());

  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(consumer.ok());

  ObjectId id = ObjectId::FromName("cluster-obj");
  std::string payload(100000, '\0');
  SplitMix64(21).Fill(payload.data(), payload.size());
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  // The consumer's Get is transparent: same API, remote bytes.
  auto buffer = (*consumer)->Get(id, 2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_TRUE(buffer->is_remote());
  auto crc = buffer->ChecksumData();
  ASSERT_TRUE(crc.ok());
  EXPECT_EQ(*crc, Crc32(payload));
  ASSERT_TRUE((*consumer)->Release(id).ok());

  // The read went over the fabric, not the LAN: remote counters moved.
  EXPECT_GT((*cluster)->fabric().stats().remote.read_bytes, 90000u);
}

TEST(ClusterTest, LocalGetStaysLocal) {
  auto cluster = Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->node(0)->CreateClient();
  ASSERT_TRUE(client.ok());
  ObjectId id = ObjectId::FromName("local-only");
  ASSERT_TRUE((*client)->CreateAndSeal(id, "local").ok());
  auto buffer = (*client)->Get(id);
  ASSERT_TRUE(buffer.ok());
  EXPECT_FALSE(buffer->is_remote());
  EXPECT_EQ((*cluster)->fabric().stats().remote.reads, 0u);
}

TEST(ClusterTest, FourNodeRackScaleLookup) {
  // Paper §V-B: rack-scale requires multi-node support; verify a 4-node
  // mesh where every node can consume every other node's objects.
  Cluster cluster(FastFabric());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.AddNode(SmallNode()).ok());
  }
  ASSERT_TRUE(cluster.StartAll().ok());

  // Each node publishes one object.
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < 4; ++i) {
    auto client = cluster.node(i)->CreateClient();
    ASSERT_TRUE(client.ok());
    ObjectId id = ObjectId::FromName("rack-obj-" + std::to_string(i));
    ids.push_back(id);
    ASSERT_TRUE(
        (*client)->CreateAndSeal(id, "from-node-" + std::to_string(i))
            .ok());
  }
  // Every node retrieves all four.
  for (size_t i = 0; i < 4; ++i) {
    auto client = cluster.node(i)->CreateClient();
    ASSERT_TRUE(client.ok());
    auto buffers = (*client)->Get(ids, 2000);
    ASSERT_TRUE(buffers.ok());
    for (size_t j = 0; j < 4; ++j) {
      ASSERT_TRUE((*buffers)[j].valid()) << "node " << i << " obj " << j;
      EXPECT_EQ((*buffers)[j].is_remote(), i != j);
      auto data = (*buffers)[j].CopyData();
      ASSERT_TRUE(data.ok());
      EXPECT_EQ(std::string(data->begin(), data->end()),
                "from-node-" + std::to_string(j));
      ASSERT_TRUE((*client)->Release(ids[j]).ok());
    }
  }
  cluster.Stop();
}

TEST(ClusterTest, IdUniquenessEnforcedAcrossNodes) {
  auto cluster = Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  auto a = (*cluster)->node(0)->CreateClient();
  auto b = (*cluster)->node(1)->CreateClient();
  ASSERT_TRUE(a.ok() && b.ok());
  ObjectId id = ObjectId::FromName("unique-everywhere");
  ASSERT_TRUE((*a)->CreateAndSeal(id, "first").ok());
  auto dup = (*b)->Create(id, 5);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(ClusterTest, BlockingGetAcrossNodesWakesOnExpiryLookup) {
  auto cluster = Cluster::CreateTwoNode(SmallNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  auto consumer = (*cluster)->node(1)->CreateClient();
  ASSERT_TRUE(consumer.ok());

  ObjectId id = ObjectId::FromName("late-remote");
  std::thread producer_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto producer = (*cluster)->node(0)->CreateClient();
    ASSERT_TRUE(producer.ok());
    ASSERT_TRUE((*producer)->CreateAndSeal(id, "eventually").ok());
  });

  // The object appears on the *other* node while we wait; the expiry-time
  // re-lookup finds it.
  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/1500);
  producer_thread.join();
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  auto data = buffer->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "eventually");
}

TEST(ClusterTest, RemoteReadSlowerUnderCalibratedModel) {
  // With the paper-calibrated fabric (scaled so the model dominates the
  // host's copy cost), reading 4 MiB remotely must take measurably
  // longer than locally (≈11.5 % plus base latency).
  // Scale 0.02 puts the modelled floors (30 ms local / 34 ms remote for
  // 4 MiB) far above this host's copy cost AND makes the local/remote
  // gap (~4 ms) larger than scheduler noise, so the ordering is decided
  // by the model, not the machine.
  tf::FabricConfig config;
  config.local = tf::ScaledLocalParams(0.02);
  config.remote = tf::ScaledRemoteParams(0.02);
  auto cluster = Cluster::CreateTwoNode(SmallNode(), config);
  ASSERT_TRUE(cluster.ok());
  auto producer = (*cluster)->node(0)->CreateClient();
  auto consumer = (*cluster)->node(1)->CreateClient();
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const size_t kSize = 4 << 20;
  std::string payload(kSize, 'p');
  ObjectId id = ObjectId::FromName("timed");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto local_buf = (*producer)->Get(id);
  auto remote_buf = (*consumer)->Get(id, 2000);
  ASSERT_TRUE(local_buf.ok() && remote_buf.ok());

  // Sequential drain read (the paper's consumption pattern), no checksum
  // arithmetic in the timed section.
  std::vector<uint8_t> scratch(1 << 20);
  auto drain = [&](const plasma::ObjectBuffer& buffer) {
    for (uint64_t off = 0; off < buffer.data_size();
         off += scratch.size()) {
      uint64_t n = std::min<uint64_t>(scratch.size(),
                                      buffer.data_size() - off);
      EXPECT_TRUE(buffer.ReadData(off, scratch.data(), n).ok());
    }
  };
  // Warm-up drains fault in every page untimed.
  drain(*local_buf);
  drain(*remote_buf);

  // Median of three samples per side filters scheduler preemption.
  auto median_drain_ns = [&](const plasma::ObjectBuffer& buffer) {
    std::vector<int64_t> samples;
    for (int i = 0; i < 3; ++i) {
      Stopwatch sw;
      drain(buffer);
      samples.push_back(sw.ElapsedNanos());
    }
    std::sort(samples.begin(), samples.end());
    return samples[1];
  };
  int64_t local_ns = median_drain_ns(*local_buf);
  int64_t remote_ns = median_drain_ns(*remote_buf);

  EXPECT_GT(remote_ns, local_ns);
  // Modelled floor at scale 0.02: 4 MiB / 0.13 GiB/s ≈ 30 ms local.
  EXPECT_GE(local_ns, 25 * 1000 * 1000);
}

// Default options serve remote Gets on the mapped data plane: the Get
// comes back as a generation-validated descriptor, counted once by the
// consumer's store, and no pin RPC exists to cross the LAN.
TEST(ClusterTest, DefaultOptionsServeRemoteGetAsValidatedDescriptor) {
  NodeOptions options;
  options.pool_size = 8 << 20;
  auto cluster = Cluster::CreateTwoNode(options, FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  auto consumer = (*cluster)->node(1)->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());

  const ObjectId id = ObjectId::FromName("default-descriptor");
  std::string payload(64 << 10, '\0');
  SplitMix64(5).Fill(payload.data(), payload.size());
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  const uint64_t mapped_before =
      (*cluster)->node(1)->store().stats().mapped_reads;
  auto buffer = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_TRUE(buffer->is_remote());
  EXPECT_TRUE(buffer->is_mapped());
  auto crc = buffer->ChecksumData();
  ASSERT_TRUE(crc.ok()) << crc.status();
  EXPECT_EQ(*crc, Crc32(payload));
  ASSERT_TRUE((*consumer)->Release(id).ok());

  EXPECT_EQ((*cluster)->node(1)->store().stats().mapped_reads,
            mapped_before + 1);
  EXPECT_EQ((*cluster)->node(1)->registry().stats().pin_rpcs, 0u);
}

// A peer's lookup cache holds the descriptor of the first incarnation
// when the home deletes the id and re-creates it with other bytes. The
// home tells no peer; the seal of the new incarnation bumped the id's
// slot in the home's generation table, so the cached descriptor fails
// validation and the peer's next Get reads the new bytes. Run on both
// remote read paths: the paper's lookup-then-load and mapped descriptors.
TEST(ClusterTest, CachedLocationFollowsDeleteAndRecreate) {
  for (bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mapped reads" : "lookup-then-load reads");
    NodeOptions options = SmallNode();
    options.mapped_remote_reads = mapped;
    auto cluster = Cluster::CreateTwoNode(options, FastFabric());
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    auto producer = (*cluster)->node(0)->CreateClient("producer");
    auto consumer = (*cluster)->node(1)->CreateClient("consumer");
    ASSERT_TRUE(producer.ok() && consumer.ok());
    auto& registry = (*cluster)->node(1)->registry();

    const ObjectId id = ObjectId::FromName("recreated");
    std::string first(64 << 10, '\0');
    SplitMix64(1).Fill(first.data(), first.size());
    ASSERT_TRUE((*producer)->CreateAndSeal(id, first).ok());
    {
      auto buffer = (*consumer)->Get(id, 1000);
      ASSERT_TRUE(buffer.ok()) << buffer.status();
      auto crc = buffer->ChecksumData();
      ASSERT_TRUE(crc.ok()) << crc.status();
      ASSERT_EQ(*crc, Crc32(first));
    }
    ASSERT_TRUE((*consumer)->Release(id).ok());
    ASSERT_NE(registry.lookup_cache(), nullptr);
    ASSERT_EQ(registry.lookup_cache()->size(), 1u);

    ASSERT_TRUE((*producer)->Delete(id).ok());
    std::string second(96 << 10, '\0');
    SplitMix64(2).Fill(second.data(), second.size());
    ASSERT_TRUE((*producer)->CreateAndSeal(id, second).ok());

    auto buffer = (*consumer)->Get(id, 1000);
    ASSERT_TRUE(buffer.ok()) << buffer.status();
    EXPECT_EQ(buffer->data_size(), second.size());
    auto crc = buffer->ChecksumData();
    ASSERT_TRUE(crc.ok()) << crc.status();
    EXPECT_EQ(*crc, Crc32(second));
    ASSERT_TRUE((*consumer)->Release(id).ok());

    // The generation check caught the old descriptor before it reached
    // the client: no mapped-read fallback.
    EXPECT_GE(registry.stats().generation_retries, 1u);
    EXPECT_EQ((*cluster)->node(1)->store().stats().mapped_fallbacks, 0u);
  }
}

// The home spills an object a peer has cached. The spill bumped the
// id's generation, so the peer drops its cached descriptor, the fresh
// lookup restores the object from disk, and the Get returns the
// original bytes, CRC-exact. Run on both remote read paths.
TEST(ClusterTest, CachedLocationFollowsSpillAndRestore) {
  for (bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mapped reads" : "lookup-then-load reads");
    const std::string spill_dir = "/tmp/mdos-cluster-cache-spill-" +
                                  std::to_string(::getpid());
    NodeOptions options = SmallNode();
    options.pool_size = 2 << 20;  // two 1 MiB objects per home pool
    options.mapped_remote_reads = mapped;
    options.spill_dir = spill_dir;
    {
      auto cluster = Cluster::CreateTwoNode(options, FastFabric());
      ASSERT_TRUE(cluster.ok()) << cluster.status();
      auto producer = (*cluster)->node(0)->CreateClient("producer");
      auto consumer = (*cluster)->node(1)->CreateClient("consumer");
      ASSERT_TRUE(producer.ok() && consumer.ok());
      auto& registry = (*cluster)->node(1)->registry();

      const ObjectId victim = ObjectId::FromName("cached-then-spilled");
      std::string payload(1 << 20, '\0');
      SplitMix64(3).Fill(payload.data(), payload.size());
      ASSERT_TRUE((*producer)->CreateAndSeal(victim, payload).ok());
      ASSERT_TRUE((*consumer)->Get(victim, 1000).ok());
      ASSERT_TRUE((*consumer)->Release(victim).ok());
      ASSERT_EQ(registry.lookup_cache()->size(), 1u);

      // Two more 1 MiB objects on the home demote the (released) victim
      // to the spill file and recycle its pool bytes.
      for (int i = 0; i < 2; ++i) {
        std::string filler(1 << 20, '\0');
        SplitMix64(10 + i).Fill(filler.data(), filler.size());
        ASSERT_TRUE((*producer)
                        ->CreateAndSeal(ObjectId::FromName(
                                            "spill-filler-" +
                                            std::to_string(i)),
                                        filler)
                        .ok());
      }
      ASSERT_GT((*cluster)->node(0)->store().stats().spills, 0u);

      auto buffer = (*consumer)->Get(victim, 1000);
      ASSERT_TRUE(buffer.ok()) << buffer.status();
      auto crc = buffer->ChecksumData();
      ASSERT_TRUE(crc.ok()) << crc.status();
      EXPECT_EQ(*crc, Crc32(payload));
      ASSERT_TRUE((*consumer)->Release(victim).ok());

      EXPECT_GE((*cluster)->node(0)->store().stats().spill_restores, 1u);
      EXPECT_GE(registry.stats().generation_retries, 1u);
      EXPECT_EQ((*cluster)->node(1)->store().stats().mapped_fallbacks, 0u);
    }
    std::filesystem::remove_all(spill_dir);
  }
}

}  // namespace
}  // namespace mdos::cluster
