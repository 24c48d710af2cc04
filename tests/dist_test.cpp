// Tests for the store↔store distributed layer: the RPC service surface,
// the peer registry (DistHooks implementation), id uniqueness probes,
// and generation-validated lookup caching. Uses two
// fabric-backed stores wired manually (the cluster layer is tested in
// cluster_test.cpp).
#include <gtest/gtest.h>

#include "dist/messages.h"
#include "dist/remote_registry.h"
#include "dist/service.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "rpc/server.h"
#include "test_cluster_util.h"
#include "tf/fabric.h"

namespace mdos::dist {
namespace {

using testutil::FastFabric;

// Two stores on one fabric, RPC servers up, registries NOT yet meshed so
// individual tests control the wiring.
class DistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_unique<tf::Fabric>(FastFabric());
    for (int i = 0; i < 2; ++i) {
      auto layout = testutil::AddNodeWithGenerationTable(
          *fabric_, "n" + std::to_string(i), 8 << 20);
      ASSERT_TRUE(layout.ok()) << layout.status();
      layouts_[i] = *layout;
      plasma::StoreOptions options;
      options.name = "dist-store-" + std::to_string(i);
      auto store = plasma::Store::CreateOnFabric(
          options, fabric_.get(), layouts_[i].node, layouts_[i].pool_region);
      ASSERT_TRUE(store.ok()) << store.status();
      stores_[i] = std::move(store).value();
      stores_[i]->SetGenerationTable(&layouts_[i].gen_table,
                                     layouts_[i].gen_region);

      RegistryOptions registry_options;
      registry_options.enable_lookup_cache = true;
      registry_options.fabric = fabric_.get();
      registries_[i] = std::make_unique<RemoteStoreRegistry>(
          layouts_[i].node, registry_options);
      stores_[i]->SetDistHooks(registries_[i].get());

      services_[i] = std::make_unique<StoreService>(stores_[i].get());
      services_[i]->RegisterWith(servers_[i]);
      ASSERT_TRUE(stores_[i]->Start().ok());
      ASSERT_TRUE(servers_[i].Start(0).ok());
    }
  }

  void TearDown() override {
    for (int i = 0; i < 2; ++i) {
      if (stores_[i]) stores_[i]->Stop();
      servers_[i].Stop();
    }
  }

  void Mesh() {
    ASSERT_TRUE(
        registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
    ASSERT_TRUE(
        registries_[1]->AddPeer("127.0.0.1", servers_[0].port()).ok());
  }

  Result<std::unique_ptr<plasma::PlasmaClient>> Client(int i) {
    plasma::ClientOptions options;
    options.fabric = fabric_.get();
    return plasma::PlasmaClient::Connect(stores_[i]->socket_path(),
                                         options);
  }

  std::unique_ptr<tf::Fabric> fabric_;
  testutil::FabricNodeLayout layouts_[2];
  std::unique_ptr<plasma::Store> stores_[2];
  std::unique_ptr<RemoteStoreRegistry> registries_[2];
  std::unique_ptr<StoreService> services_[2];
  rpc::RpcServer servers_[2];
};

TEST_F(DistTest, HelloHandshakeViaAddPeer) {
  Mesh();
  EXPECT_EQ(registries_[0]->peer_count(), 1u);
  auto nodes = registries_[0]->peer_nodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], stores_[1]->node_id());
}

TEST_F(DistTest, SelfPeeringRejected) {
  auto status = registries_[0]->AddPeer("127.0.0.1", servers_[0].port());
  EXPECT_EQ(status.code(), StatusCode::kInvalid);
}

TEST_F(DistTest, LookupFindsSealedRemoteObject) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("remote-obj");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "remote-data").ok());

  auto locations = registries_[0]->LookupRemote({id});
  ASSERT_EQ(locations.size(), 1u);
  ASSERT_TRUE(locations[0].has_value());
  EXPECT_EQ(locations[0]->home_node, stores_[1]->node_id());
  EXPECT_EQ(locations[0]->data_size, 11u);
}

TEST_F(DistTest, LookupMissesUnsealedObject) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("unsealed-obj");
  ASSERT_TRUE((*producer)->Create(id, 100).ok());

  auto locations = registries_[0]->LookupRemote({id});
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_FALSE(locations[0].has_value());
}

TEST_F(DistTest, LookupBatchesMixedResults) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId found1 = ObjectId::FromName("f1");
  ObjectId found2 = ObjectId::FromName("f2");
  ObjectId missing = ObjectId::FromName("m");
  ASSERT_TRUE((*producer)->CreateAndSeal(found1, "1").ok());
  ASSERT_TRUE((*producer)->CreateAndSeal(found2, "22").ok());

  auto locations = registries_[0]->LookupRemote({found1, missing, found2});
  ASSERT_EQ(locations.size(), 3u);
  EXPECT_TRUE(locations[0].has_value());
  EXPECT_FALSE(locations[1].has_value());
  EXPECT_TRUE(locations[2].has_value());
  EXPECT_EQ(locations[2]->data_size, 2u);
}

TEST_F(DistTest, IdKnownRemotelySeesUnsealedToo) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("probe-me");
  ASSERT_TRUE((*producer)->Create(id, 10).ok());
  // Uniqueness probe must catch in-flight (unsealed) creations.
  EXPECT_TRUE(registries_[0]->IdKnownRemotely(id));
  EXPECT_FALSE(registries_[0]->IdKnownRemotely(ObjectId::FromName("no")));
}

TEST_F(DistTest, CreateRejectsIdTakenOnPeer) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("taken");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "orig").ok());
  auto result = (*consumer)->Create(id, 10);
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DistTest, RemoteGetReadsThroughFabric) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("fabric-read");
  std::string payload(50000, 'F');
  ASSERT_TRUE((*producer)->CreateAndSeal(id, payload).ok());

  auto buffer = (*consumer)->Get(id, /*timeout_ms=*/1000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_TRUE(buffer->is_remote());
  auto data = buffer->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), payload);
  EXPECT_TRUE((*consumer)->Release(id).ok());
}

TEST_F(DistTest, LookupCacheHitsOnRepeatedGets) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("cached-lookup");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "cache-me").ok());

  for (int i = 0; i < 5; ++i) {
    auto buffer = (*consumer)->Get(id, 1000);
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE((*consumer)->Release(id).ok());
  }
  auto stats = registries_[0]->lookup_cache()->stats();
  EXPECT_GE(stats.hits, 4u);  // first get misses, rest hit
}

TEST_F(DistTest, DeleteOnHomeFailsPeerCachedLocation) {
  Mesh();
  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("will-delete");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "temp").ok());

  auto buffer = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(buffer.ok());
  ASSERT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ(registries_[0]->lookup_cache()->size(), 1u);

  // The home sends no message on delete; the bump in its generation
  // table fails node 0's cached copy on next use: the Get reports
  // not-found and the entry is dropped.
  ASSERT_TRUE((*producer)->Delete(id).ok());
  auto gone = (*consumer)->Get(id, /*timeout_ms=*/0);
  EXPECT_EQ(gone.status().code(), StatusCode::kKeyError) << gone.status();
  EXPECT_EQ(registries_[0]->lookup_cache()->size(), 0u);
  EXPECT_GE(registries_[0]->stats().generation_retries, 1u);
}

// A cached hit is served only when its home's epoch and slot generation
// were both read and both match. A stamped entry whose home is not a
// live peer, or whose home's generation table is not attached, cannot be
// checked and must be dropped instead of served.
TEST_F(DistTest, UncheckableCachedLocationIsNotServed) {
  Mesh();
  auto producer = Client(1);
  ASSERT_TRUE(producer.ok());
  ObjectId id = ObjectId::FromName("uncheckable");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "bytes").ok());
  auto looked_up = registries_[0]->LookupRemote({id});
  ASSERT_TRUE(looked_up[0].has_value());
  const plasma::RemoteObjectLocation stale = *looked_up[0];
  ASSERT_NE(stale.gen_region, UINT32_MAX);
  ASSERT_TRUE((*producer)->Delete(id).ok());

  // Home missing from the live peers.
  plasma::RemoteObjectLocation orphan = stale;
  orphan.home_node = 99;
  registries_[0]->lookup_cache()->Put(id, orphan);
  const uint64_t retries = registries_[0]->stats().generation_retries;
  EXPECT_FALSE(registries_[0]->LookupRemote({id})[0].has_value());
  EXPECT_EQ(registries_[0]->lookup_cache()->size(), 0u);
  EXPECT_EQ(registries_[0]->stats().generation_retries, retries + 1);

  // Home live, but this registry has no fabric to read its table with.
  RemoteStoreRegistry bare(stores_[0]->node_id(), RegistryOptions{});
  ASSERT_TRUE(bare.AddPeer("127.0.0.1", servers_[1].port()).ok());
  ASSERT_NE(bare.lookup_cache(), nullptr);
  bare.lookup_cache()->Put(id, stale);
  EXPECT_FALSE(bare.LookupRemote({id})[0].has_value());
  EXPECT_EQ(bare.lookup_cache()->size(), 0u);
  EXPECT_EQ(bare.stats().generation_retries, 1u);
}

TEST_F(DistTest, UnreachablePeerDegradesToNotFound) {
  Mesh();
  servers_[1].Stop();  // peer store 1's RPC endpoint dies
  auto locations =
      registries_[0]->LookupRemote({ObjectId::FromName("whatever")});
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_FALSE(locations[0].has_value());
  EXPECT_GT(registries_[0]->stats().failed_rpcs, 0u);
}

}  // namespace
}  // namespace mdos::dist
