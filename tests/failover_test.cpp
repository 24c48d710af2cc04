// Peer failure handling tests: reconnecting RPC channels, the per-peer
// health state machine (healthy → suspect → dead), dead-peer cleanup
// (cache invalidation, usage-tracker drops, remote-pin release), stale
// cached locations caught by the generation check and the pin, and the
// cluster-level kill/restart round trip.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "dist/messages.h"
#include "dist/remote_registry.h"
#include "dist/service.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "rpc/channel.h"
#include "rpc/server.h"
#include "test_cluster_util.h"
#include "tf/fabric.h"

namespace mdos {
namespace {

using testutil::FastFabric;
using testutil::RandomPayload;
using testutil::StartEphemeral;
using testutil::WaitUntil;

// ---- RpcChannel reconnect --------------------------------------------------

class ReconnectRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterHandlers(server_);
    auto port = StartEphemeral(server_);
    ASSERT_TRUE(port.ok()) << port.status();
    port_ = *port;
  }
  void TearDown() override { server_.Stop(); }

  static void RegisterHandlers(rpc::RpcServer& server) {
    server.RegisterHandler(
        "echo", [](const std::vector<uint8_t>& p)
                    -> Result<std::vector<uint8_t>> { return p; });
    server.RegisterHandler(
        "slow", [](const std::vector<uint8_t>& p)
                    -> Result<std::vector<uint8_t>> {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          return p;
        });
  }

  rpc::RpcServer server_;
  uint16_t port_ = 0;
};

TEST_F(ReconnectRpcTest, ChannelRedialsAfterServerRestart) {
  rpc::ChannelOptions options;
  options.redial_backoff_min_ms = 1;
  options.redial_backoff_max_ms = 20;
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_, options);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->Call("echo", {1}).ok());

  server_.Stop();
  // The in-flight connection is dead: the next call fails and marks the
  // channel disconnected.
  EXPECT_FALSE((*channel)->Call("echo", {2}).ok());
  EXPECT_FALSE((*channel)->connected());

  // Same port, new server incarnation — the channel must redial on its
  // own instead of returning NotConnected forever.
  rpc::RpcServer revived;
  RegisterHandlers(revived);
  ASSERT_TRUE(revived.Start(port_).ok());
  bool healed = WaitUntil([&] {
    return (*channel)->Call("echo", {3}).ok();
  });
  EXPECT_TRUE(healed);
  EXPECT_TRUE((*channel)->connected());
  EXPECT_GE((*channel)->stats().reconnects, 1u);
  revived.Stop();
}

TEST_F(ReconnectRpcTest, FailsFastInsideBackoffWindow) {
  rpc::ChannelOptions options;
  options.redial_backoff_min_ms = 500;
  options.redial_backoff_max_ms = 2000;
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_, options);
  ASSERT_TRUE(channel.ok());
  server_.Stop();
  EXPECT_FALSE((*channel)->Call("echo", {}).ok());  // detects the loss
  EXPECT_FALSE((*channel)->Call("echo", {}).ok());  // failed redial
  // Inside the backoff window calls must fail in microseconds, not wait
  // on a connect or timeout.
  Stopwatch sw;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE((*channel)->Call("echo", {}).ok());
  }
  EXPECT_LT(sw.ElapsedMillis(), 100.0);
  EXPECT_GE((*channel)->stats().fast_failures, 90u);
}

TEST_F(ReconnectRpcTest, ExplicitDisconnectNeverRedials) {
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_);
  ASSERT_TRUE(channel.ok());
  (*channel)->Disconnect();
  auto reply = (*channel)->Call("echo", {});
  EXPECT_EQ(reply.status().code(), StatusCode::kNotConnected);
  EXPECT_EQ((*channel)->stats().reconnects, 0u);
}

TEST_F(ReconnectRpcTest, TimedCallDoesNotPoisonLaterUntimedCalls) {
  // Regression: a timed call used to leave SO_RCVTIMEO armed, making
  // every later *untimed* call on the channel time out spuriously.
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", port_);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->Call("echo", {1}, /*timeout_ms=*/100).ok());
  // 300 ms handler, no deadline: must succeed — with the stale 100 ms
  // receive timeout still armed it would fail with kTimeout.
  auto slow = (*channel)->Call("slow", {2});
  EXPECT_TRUE(slow.ok()) << slow.status();
}

// ---- registry health machine ----------------------------------------------

// Two fabric-backed stores wired manually so tests control meshing,
// registry options, and server lifecycle (restarts on a fixed port).
class FailoverDistTest : public ::testing::Test {
 protected:
  void Init(dist::RegistryOptions registry_options) {
    fabric_ = std::make_unique<tf::Fabric>(FastFabric());
    registry_options.fabric = fabric_.get();
    for (int i = 0; i < 2; ++i) {
      auto layout = testutil::AddNodeWithGenerationTable(
          *fabric_, "f" + std::to_string(i), 8 << 20);
      ASSERT_TRUE(layout.ok()) << layout.status();
      layouts_[i] = *layout;
      plasma::StoreOptions options;
      options.name = "failover-store-" + std::to_string(i);
      auto store = plasma::Store::CreateOnFabric(
          options, fabric_.get(), layouts_[i].node, layouts_[i].pool_region);
      ASSERT_TRUE(store.ok()) << store.status();
      stores_[i] = std::move(store).value();
      stores_[i]->SetGenerationTable(&layouts_[i].gen_table,
                                     layouts_[i].gen_region);

      registries_[i] = std::make_unique<dist::RemoteStoreRegistry>(
          layouts_[i].node, registry_options);
      stores_[i]->SetDistHooks(registries_[i].get());

      services_[i] = std::make_unique<dist::StoreService>(stores_[i].get());
      services_[i]->RegisterWith(servers_[i]);
      ASSERT_TRUE(stores_[i]->Start().ok());
      auto port = StartEphemeral(servers_[i]);
      ASSERT_TRUE(port.ok()) << port.status();
      ports_[i] = *port;
    }
  }

  void TearDown() override {
    for (int i = 0; i < 2; ++i) {
      if (registries_[i]) registries_[i]->StopHealthMonitor();
      if (stores_[i]) stores_[i]->Stop();
      servers_[i].Stop();
    }
  }

  Result<std::unique_ptr<plasma::PlasmaClient>> Client(int i) {
    plasma::ClientOptions options;
    options.fabric = fabric_.get();
    return plasma::PlasmaClient::Connect(stores_[i]->socket_path(),
                                         options);
  }

  static dist::RegistryOptions FastFailureOptions() {
    dist::RegistryOptions options;
    options.enable_lookup_cache = true;
    options.rpc_timeout_ms = 1000;
    options.heartbeat_interval_ms = 0;  // tests drive health manually
    options.suspect_after_failures = 1;
    options.dead_after_failures = 2;
    options.redial_backoff_min_ms = 1;
    options.redial_backoff_max_ms = 20;
    return options;
  }

  std::unique_ptr<tf::Fabric> fabric_;
  testutil::FabricNodeLayout layouts_[2];
  std::unique_ptr<plasma::Store> stores_[2];
  std::unique_ptr<dist::RemoteStoreRegistry> registries_[2];
  std::unique_ptr<dist::StoreService> services_[2];
  rpc::RpcServer servers_[2];
  uint16_t ports_[2] = {0, 0};
};

TEST_F(FailoverDistTest, FailureStreakMarksPeerDeadAndSkipsIt) {
  Init(FastFailureOptions());
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
  servers_[1].Stop();

  ObjectId id = ObjectId::FromName("gone");
  // Two failed calls: healthy -> suspect -> dead.
  (void)registries_[0]->LookupRemote({id});
  (void)registries_[0]->LookupRemote({id});
  EXPECT_EQ(registries_[0]->peer_state(stores_[1]->node_id()),
            dist::PeerState::kDead);

  // Dead peers are skipped: no further lookup RPCs are issued and the
  // call returns immediately.
  uint64_t rpcs_before = registries_[0]->stats().lookup_rpcs;
  Stopwatch sw;
  auto locations = registries_[0]->LookupRemote({id});
  EXPECT_LT(sw.ElapsedMillis(), 50.0);
  EXPECT_FALSE(locations[0].has_value());
  EXPECT_EQ(registries_[0]->stats().lookup_rpcs, rpcs_before);
}

TEST_F(FailoverDistTest, StaleCacheEntryInvalidatedByGenerationCheck) {
  Init(FastFailureOptions());
  // One-way mesh: node 0 sees node 1, but node 1 has no peers — the
  // home tells nobody about the delete below.
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());

  auto producer = Client(1);
  auto consumer = Client(0);
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("stale-entry");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "original").ok());

  auto first = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*consumer)->Release(id).ok());
  EXPECT_EQ(registries_[0]->lookup_cache()->size(), 1u);
  auto stale = registries_[0]->lookup_cache()->Get(id);
  ASSERT_TRUE(stale.has_value());

  // Node 0's cache still points at the dead offset after the delete.
  ASSERT_TRUE((*producer)->Delete(id).ok());
  EXPECT_EQ(registries_[0]->lookup_cache()->size(), 1u);

  // The next Get must NOT serve the dangling location: the generation
  // check fails the entry and the re-run lookup finds nothing.
  auto gone = (*consumer)->Get(id, /*timeout_ms=*/0);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(registries_[0]->lookup_cache()->size(), 0u);
  EXPECT_GE(registries_[0]->stats().generation_retries, 1u);

  // The check holds however the stale entry got there: planted back in
  // the cache, it is caught again on the next lookup, dropped, and
  // counted — never served.
  registries_[0]->lookup_cache()->Put(id, *stale);
  const uint64_t retries = registries_[0]->stats().generation_retries;
  EXPECT_FALSE(registries_[0]->LookupRemote({id})[0].has_value());
  EXPECT_EQ(registries_[0]->lookup_cache()->size(), 0u);
  EXPECT_EQ(registries_[0]->stats().generation_retries, retries + 1);

  // After the producer re-creates the object, the fresh lookup path
  // serves the new bytes.
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "recreated-data").ok());
  auto again = (*consumer)->Get(id, 1000);
  ASSERT_TRUE(again.ok()) << again.status();
  auto data = again->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "recreated-data");
}

TEST_F(FailoverDistTest, HeartbeatDetectsDeathAndRecovery) {
  auto options = FastFailureOptions();
  options.heartbeat_interval_ms = 20;
  options.ping_timeout_ms = 200;
  options.dead_after_failures = 3;
  Init(options);
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());
  registries_[0]->StartHealthMonitor();
  uint32_t peer = stores_[1]->node_id();

  ASSERT_TRUE(WaitUntil(
      [&] { return registries_[0]->stats().heartbeats >= 2; }));
  EXPECT_EQ(registries_[0]->peer_state(peer), dist::PeerState::kHealthy);

  // Kill the endpoint: the heartbeat alone (no data traffic) must walk
  // the peer to dead.
  servers_[1].Stop();
  EXPECT_TRUE(WaitUntil([&] {
    return registries_[0]->peer_state(peer) == dist::PeerState::kDead;
  }));
  EXPECT_GE(registries_[0]->stats().peers_died, 1u);

  // Endpoint returns on the same port: the heartbeat keeps pinging dead
  // peers, the channel redials, and the peer is re-admitted.
  ASSERT_TRUE(servers_[1].Start(ports_[1]).ok());
  EXPECT_TRUE(WaitUntil([&] {
    return registries_[0]->peer_state(peer) == dist::PeerState::kHealthy;
  }));
  EXPECT_GE(registries_[0]->stats().peers_recovered, 1u);
  registries_[0]->StopHealthMonitor();
}

TEST_F(FailoverDistTest, PeerHealthFlowsIntoStoreAndClientStats) {
  Init(FastFailureOptions());
  ASSERT_TRUE(
      registries_[0]->AddPeer("127.0.0.1", servers_[1].port()).ok());

  auto client = Client(0);
  ASSERT_TRUE(client.ok());
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->peers_total, 1u);
  EXPECT_EQ(stats->peers_healthy, 1u);
  EXPECT_EQ(stats->peers_dead, 0u);

  auto peers = (*client)->PeerStats();
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(peers->size(), 1u);
  EXPECT_EQ((*peers)[0].node_id, stores_[1]->node_id());
  EXPECT_EQ((*peers)[0].state, 0u);  // healthy

  // Walk the peer to dead; both stats surfaces must follow.
  servers_[1].Stop();
  (void)registries_[0]->IdKnownRemotely(ObjectId::FromName("a"));
  (void)registries_[0]->IdKnownRemotely(ObjectId::FromName("b"));
  stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->peers_dead, 1u);
  EXPECT_GE(stats->peer_failed_rpcs, 2u);
  peers = (*client)->PeerStats();
  ASSERT_TRUE(peers.ok());
  EXPECT_EQ((*peers)[0].state, 2u);  // dead
}

// ---- cluster kill / restart -------------------------------------------------

cluster::NodeOptions FailoverNode() {
  return testutil::FailoverNodeOptions();
}

TEST(ClusterFailoverTest, KillFailsFastAndRestartRemeshes) {
  auto cluster =
      cluster::Cluster::CreateTwoNode(FailoverNode(), FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  cluster::Node* node0 = (*cluster)->node(0);
  cluster::Node* node1 = (*cluster)->node(1);
  uint32_t id1 = node1->id();

  auto producer = node0->CreateClient("producer");
  ASSERT_TRUE(producer.ok());
  ObjectId survivor_obj = ObjectId::FromName("survivor-obj");
  ObjectId held_obj = ObjectId::FromName("held-obj");
  ASSERT_TRUE((*producer)->CreateAndSeal(survivor_obj, "stays").ok());
  ASSERT_TRUE((*producer)->CreateAndSeal(held_obj, "hold-me").ok());

  // A client on node 1 reads node 0's object and holds the reference
  // while its node crashes: no release, no goodbye.
  {
    auto consumer = node1->CreateClient("doomed-consumer");
    ASSERT_TRUE(consumer.ok());
    auto buffer = (*consumer)->Get(held_obj, 2000);
    ASSERT_TRUE(buffer.ok());
    EXPECT_TRUE(buffer->is_mapped());
    ASSERT_TRUE((*cluster)->KillNode(1).ok());
  }

  // Node 0's heartbeat walks node 1 to dead.
  ASSERT_TRUE(WaitUntil([&] {
    return node0->registry().peer_state(id1) == dist::PeerState::kDead;
  }));
  // The corpse's reference held nothing at the home: the object stays
  // deletable (= evictable).
  EXPECT_TRUE((*producer)->Delete(held_obj).ok());

  // Gets for unknown ids fail fast: the dead peer is skipped, no
  // per-call rpc_timeout_ms (2 s) stall.
  Stopwatch sw;
  auto missing = (*producer)->Get(ObjectId::FromName("nowhere"),
                                  /*timeout_ms=*/0);
  EXPECT_FALSE(missing.ok());
  EXPECT_LT(sw.ElapsedMillis(), 1000.0);

  // Restart: same fabric identity, same RPC port. The cluster re-meshes
  // the restarted side; node 0 re-admits the peer through heartbeat +
  // channel redial, with no manual intervention on its side.
  ASSERT_TRUE((*cluster)->RestartNode(1).ok());
  ASSERT_TRUE(WaitUntil([&] {
    return node0->registry().peer_state(id1) ==
           dist::PeerState::kHealthy;
  }));

  // The revived node serves lookups again in both directions.
  auto consumer = node1->CreateClient("revived-consumer");
  ASSERT_TRUE(consumer.ok());
  auto buffer = (*consumer)->Get(survivor_obj, 2000);
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  auto data = buffer->CopyData();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), "stays");
  ASSERT_TRUE((*consumer)->Release(survivor_obj).ok());

  ObjectId fresh = ObjectId::FromName("post-restart-obj");
  ASSERT_TRUE((*consumer)->CreateAndSeal(fresh, "new-life").ok());
  auto from_survivor = (*producer)->Get(fresh, 2000);
  ASSERT_TRUE(from_survivor.ok()) << from_survivor.status();

  // The survivor's channel healed by redialing, not by re-configuration.
  auto health = node0->registry().PeerHealth();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_GE(health[0].reconnects, 1u);

  // Mid-workload death counters made it to the stats surface.
  auto stats = node0->store().stats();
  EXPECT_GE(stats.peer_reconnects, 1u);
  EXPECT_GE(stats.peer_heartbeats, 1u);
}

TEST(ClusterFailoverTest, KillNodeUnderActiveTrafficKeepsSurvivorsSane) {
  auto cluster =
      cluster::Cluster::CreateTwoNode(FailoverNode(), FastFabric());
  ASSERT_TRUE(cluster.ok());
  cluster::Node* node0 = (*cluster)->node(0);

  auto producer = node0->CreateClient("producer");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*producer)
                    ->CreateAndSeal(
                        ObjectId::FromName("t" + std::to_string(i)),
                        "traffic-" + std::to_string(i))
                    .ok());
  }

  // Reader thread hammers node 0 while node 1 dies mid-workload.
  std::atomic<bool> stop{false};
  std::atomic<int> successes{0};
  std::thread reader([&] {
    auto client = node0->CreateClient("reader");
    if (!client.ok()) return;
    int i = 0;
    while (!stop.load()) {
      ObjectId id = ObjectId::FromName("t" + std::to_string(i % 8));
      auto buffer = (*client)->Get(id, 200);
      if (buffer.ok()) {
        ++successes;
        (void)(*client)->Release(id);
      }
      ++i;
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE((*cluster)->KillNode(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  reader.join();

  // Local traffic on the survivor never depended on the corpse.
  EXPECT_GT(successes.load(), 0);
  // And the survivor's store still answers.
  auto check = (*producer)->Get(ObjectId::FromName("t0"), 500);
  EXPECT_TRUE(check.ok());
}

TEST(ClusterFailoverTest, KillWithReplicationLosesNoSealedObjects) {
  // The PR 5 contract was "degrade gracefully": survivors stay sane but
  // the dead node's objects are gone. With replication_factor=2 the
  // contract hardens to "heal": a mid-workload kill loses ZERO sealed
  // objects and the copy count returns to k.
  cluster::NodeOptions options = testutil::FailoverNodeOptions();
  options.replication_factor = 2;
  auto cluster = testutil::MakeCluster(3, options, FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  constexpr int kObjects = 12;
  constexpr size_t kSize = 32 << 10;
  auto producer = (*cluster)->node(0)->CreateClient("producer");
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE((*producer)
                    ->CreateAndSeal(
                        ObjectId::FromName("r" + std::to_string(i)),
                        RandomPayload(i, kSize))
                    .ok());
  }
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->store().stats().under_replicated == 0;
  }));

  // Reader keeps hammering the full set from node 2 while a replica
  // holder dies mid-workload.
  std::atomic<bool> stop{false};
  std::atomic<int> successes{0};
  std::thread reader([&] {
    auto client = (*cluster)->node(2)->CreateClient("reader");
    if (!client.ok()) return;
    int i = 0;
    while (!stop.load()) {
      ObjectId id = ObjectId::FromName("r" + std::to_string(i % kObjects));
      auto buffer = (*client)->Get(id, 200);
      if (buffer.ok()) {
        ++successes;
        (void)(*client)->Release(id);
      }
      ++i;
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint32_t victim_id = (*cluster)->node(1)->id();
  ASSERT_TRUE((*cluster)->KillNode(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  reader.join();
  EXPECT_GT(successes.load(), 0);
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->registry().peer_state(victim_id) ==
           dist::PeerState::kDead;
  }));

  // Zero lost sealed objects: whichever nodes held copies, every one of
  // the 12 is still readable (with intact bytes) after the kill...
  auto checker = (*cluster)->node(0)->CreateClient("checker");
  ASSERT_TRUE(checker.ok());
  for (int i = 0; i < kObjects; ++i) {
    ObjectId id = ObjectId::FromName("r" + std::to_string(i));
    ASSERT_TRUE(WaitUntil([&] {
      auto buffer = (*checker)->Get(id, 500);
      if (!buffer.ok()) return false;
      auto crc = buffer->ChecksumData();
      (void)(*checker)->Release(id);
      return crc.ok() && *crc == Crc32(RandomPayload(i, kSize));
    }, /*timeout_ms=*/10000))
        << "sealed object " << i << " lost after kill";
  }

  // ...and the re-heal driver restores full redundancy.
  ASSERT_TRUE(WaitUntil([&] {
    return (*cluster)->node(0)->store().stats().reheal_copies >= 1;
  }, /*timeout_ms=*/10000));
  ASSERT_TRUE(WaitUntil([&] {
    return testutil::ReplicationConverged(**cluster);
  }, /*timeout_ms=*/10000));
}

// A false death: a partition long enough for the heartbeat to declare the
// peer dead, then a healed link. The recovered peer must be read through
// its generation table (and its shared index, when exported) again, so
// repeat Gets of one id are cache hits that cost no lookup RPC and no
// generation retry.
void RepeatGetsAfterFalseDeath(bool shared_index) {
  cluster::NodeOptions options = FailoverNode();
  options.enable_shared_index = shared_index;
  auto cluster = cluster::Cluster::CreateTwoNode(options, FastFabric());
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  cluster::Node* node0 = (*cluster)->node(0);
  const uint32_t id1 = (*cluster)->node(1)->id();
  dist::RemoteStoreRegistry& registry = node0->registry();

  auto producer = (*cluster)->node(1)->CreateClient("producer");
  auto consumer = node0->CreateClient("consumer");
  ASSERT_TRUE(producer.ok() && consumer.ok());
  ObjectId id = ObjectId::FromName("survives-false-death");
  ASSERT_TRUE((*producer)->CreateAndSeal(id, "still-here").ok());

  ASSERT_TRUE((*cluster)->PartitionLink(0, 1).ok());
  ASSERT_TRUE(WaitUntil(
      [&] { return registry.peer_state(id1) == dist::PeerState::kDead; }));
  ASSERT_TRUE((*cluster)->HealLink(0, 1).ok());
  ASSERT_TRUE(WaitUntil([&] {
    return registry.peer_state(id1) == dist::PeerState::kHealthy;
  }));

  auto get_once = [&] {
    auto buffer = (*consumer)->Get(id, 2000);
    ASSERT_TRUE(buffer.ok()) << buffer.status();
    auto data = buffer->CopyData();
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(std::string(data->begin(), data->end()), "still-here");
    ASSERT_TRUE((*consumer)->Release(id).ok());
  };
  const dist::RegistryStats before = registry.stats();
  get_once();
  const dist::RegistryStats first = registry.stats();
  if (shared_index) {
    EXPECT_GT(first.index_hits, before.index_hits);
  }
  const uint64_t hits_first = registry.lookup_cache()->stats().hits;

  for (int i = 0; i < 4; ++i) get_once();
  const dist::RegistryStats after = registry.stats();
  EXPECT_GE(registry.lookup_cache()->stats().hits, hits_first + 4);
  EXPECT_EQ(after.lookup_rpcs, first.lookup_rpcs);
  EXPECT_EQ(after.generation_retries, first.generation_retries);
}

TEST(ClusterFailoverTest, RecoveredPeerServesCachedLocations) {
  RepeatGetsAfterFalseDeath(/*shared_index=*/false);
}

TEST(ClusterFailoverTest, RecoveredPeerServesSharedIndexAndCache) {
  RepeatGetsAfterFalseDeath(/*shared_index=*/true);
}

}  // namespace
}  // namespace mdos
