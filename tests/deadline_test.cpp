// End-to-end deadline and hedged-read tests.
//
// The contract under test (docs/protocol.md "deadline_ms"): a client
// passes an absolute deadline, the remaining budget rides the wire
// header on every hop, each hop decrements by its observed elapsed
// time, and exhaustion surfaces as a typed DeadlineExceeded — never a
// hang. Network faults come from the seeded net::FaultInjector, so
// every scenario here is deterministic.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/status.h"
#include "dist/messages.h"
#include "dist/remote_registry.h"
#include "net/fault_injector.h"
#include "plasma/client.h"
#include "plasma/store.h"
#include "rpc/channel.h"
#include "rpc/server.h"
#include "test_cluster_util.h"

namespace mdos {
namespace {

// Generous wall-clock slack for "failed fast" assertions: sanitizer
// builds run several times slower, so "immediately" is asserted as
// "well under a second", not in microseconds.
constexpr int64_t kFastMs = 900;

TEST(DeadlineTest, ValueSemantics) {
  EXPECT_TRUE(Deadline().infinite());
  EXPECT_TRUE(Deadline::Infinite().infinite());
  EXPECT_FALSE(Deadline::Infinite().expired());
  EXPECT_TRUE(Deadline::FromBudgetMs(0).infinite());
  EXPECT_TRUE(Deadline::FromBudgetMs(Deadline::kInfiniteMs).infinite());

  Deadline past = Deadline::AfterMs(-5);
  EXPECT_FALSE(past.infinite());
  EXPECT_TRUE(past.expired());

  Deadline future = Deadline::AfterMs(60'000);
  EXPECT_FALSE(future.expired());
  EXPECT_GE(future.remaining_ms_ceil(), 1);
  EXPECT_LE(future.remaining_ms_ceil(), 60'000);

  EXPECT_TRUE(Deadline::Min(Deadline::Infinite(), past).expired());
  EXPECT_TRUE(Deadline::Min(past, future).expired());
}

TEST(DeadlineTest, ExpiredDeadlineFailsFastWithoutDial) {
  rpc::RpcServer server;
  server.RegisterHandler(
      "echo", [](const std::vector<uint8_t>& p)
                  -> Result<std::vector<uint8_t>> { return p; });
  ASSERT_TRUE(server.Start(0).ok());
  auto channel = rpc::RpcChannel::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(channel.ok());
  // The endpoint is gone: any send or dial attempt would fail and show
  // up in the redial counters.
  server.Stop();

  Stopwatch sw;
  auto reply =
      (*channel)->CallWithDeadline("echo", {1}, Deadline::AfterMs(-1));
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(sw.ElapsedMillis(), kFastMs);
  // No dial, no send: the expired call never touched the transport.
  EXPECT_EQ((*channel)->stats().redial_failures, 0u);
  EXPECT_EQ((*channel)->stats().reconnects, 0u);
}

TEST(DeadlineTest, RetryBackoffStaysWithinBudget) {
  rpc::RpcServer server;
  ASSERT_TRUE(server.Start(0).ok());
  rpc::ChannelOptions options;
  options.redial_attempts = 4;
  options.redial_backoff_min_ms = 5;
  options.redial_backoff_max_ms = 50;
  auto channel =
      rpc::RpcChannel::Connect("127.0.0.1", server.port(), options);
  ASSERT_TRUE(channel.ok());
  server.Stop();

  // Budget 300 ms against a dead endpoint: the retry loop may redial
  // and back off as it likes, but every wait is clamped to the
  // remaining budget, so the call returns a typed DeadlineExceeded in
  // ~300 ms — not after the full backoff schedule, and never hangs.
  Stopwatch sw;
  auto reply =
      (*channel)->CallWithDeadline("echo", {1}, Deadline::AfterMs(300));
  const int64_t elapsed_ms = sw.ElapsedMillis();
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed_ms, 300 + 2000);  // budget + generous sanitizer slack
  EXPECT_EQ((*channel)->stats().deadline_exceeded, 1u);
}

TEST(DeadlineTest, ClientExpiredDeadlineFailsFastWithoutSocketWork) {
  plasma::StoreOptions options;
  options.name = "deadline-store";
  options.capacity = 4 << 20;
  auto store = plasma::Store::Create(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Start().ok());
  auto client = plasma::PlasmaClient::Connect((*store)->socket_path());
  ASSERT_TRUE(client.ok());

  const Deadline past = Deadline::AfterMs(-1);
  Stopwatch sw;
  auto got = (*client)->Get(ObjectId::FromName("nope"),
                            /*timeout_ms=*/10'000, past);
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  auto made =
      (*client)->Create(ObjectId::FromName("nope2"), 128, 0, false, past);
  EXPECT_EQ(made.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*client)->Seal(ObjectId::FromName("nope2"), past).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_LT(sw.ElapsedMillis(), kFastMs);

  // The connection is still healthy — nothing was sent on it.
  EXPECT_TRUE(
      (*client)->CreateAndSeal(ObjectId::FromName("alive"), "yes").ok());
  (*store)->Stop();
}

// Two real store stacks (the cluster) plus one externally-driven
// registry whose link latencies we control: the deterministic rig for
// the hop-budget and hedging tests below. The object is sealed on BOTH
// nodes so either peer can answer a lookup.
class DeadlineHopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster::NodeOptions options = testutil::FailoverNodeOptions();
    options.check_global_uniqueness = false;
    auto cluster = testutil::MakeCluster(2, options);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    payload_ = testutil::RandomPayload(7, 64 << 10);
    for (size_t i = 0; i < 2; ++i) {
      auto client = cluster_->node(i)->CreateClient();
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE((*client)->CreateAndSeal(id_, payload_).ok());
    }
  }

  // An external registry (observer node 99) meshed with both nodes,
  // with `injector` under its peer channels.
  std::unique_ptr<dist::RemoteStoreRegistry> MakeObserver(
      net::FaultInjector* injector, bool hedged, uint64_t hedge_max_ms,
      uint64_t hedge_min_ms = 1) {
    dist::RegistryOptions options;
    options.heartbeat_interval_ms = 0;  // no monitor thread
    options.enable_hedged_reads = hedged;
    options.hedge_delay_min_ms = hedge_min_ms;
    options.hedge_delay_max_ms = hedge_max_ms;
    options.fault_injector = injector;
    auto registry = std::make_unique<dist::RemoteStoreRegistry>(
        /*self_node=*/99, options);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(registry
                      ->AddPeer("127.0.0.1",
                                cluster_->node(i)->rpc_port())
                      .ok());
    }
    return registry;
  }

  uint32_t NodeId(size_t index) { return cluster_->node(index)->id(); }

  std::unique_ptr<cluster::Cluster> cluster_;
  const ObjectId id_ = ObjectId::FromName("hop-object");
  std::string payload_;
};

TEST_F(DeadlineHopTest, BudgetDecrementsAcrossLookupThenLookup) {
  net::FaultInjector injector(/*seed=*/11);
  auto registry = MakeObserver(&injector, /*hedged=*/false, 100);
  // A raw channel on the observer's link to node0: the registry folds a
  // failed hop into "not found", the channel shows its typed status.
  auto channel =
      rpc::RpcChannel::Connect("127.0.0.1", cluster_->node(0)->rpc_port());
  ASSERT_TRUE(channel.ok()) << channel.status();
  (*channel)->SetFaultInjector(&injector, 99, NodeId(0));

  // 300 ms of injected latency on the paths to both nodes — both peers
  // stay reachable, just slow.
  net::LinkFault slow;
  slow.latency_ns = 300'000'000;
  injector.SetFault(99, NodeId(0), slow);
  injector.SetFault(99, NodeId(1), slow);

  // Hop 1 (lookup) eats ~300 ms of the 500 ms budget; hop 2 (a second
  // lookup) gets the decremented remainder (~200 ms), which the 300 ms
  // link latency exceeds — so it MUST fail with DeadlineExceeded even
  // though the link is alive and a fresh budget succeeds (checked
  // after).
  const Deadline op = Deadline::AfterMs(500);
  Stopwatch sw;
  auto located = registry->LookupRemote({id_}, op);
  ASSERT_EQ(located.size(), 1u);
  ASSERT_TRUE(located[0].has_value()) << "lookup should fit the budget";
  dist::LookupRequest request;
  request.ids = {id_};
  auto second = (*channel)->CallTypedDeadline<dist::LookupReply>(
      dist::kMethodLookup, request, op);
  EXPECT_EQ(second.status().code(), StatusCode::kDeadlineExceeded)
      << "second lookup ran on the already-spent budget: "
      << second.status();
  // The registry refuses to start a hop on the spent budget, and counts
  // it.
  EXPECT_FALSE(registry->LookupRemote({id_}, op)[0].has_value());
  // Typed failure within (roughly) the budget — not a hang.
  EXPECT_LT(sw.ElapsedMillis(), 500 + 3000);
  EXPECT_GE(registry->stats().deadline_exhausted, 1u);

  // Same hop, fresh budget: the link latency alone was never the
  // problem.
  auto fresh = (*channel)->CallTypedDeadline<dist::LookupReply>(
      dist::kMethodLookup, request, Deadline::AfterMs(10'000));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(fresh->entries.size(), 1u);
  EXPECT_TRUE(fresh->entries[0].found);
  EXPECT_TRUE(
      registry->LookupRemote({id_}, Deadline::AfterMs(10'000))[0].has_value());
}

TEST_F(DeadlineHopTest, HedgedLookupWinsUnderSlowPrimary) {
  net::FaultInjector injector(/*seed=*/12);
  auto registry =
      MakeObserver(&injector, /*hedged=*/true, /*hedge_max_ms=*/5);

  // Primary ranking with no latency samples is ascending node id: slow
  // that peer only. The gray primary stalls 400 ms; the hedge fires at
  // the 5 ms delay cap and the healthy replica answers.
  const uint32_t primary = std::min(NodeId(0), NodeId(1));
  net::LinkFault slow;
  slow.latency_ns = 400'000'000;
  injector.SetFault(99, primary, slow);

  Stopwatch sw;
  auto located = registry->LookupRemote({id_}, Deadline::AfterMs(5000));
  const int64_t elapsed_ms = sw.ElapsedMillis();
  ASSERT_EQ(located.size(), 1u);
  ASSERT_TRUE(located[0].has_value());
  // The win came from the hedge, well before the primary's 400 ms.
  EXPECT_LT(elapsed_ms, 300);
  const dist::RegistryStats stats = registry->stats();
  EXPECT_EQ(stats.hedged_reads, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);

  // The hedged descriptor is a normal generation-stamped location.
  EXPECT_NE(located[0]->gen_region, UINT32_MAX);
}

TEST_F(DeadlineHopTest, NoHedgeWhenPrimaryAnswersInTime) {
  net::FaultInjector injector(/*seed=*/13);
  // Pin the hedge delay at 500 ms (min = max, so the EWMA from the
  // first lookup can't shrink it under scheduler noise — sanitizer
  // builds stretch a healthy loopback call past a few milliseconds).
  auto registry = MakeObserver(&injector, /*hedged=*/true,
                               /*hedge_max_ms=*/500, /*hedge_min_ms=*/500);

  // Both links healthy and the hedge delay enormous: the primary wins
  // every wave and no hedge is ever launched (the "cancel" is that it
  // never fires once the primary succeeds inside its delay).
  for (int i = 0; i < 3; ++i) {
    auto located = registry->LookupRemote({id_}, Deadline::AfterMs(5000));
    ASSERT_EQ(located.size(), 1u);
    EXPECT_TRUE(located[0].has_value());
  }
  const dist::RegistryStats stats = registry->stats();
  EXPECT_EQ(stats.hedged_reads, 0u);
  EXPECT_EQ(stats.hedge_wins, 0u);
}

TEST_F(DeadlineHopTest, FullPartitionFailsFastNotForever) {
  net::FaultInjector injector(/*seed=*/14);
  auto registry = MakeObserver(&injector, /*hedged=*/true, 5);
  net::LinkFault cut;
  cut.partitioned = true;
  injector.SetFault(99, NodeId(0), cut);
  injector.SetFault(99, NodeId(1), cut);

  // Every copy unreachable: the lookup burns its budget on bounded
  // retries and reports unresolved — typed, terminating, no hang.
  Stopwatch sw;
  auto located = registry->LookupRemote({id_}, Deadline::AfterMs(400));
  EXPECT_FALSE(located[0].has_value());
  EXPECT_LT(sw.ElapsedMillis(), 400 + 3000);
  EXPECT_GE(registry->stats().deadline_exhausted, 1u);

  // Heal: the same registry serves again (channels redial lazily).
  injector.ClearAll();
  auto healed = registry->LookupRemote({id_}, Deadline::AfterMs(10'000));
  EXPECT_TRUE(healed[0].has_value());
}

TEST(DeadlineClusterTest, PartitionedGetReturnsTypedErrorWithinBudget) {
  cluster::NodeOptions options = testutil::FailoverNodeOptions();
  auto cluster = testutil::MakeCluster(2, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  const ObjectId id = ObjectId::FromName("remote-only");
  auto writer = (*cluster)->node(1)->CreateClient();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->CreateAndSeal(id, testutil::RandomPayload(3, 4096)).ok());

  auto reader = (*cluster)->node(0)->CreateClient();
  ASSERT_TRUE(reader.ok());
  // Sanity: reachable over the healthy network.
  ASSERT_TRUE((*reader)
                  ->Get(id, /*timeout_ms=*/2000, Deadline::AfterMs(5000))
                  .ok());
  ASSERT_TRUE((*reader)->Release(id).ok());

  ASSERT_TRUE((*cluster)->PartitionLink(0, 1).ok());
  // The remote get crosses the partition: lookup + pin retries burn the
  // budget and the client gets a typed error in bounded time. 10 s
  // park timeout >> 800 ms budget proves the deadline (not the park
  // timer) is what bounds the wait.
  Stopwatch sw;
  auto got = (*reader)->Get(id, /*timeout_ms=*/10'000,
                            Deadline::AfterMs(800));
  EXPECT_FALSE(got.ok());
  EXPECT_LT(sw.ElapsedMillis(), 800 + 5000);

  (*cluster)->HealAllLinks();
}

}  // namespace
}  // namespace mdos
