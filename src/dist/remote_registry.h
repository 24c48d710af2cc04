// RemoteStoreRegistry — a store's view of its peer stores (DistHooks).
//
// Implements the distributed half of §IV-A2: every store keeps one RPC
// channel per peer (the paper's gRPC stubs), resolves unknown object
// ids by asking the peers, and probes peers for id uniqueness on Create.
// Two §V-B extensions are layered in front of the RPC path:
//   * lookup cache — repeated remote Gets skip the RPC entirely. Only
//     generation-stamped locations are cached, and every hit is
//     re-validated against the home peer's mapped generation table
//     (epoch and slot generation) before it is served: delete, evict,
//     spill and restart each bump one of the two, so a stale entry is
//     caught by two fabric loads and dropped without any message from
//     the home store,
//   * shared index  — when a peer exports its index region (Hello
//     handshake), lookups read the peer's table in disaggregated memory
//     and fall back to RPC only on a miss.
//
// Peer failure handling: each peer carries a health state machine
//
//     healthy ──failure──▶ suspect ──streak ≥ dead threshold──▶ dead
//        ▲                    │                                   │
//        └────any success─────┴──────ping success (heartbeat)─────┘
//
// driven by per-call failure streaks and by a Plasma.Ping heartbeat loop
// (StartHealthMonitor). Data-path RPCs (lookup/probe/pin/unpin) skip
// dead peers entirely — a dead peer costs zero RPCs per call, not an
// rpc_timeout_ms stall — while the heartbeat keeps pinging it so a
// restarted peer is re-admitted automatically (the channels redial with
// backoff, see rpc/channel.h). Declaring a peer dead also drops our pins
// on it from the usage tracker, invalidates its cached locations, and
// fires the on-peer-dead callback (the cluster layer wires it to
// Store::ReleasePinsForPeer so the corpse stops blocking eviction).
//
// Thread-safety: LookupRemote/IdKnownRemotely/Pin/Unpin may be called
// concurrently from several of the store's shard threads (the sharded
// core resolves remote ids from whichever shard homes the requesting
// connection); AddPeer/ReleaseAllPins from control threads; the
// heartbeat runs its own thread. Peer-list and health access is
// mutex-guarded, RpcChannels are internally synchronized, the lookup
// cache and usage tracker carry their own mutexes, and RPC calls are
// always issued outside the registry mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "dist/lookup_cache.h"
#include "dist/messages.h"
#include "dist/usage_tracker.h"
#include "net/fault_injector.h"
#include "plasma/generation_table.h"
#include "plasma/shared_index.h"
#include "plasma/store.h"
#include "rpc/channel.h"
#include "tf/fabric.h"

namespace mdos::dist {

// Per-peer health states (encoded as PeerStatsEntry::state).
enum class PeerState : uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
};

struct RegistryOptions {
  // Cache successful generation-stamped lookups (paper §V-B "caching the
  // look-up results"). Off reproduces the paper's lookup-per-Get path.
  bool enable_lookup_cache = true;
  size_t lookup_cache_capacity = 4096;
  // Injected per-RPC latency modelling the data-centre LAN.
  int64_t simulated_rtt_ns = 0;
  // Bound on every peer RPC.
  uint64_t rpc_timeout_ms = 5000;
  // Required for the shared-index read path and for lookup-cache hits
  // (both attach peer regions); without it the cache never serves.
  tf::Fabric* fabric = nullptr;

  // ---- failure handling ---------------------------------------------------
  // Heartbeat period for StartHealthMonitor; 0 disables the loop. The
  // heartbeat is the ONLY path that still talks to a dead peer, so with
  // it disabled health is driven by data-path failure streaks alone and
  // a peer declared dead stays dead until AddPeer re-meshes it (the
  // restarted peer's own ConnectPeer does exactly that).
  uint64_t heartbeat_interval_ms = 250;
  // Ping deadline — heartbeats probe liveness, so they fail much faster
  // than data RPCs.
  uint64_t ping_timeout_ms = 500;
  // Consecutive failures that demote a peer healthy → suspect and
  // suspect → dead.
  uint32_t suspect_after_failures = 1;
  uint32_t dead_after_failures = 3;
  // Channel redial/backoff policy (see rpc/channel.h).
  uint32_t redial_backoff_min_ms = 10;
  uint32_t redial_backoff_max_ms = 1000;

  // ---- gray-failure handling ----------------------------------------------
  // Hedged replica reads: when the ranked-first peer's lookup RPC stays
  // quiet past an EWMA-derived delay, the same request is fired at the
  // next-ranked peer and the first success wins. Tames tail latency
  // under a slow-but-alive (gray) replica without waiting for the
  // health machine to demote it.
  bool enable_hedged_reads = true;
  // Hedge delay = clamp(multiplier * peer latency EWMA, min, max). A
  // peer with no latency sample yet hedges only at the max delay.
  double hedge_delay_multiplier = 3.0;
  uint64_t hedge_delay_min_ms = 1;
  uint64_t hedge_delay_max_ms = 100;
  // Global cap on concurrently outstanding hedge attempts (the hedge
  // budget): past it a slow primary is waited out instead of hedged.
  uint32_t hedge_max_inflight = 16;
  // Optional seeded network fault injection, installed on every peer
  // channel (owned by the cluster/test harness, must outlive the
  // registry).
  net::FaultInjector* fault_injector = nullptr;
};

struct RegistryStats {
  uint64_t lookup_rpcs = 0;   // Plasma.Lookup calls issued
  uint64_t probe_rpcs = 0;    // Plasma.Probe calls issued
  uint64_t pin_rpcs = 0;      // Plasma.Pin + Plasma.Unpin calls issued
  uint64_t failed_rpcs = 0;   // connectivity failures (feeds the health
                              // machine; application errors don't count)
  uint64_t index_hits = 0;    // ids resolved by reading a peer's index
  uint64_t heartbeats = 0;    // Plasma.Ping calls issued
  uint64_t peers_died = 0;    // healthy/suspect → dead transitions
  uint64_t peers_recovered = 0;  // suspect/dead → healthy transitions
  uint64_t stale_pins_detected = 0;  // failed pins at cached locations
  // Cached descriptors invalidated because their generation (or epoch)
  // no longer matched, or could not be read from, the home peer's
  // generation table.
  uint64_t generation_retries = 0;
  // k-way replication: Plasma.Replicate + Plasma.ReplicaDrop calls issued.
  uint64_t replicate_rpcs = 0;
  // End-to-end deadlines & hedged reads (gray-failure handling).
  uint64_t deadline_exhausted = 0;   // ops whose budget ran out here
  uint64_t hedged_reads = 0;         // backup replica reads fired
  uint64_t hedge_wins = 0;           // hedges that answered first
  uint64_t hedge_budget_denied = 0;  // hedges refused by the global cap
};

class RemoteStoreRegistry : public plasma::DistHooks {
 public:
  explicit RemoteStoreRegistry(uint32_t self_node,
                               RegistryOptions options = {});
  ~RemoteStoreRegistry() override;

  // Connects to a peer store's RPC endpoint and performs the Hello
  // handshake. Rejects self-peering; re-adding a known node replaces its
  // channel (and resets its health to healthy — used after a restart).
  Status AddPeer(const std::string& host, uint16_t port);

  size_t peer_count() const EXCLUDES(mutex_);
  std::vector<uint32_t> peer_nodes() const EXCLUDES(mutex_);
  PeerState peer_state(uint32_t node_id) const EXCLUDES(mutex_);

  // Starts/stops the Plasma.Ping heartbeat loop. Start is a no-op when
  // heartbeat_interval_ms is 0 or the loop already runs; Stop is
  // idempotent and also runs from the destructor.
  void StartHealthMonitor() EXCLUDES(heartbeat_mutex_);
  void StopHealthMonitor() EXCLUDES(heartbeat_mutex_);

  // Invoked (outside the registry mutex, from whichever thread observed
  // the failure) whenever a peer transitions to dead. The cluster layer
  // wires this to Store::ReleasePinsForPeer.
  void SetPeerDeathHandler(std::function<void(uint32_t)> handler) {
    on_peer_dead_ = std::move(handler);
  }

  // Unpins everything this node still holds (shutdown path). Idempotent.
  void ReleaseAllPins();

  // nullptr when the cache extension is disabled.
  LookupCache* lookup_cache() { return cache_.get(); }
  const UsageTracker& usage() const { return usage_; }
  RegistryStats stats() const EXCLUDES(mutex_);

  // ---- DistHooks (called by the owning store) -------------------------

  std::vector<std::optional<plasma::RemoteObjectLocation>> LookupRemote(
      const std::vector<ObjectId>& ids, Deadline deadline) override;
  [[nodiscard]] bool IdKnownRemotely(const ObjectId& id,
                                     Deadline deadline) override;
  Status PinRemote(const ObjectId& id,
                   const plasma::RemoteObjectLocation& loc,
                   Deadline deadline) override;
  void UnpinRemote(const ObjectId& id,
                   const plasma::RemoteObjectLocation& loc) override;
  void NotifyDeleted(const ObjectId& id) override;
  std::vector<plasma::PeerStatsEntry> PeerHealth() override;
  uint64_t GenerationRetries() override;
  plasma::DistHooks::RobustnessCounters GetRobustnessCounters() override;

  // Deadline-less conveniences (control paths and tests): unbounded
  // budget, same behavior as before deadlines existed.
  std::vector<std::optional<plasma::RemoteObjectLocation>> LookupRemote(
      const std::vector<ObjectId>& ids) {
    return LookupRemote(ids, Deadline::Infinite());
  }
  [[nodiscard]] bool IdKnownRemotely(const ObjectId& id) {
    return IdKnownRemotely(id, Deadline::Infinite());
  }
  Status PinRemote(const ObjectId& id,
                   const plasma::RemoteObjectLocation& loc) {
    return PinRemote(id, loc, Deadline::Infinite());
  }
  // Replication fan-out: pushes the bytes to up to `copies_wanted` live
  // peers not in `exclude`, preferring healthy peers with the lowest
  // observed RPC latency (EWMA). Returns the acceptors' node ids.
  std::vector<uint32_t> ReplicateObject(
      const ObjectId& id, const uint8_t* bytes, uint64_t data_size,
      uint64_t metadata_size, uint32_t copies_wanted,
      const std::vector<uint32_t>& exclude, uint32_t origin,
      uint32_t desired) override;
  void DropReplicas(const ObjectId& id,
                    const std::vector<uint32_t>& holders) override;

 private:
  // Fabric mappings of the tables a peer exports, each set when the peer
  // exports it and a fabric is configured; an attachment owns the
  // mapping its reader points into. The shared index lets lookups read
  // the peer's table directly instead of calling RPC. The generation
  // table stamps index-path descriptors with the peer's current
  // generation, and cached descriptors are re-validated against it.
  // Dropped when the peer dies and attached afresh from a new Hello when
  // it comes back, so no incarnation is read through a stale mapping.
  struct PeerRegions {
    std::optional<tf::AttachedRegion> index_attachment;
    std::optional<plasma::SharedIndexReader> index_reader;
    uint32_t gen_region = UINT32_MAX;
    std::optional<tf::AttachedRegion> gen_attachment;
    std::optional<plasma::GenerationReader> gen_reader;
  };

  struct Peer {
    uint32_t node_id = 0;
    uint32_t pool_region = UINT32_MAX;
    std::string store_name;
    std::shared_ptr<rpc::RpcChannel> channel;
    PeerRegions regions;
    // Health machine. Guarded by the registry mutex; the guard cannot be
    // spelled as GUARDED_BY here (the analysis has no alias tracking
    // across shared_ptr<Peer> copies), so the contract is enforced at
    // the method layer instead: every mutation happens inside a
    // REQUIRES(mutex_) helper or under a MutexLock in this class.
    PeerState state = PeerState::kHealthy;
    uint32_t failure_streak = 0;
    uint64_t failed_rpcs = 0;
    uint64_t heartbeats = 0;
    int64_t last_ok_ns = 0;  // monotonic time of the last successful call
    // EWMA of observed RPC round-trip latency (same guard contract as
    // the health fields). 0 = no sample yet. Replica placement and
    // replica-read selection prefer the lowest value among healthy
    // peers.
    int64_t ewma_latency_ns = 0;
  };

  std::vector<std::shared_ptr<Peer>> SnapshotPeers() const
      EXCLUDES(mutex_);
  // Peers data-path RPCs may talk to (dead peers are skipped).
  std::vector<std::shared_ptr<Peer>> SnapshotLivePeers() const
      EXCLUDES(mutex_);
  // Peer lookup that treats dead peers as absent (one lock, one scan —
  // the pin/unpin hot path).
  std::shared_ptr<Peer> FindLivePeer(uint32_t node_id) const
      EXCLUDES(mutex_);

  // Folds one call outcome into the peer's health machine and performs
  // the resulting transition work (death cleanup).
  void RecordPeerResult(const std::shared_ptr<Peer>& peer, bool ok)
      EXCLUDES(mutex_);
  // Folds one successful call's round trip into the peer's latency EWMA.
  void RecordPeerLatency(const std::shared_ptr<Peer>& peer,
                         int64_t sample_ns) EXCLUDES(mutex_);
  // Live peers ranked for replica placement / replica-read selection:
  // healthy before suspect, then by latency EWMA (no sample ranks
  // last), node id as the tiebreak.
  std::vector<std::shared_ptr<Peer>> SnapshotRankedPeers() const
      EXCLUDES(mutex_);

  // One data-path RPC, bounded by both the registry's per-RPC timeout
  // and the operation's remaining end-to-end budget. An infinite op
  // deadline keeps the legacy single-attempt semantics (fail fast feeds
  // the health machine); a finite one uses the channel's deadline path,
  // which retries transient transport faults within the clamped budget
  // and stamps the remaining milliseconds on every attempt.
  template <typename ReplyT, typename RequestT>
  Result<ReplyT> PeerCall(const std::shared_ptr<Peer>& peer,
                          const std::string& method,
                          const RequestT& request, Deadline deadline) {
    if (deadline.infinite()) {
      return peer->channel->template CallTyped<ReplyT>(
          method, request, options_.rpc_timeout_ms);
    }
    Deadline bound = Deadline::Min(
        deadline,
        Deadline::AfterMs(static_cast<int64_t>(options_.rpc_timeout_ms)));
    return peer->channel->template CallTypedDeadline<ReplyT>(method,
                                                             request, bound);
  }

  // EWMA-derived hedge trigger delay for `peer` (ns), clamped to the
  // configured [min, max] window; a peer with no sample hedges only at
  // the max delay (cold channels are slow for benign reasons).
  int64_t HedgeDelayNs(const std::shared_ptr<Peer>& peer) const
      EXCLUDES(mutex_);

  // One hedged lookup wave: the batched request in flight at one or
  // more ranked peers, first success wins. Waves are independent —
  // attempts from an abandoned wave finish into their own state and
  // die with it.
  struct LookupWave {
    Mutex m;
    CondVar cv;
    struct Outcome {
      std::shared_ptr<Peer> peer;
      Result<LookupReply> reply;
      bool is_hedge = false;
      Outcome(std::shared_ptr<Peer> p, Result<LookupReply> r, bool h)
          : peer(std::move(p)), reply(std::move(r)), is_hedge(h) {}
    };
    std::vector<Outcome> outcomes GUARDED_BY(m);
    uint32_t launched GUARDED_BY(m) = 0;
  };
  // Fires the wave's request at `peer` on a detached (but inflight-
  // tracked) thread; the outcome lands in `wave` and wakes its waiter.
  void LaunchLookupAttempt(std::shared_ptr<Peer> peer,
                           std::shared_ptr<const LookupRequest> request,
                           Deadline deadline,
                           std::shared_ptr<LookupWave> wave, bool is_hedge);
  // True when `hit` can be served: its home peer is live, exports a
  // generation table, and both the epoch and the slot generation read
  // from it match the ones stamped on the cached location. The two
  // loads are charged to `wave`.
  static bool CachedLocationValid(
      const plasma::RemoteObjectLocation& hit,
      const std::vector<std::shared_ptr<Peer>>& peers,
      tf::AccessBatch* wave);
  // Attaches the regions a peer announced in its Hello reply.
  PeerRegions AttachRegions(const HelloReply& reply) const;
  // Death bookkeeping, run outside the registry mutex.
  void HandlePeerDeath(uint32_t node_id);
  // Repeats the Hello handshake with a dead peer that answers again and
  // attaches the regions its current incarnation exports.
  Status ReattachPeer(const std::shared_ptr<Peer>& peer) EXCLUDES(mutex_);

  void HeartbeatLoop() EXCLUDES(heartbeat_mutex_);
  // One heartbeat round: ping every peer (including dead ones — that is
  // the recovery path).
  void PingAllPeers() EXCLUDES(mutex_);

  const uint32_t self_node_;
  const RegistryOptions options_;
  std::unique_ptr<LookupCache> cache_;
  UsageTracker usage_;
  std::function<void(uint32_t)> on_peer_dead_;

  mutable Mutex mutex_;
  std::vector<std::shared_ptr<Peer>> peers_ GUARDED_BY(mutex_);
  RegistryStats stats_ GUARDED_BY(mutex_);

  // Heartbeat thread state. heartbeat_mutex_ is a leaf lock: never
  // taken with mutex_ held.
  Mutex heartbeat_mutex_ ACQUIRED_AFTER(mutex_);
  std::thread heartbeat_thread_ GUARDED_BY(heartbeat_mutex_);
  CondVar heartbeat_cv_;
  bool heartbeat_running_ GUARDED_BY(heartbeat_mutex_) = false;

  // Hedge budget: attempts currently in flight beyond each wave's
  // primary. Bounded by options_.hedge_max_inflight.
  std::atomic<uint32_t> hedge_inflight_{0};
  // Every detached attempt thread is counted here; the destructor waits
  // for zero so no attempt outlives the registry. Leaf lock like
  // heartbeat_mutex_.
  mutable Mutex async_mutex_ ACQUIRED_AFTER(mutex_);
  CondVar async_cv_;
  uint64_t async_inflight_ GUARDED_BY(async_mutex_) = 0;
};

}  // namespace mdos::dist
