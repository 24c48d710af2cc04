#include "dist/remote_registry.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "common/log.h"

namespace mdos::dist {

namespace {

// A connectivity failure feeds the health machine; an application-level
// error (KeyError from an unpin race, Invalid, ...) proves the peer is
// alive and healthy enough to reject us.
bool IsConnectivityError(const Status& st) {
  switch (st.code()) {
    case StatusCode::kIoError:
    case StatusCode::kTimeout:
    case StatusCode::kNotConnected:
    case StatusCode::kProtocolError:
    case StatusCode::kUnavailable:
    // A deadline-bounded call that exhausted its budget never got an
    // answer — indistinguishable from a slow/partitioned peer, and a
    // server-side shed is itself evidence of gray failure there.
    case StatusCode::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

const char* PeerStateName(PeerState state) {
  switch (state) {
    case PeerState::kHealthy: return "healthy";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "?";
}

}  // namespace

RemoteStoreRegistry::RemoteStoreRegistry(uint32_t self_node,
                                         RegistryOptions options)
    : self_node_(self_node), options_(options) {
  if (options_.enable_lookup_cache) {
    cache_ = std::make_unique<LookupCache>(options_.lookup_cache_capacity);
  }
}

RemoteStoreRegistry::~RemoteStoreRegistry() {
  StopHealthMonitor();
  // Hedged-lookup attempt threads are detached but counted; every one
  // must land before the registry's state goes away. Each attempt is
  // bounded by rpc_timeout_ms (or its op deadline), so this terminates.
  MutexLock lock(async_mutex_);
  while (async_inflight_ > 0) {
    async_cv_.WaitFor(async_mutex_, std::chrono::milliseconds(50), [this] {
      async_mutex_.AssertHeld();
      return async_inflight_ == 0;
    });
  }
}

Status RemoteStoreRegistry::AddPeer(const std::string& host,
                                    uint16_t port) {
  rpc::ChannelOptions channel_options;
  channel_options.simulated_rtt_ns = options_.simulated_rtt_ns;
  channel_options.redial_backoff_min_ms = options_.redial_backoff_min_ms;
  channel_options.redial_backoff_max_ms = options_.redial_backoff_max_ms;
  MDOS_ASSIGN_OR_RETURN(
      auto channel, rpc::RpcChannel::Connect(host, port, channel_options));

  HelloRequest request;
  request.node_id = self_node_;
  MDOS_ASSIGN_OR_RETURN(
      HelloReply reply,
      channel->CallTyped<HelloReply>(kMethodHello, request,
                                     options_.rpc_timeout_ms));
  if (reply.node_id == self_node_) {
    return Status::Invalid("refusing to peer with self (node " +
                           std::to_string(self_node_) + ")");
  }

  // Slide the (cluster-owned) fault injector under this channel now
  // that the peer's node id is known: from here on, every call on the
  // self -> peer link is subject to the injected faults, the Hello
  // handshake above deliberately was not (the mesh is wired before the
  // chaos schedule starts flipping links).
  if (options_.fault_injector != nullptr) {
    channel->SetFaultInjector(options_.fault_injector, self_node_,
                              reply.node_id);
  }

  auto peer = std::make_shared<Peer>();
  peer->node_id = reply.node_id;
  peer->pool_region = reply.pool_region;
  peer->store_name = reply.store_name;
  peer->channel = std::move(channel);
  peer->last_ok_ns = MonotonicNanos();

  peer->regions = AttachRegions(reply);

  bool replaced = false;
  {
    MutexLock lock(mutex_);
    size_t before = peers_.size();
    peers_.erase(std::remove_if(peers_.begin(), peers_.end(),
                                [&](const std::shared_ptr<Peer>& p) {
                                  return p->node_id == reply.node_id;
                                }),
                 peers_.end());
    replaced = peers_.size() != before;
    peers_.push_back(std::move(peer));
  }
  // Re-adding an existing node means it restarted: whatever locations we
  // cached for it point into a previous incarnation's pool.
  if (replaced && cache_ != nullptr) {
    cache_->InvalidateNode(reply.node_id);
  }
  return Status::OK();
}

RemoteStoreRegistry::PeerRegions RemoteStoreRegistry::AttachRegions(
    const HelloReply& reply) const {
  PeerRegions regions;
  if (options_.fabric == nullptr) return regions;
  const tf::LatencyParams& remote = options_.fabric->config().remote;
  if (reply.index_region != UINT32_MAX) {
    auto attached = options_.fabric->Attach(self_node_, reply.index_region);
    if (attached.ok()) {
      auto reader = plasma::SharedIndexReader::Open(
          attached->unsafe_data(), attached->size(), remote);
      if (reader.ok()) {
        regions.index_attachment.emplace(std::move(attached).value());
        regions.index_reader.emplace(std::move(reader).value());
      } else {
        MDOS_LOG_WARN << "peer " << reply.node_id
                      << " exported an unreadable index: "
                      << reader.status();
      }
    }
  }
  if (reply.gen_region != UINT32_MAX) {
    auto attached = options_.fabric->Attach(self_node_, reply.gen_region);
    if (attached.ok()) {
      auto reader = plasma::GenerationReader::Open(
          attached->unsafe_data(), attached->size(), remote);
      if (reader.ok()) {
        regions.gen_region = reply.gen_region;
        regions.gen_attachment.emplace(std::move(attached).value());
        regions.gen_reader.emplace(std::move(reader).value());
      } else {
        MDOS_LOG_WARN << "peer " << reply.node_id
                      << " exported an unreadable generation table: "
                      << reader.status();
      }
    }
  }
  return regions;
}

size_t RemoteStoreRegistry::peer_count() const {
  MutexLock lock(mutex_);
  return peers_.size();
}

std::vector<uint32_t> RemoteStoreRegistry::peer_nodes() const {
  MutexLock lock(mutex_);
  std::vector<uint32_t> nodes;
  nodes.reserve(peers_.size());
  for (const auto& peer : peers_) nodes.push_back(peer->node_id);
  return nodes;
}

PeerState RemoteStoreRegistry::peer_state(uint32_t node_id) const {
  MutexLock lock(mutex_);
  for (const auto& peer : peers_) {
    if (peer->node_id == node_id) return peer->state;
  }
  return PeerState::kDead;  // unknown peers are as good as dead
}

RegistryStats RemoteStoreRegistry::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::vector<std::shared_ptr<RemoteStoreRegistry::Peer>>
RemoteStoreRegistry::SnapshotPeers() const {
  MutexLock lock(mutex_);
  return peers_;
}

std::vector<std::shared_ptr<RemoteStoreRegistry::Peer>>
RemoteStoreRegistry::SnapshotLivePeers() const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Peer>> live;
  live.reserve(peers_.size());
  for (const auto& peer : peers_) {
    if (peer->state != PeerState::kDead) live.push_back(peer);
  }
  return live;
}

std::vector<std::shared_ptr<RemoteStoreRegistry::Peer>>
RemoteStoreRegistry::SnapshotRankedPeers() const {
  MutexLock lock(mutex_);
  std::vector<std::shared_ptr<Peer>> live;
  live.reserve(peers_.size());
  for (const auto& peer : peers_) {
    if (peer->state != PeerState::kDead) live.push_back(peer);
  }
  // Health first (healthy beats suspect), then observed latency (EWMA;
  // no sample ranks behind any sample), node id as the deterministic
  // tiebreak. Sorted under the registry mutex — the health and latency
  // fields follow the Peer guard contract.
  std::sort(live.begin(), live.end(),
            [](const std::shared_ptr<Peer>& a,
               const std::shared_ptr<Peer>& b) {
              if (a->state != b->state) {
                return static_cast<uint8_t>(a->state) <
                       static_cast<uint8_t>(b->state);
              }
              int64_t la = a->ewma_latency_ns > 0 ? a->ewma_latency_ns
                                                  : INT64_MAX;
              int64_t lb = b->ewma_latency_ns > 0 ? b->ewma_latency_ns
                                                  : INT64_MAX;
              if (la != lb) return la < lb;
              return a->node_id < b->node_id;
            });
  return live;
}

void RemoteStoreRegistry::RecordPeerLatency(
    const std::shared_ptr<Peer>& peer, int64_t sample_ns) {
  if (sample_ns <= 0) return;
  MutexLock lock(mutex_);
  peer->ewma_latency_ns =
      peer->ewma_latency_ns > 0
          ? (3 * peer->ewma_latency_ns + sample_ns) / 4
          : sample_ns;
}

std::shared_ptr<RemoteStoreRegistry::Peer>
RemoteStoreRegistry::FindLivePeer(uint32_t node_id) const {
  MutexLock lock(mutex_);
  for (const auto& peer : peers_) {
    if (peer->node_id != node_id) continue;
    return peer->state == PeerState::kDead ? nullptr : peer;
  }
  return nullptr;
}

void RemoteStoreRegistry::RecordPeerResult(
    const std::shared_ptr<Peer>& peer, bool ok) {
  bool died = false;
  bool recovered = false;
  {
    MutexLock lock(mutex_);
    if (ok) {
      peer->failure_streak = 0;
      peer->last_ok_ns = MonotonicNanos();
      if (peer->state != PeerState::kHealthy) {
        recovered = true;
        peer->state = PeerState::kHealthy;
        ++stats_.peers_recovered;
      }
      // A successful call while flagged dead can't happen (dead peers are
      // skipped by the data path); the heartbeat is the only caller that
      // still reaches them, which is exactly the recovery path above.
    } else {
      ++peer->failed_rpcs;
      ++peer->failure_streak;
      ++stats_.failed_rpcs;
      PeerState next = peer->state;
      if (peer->failure_streak >= options_.dead_after_failures) {
        next = PeerState::kDead;
      } else if (peer->failure_streak >= options_.suspect_after_failures &&
                 peer->state == PeerState::kHealthy) {
        next = PeerState::kSuspect;
      }
      if (next != peer->state) {
        MDOS_LOG_INFO << "node " << self_node_ << ": peer "
                      << peer->node_id << " "
                      << PeerStateName(peer->state) << " -> "
                      << PeerStateName(next) << " (streak "
                      << peer->failure_streak << ")";
        if (next == PeerState::kDead) {
          died = true;
          ++stats_.peers_died;
        }
        peer->state = next;
      }
    }
  }
  if (died) HandlePeerDeath(peer->node_id);
  if (recovered) {
    MDOS_LOG_INFO << "node " << self_node_ << ": peer " << peer->node_id
                  << " recovered";
  }
}

void RemoteStoreRegistry::HandlePeerDeath(uint32_t node_id) {
  // Our cached locations into the corpse's pool dangle.
  if (cache_ != nullptr) cache_->InvalidateNode(node_id);
  // Drop the fabric mappings of the corpse's index and generation
  // tables: a peer that comes back re-announces its regions through a
  // new Hello handshake (ReattachPeer), and reading a previous
  // incarnation through a stale attachment could validate descriptors
  // against dead memory.
  {
    MutexLock lock(mutex_);
    for (auto& peer : peers_) {
      if (peer->node_id != node_id) continue;
      peer->regions = PeerRegions{};
    }
  }
  // Pins we hold on the dead peer have no remote state left to release.
  uint64_t dropped = usage_.DropPinsForNode(node_id);
  if (dropped > 0) {
    MDOS_LOG_INFO << "node " << self_node_ << ": dropped " << dropped
                  << " pins held on dead peer " << node_id;
  }
  // Pins the dead peer held on us must stop blocking eviction — the
  // cluster layer wires this to Store::ReleasePinsForPeer.
  if (on_peer_dead_) on_peer_dead_(node_id);
}

int64_t RemoteStoreRegistry::HedgeDelayNs(
    const std::shared_ptr<Peer>& peer) const {
  int64_t ewma_ns;
  {
    MutexLock lock(mutex_);
    ewma_ns = peer->ewma_latency_ns;
  }
  const int64_t min_ns =
      static_cast<int64_t>(options_.hedge_delay_min_ms) * 1'000'000;
  const int64_t max_ns = std::max<int64_t>(
      static_cast<int64_t>(options_.hedge_delay_max_ms) * 1'000'000,
      min_ns);
  if (ewma_ns <= 0) return max_ns;
  const double scaled =
      static_cast<double>(ewma_ns) * options_.hedge_delay_multiplier;
  const auto delay = static_cast<int64_t>(scaled);
  return std::min(std::max(delay, min_ns), max_ns);
}

void RemoteStoreRegistry::LaunchLookupAttempt(
    std::shared_ptr<Peer> peer,
    std::shared_ptr<const LookupRequest> request, Deadline deadline,
    std::shared_ptr<LookupWave> wave, bool is_hedge) {
  {
    MutexLock lock(wave->m);
    ++wave->launched;
  }
  {
    MutexLock lock(mutex_);
    ++stats_.lookup_rpcs;
  }
  {
    MutexLock lock(async_mutex_);
    ++async_inflight_;
  }
  // Detached but inflight-counted (see the destructor): the attempt must
  // not block the waiter past its hedge delay, and an abandoned
  // attempt's only remaining job is feeding the health machine.
  std::thread([this, peer = std::move(peer), request = std::move(request),
               deadline, wave = std::move(wave), is_hedge] {
    const int64_t start = MonotonicNanos();
    auto reply =
        PeerCall<LookupReply>(peer, kMethodLookup, *request, deadline);
    const bool ok = reply.ok();
    RecordPeerResult(peer, ok || !IsConnectivityError(reply.status()));
    if (ok) RecordPeerLatency(peer, MonotonicNanos() - start);
    if (is_hedge) hedge_inflight_.fetch_sub(1);
    {
      MutexLock lock(wave->m);
      wave->outcomes.emplace_back(peer, std::move(reply), is_hedge);
    }
    wave->cv.NotifyAll();
    {
      // Notify under the lock: the destructor frees async_cv_ as soon as
      // it sees zero in flight.
      MutexLock lock(async_mutex_);
      --async_inflight_;
      async_cv_.NotifyAll();
    }
  }).detach();
}

bool RemoteStoreRegistry::CachedLocationValid(
    const plasma::RemoteObjectLocation& hit,
    const std::vector<std::shared_ptr<Peer>>& peers, tf::AccessBatch* wave) {
  for (const auto& peer : peers) {
    if (peer->node_id != hit.home_node) continue;
    return peer->regions.gen_reader.has_value() &&
           peer->regions.gen_reader->Epoch(wave) == hit.gen_epoch &&
           peer->regions.gen_reader->Read(hit.gen_slot, wave) == hit.generation;
  }
  return false;  // home not live: its locations dangle
}

std::vector<std::optional<plasma::RemoteObjectLocation>>
RemoteStoreRegistry::LookupRemote(const std::vector<ObjectId>& ids,
                                  Deadline deadline) {
  std::vector<std::optional<plasma::RemoteObjectLocation>> out(ids.size());
  std::vector<size_t> unresolved;
  unresolved.reserve(ids.size());

  // Dead peers are skipped outright: no RPC, no timeout stall. The
  // heartbeat loop is responsible for noticing a resurrection. Peers are
  // visited in replica-selection order (healthy before suspect, lowest
  // observed latency first), so when an object has k live replicas the
  // first index/RPC hit IS the preferred copy — and a killed replica's
  // peer simply is not in the snapshot, which is the transparent
  // dead-replica failover.
  auto peers = SnapshotRankedPeers();

  // 1. Lookup cache (§V-B extension). Every hit is re-validated against
  // the home peer's mapped generation table before it is served: a
  // bumped slot (evict / spill / delete since we cached the descriptor),
  // a changed epoch (the peer restarted), or a table that cannot be read
  // (the peer is dead or exports none) invalidates the entry and sends
  // the id down the index/RPC path for a fresh descriptor. The checks
  // for distinct ids are independent loads: one pipelined wave.
  uint64_t gen_invalidations = 0;
  {
    tf::AccessBatch wave(options_.fabric != nullptr
                             ? options_.fabric->config().remote
                             : tf::LatencyParams{});
    for (size_t i = 0; i < ids.size(); ++i) {
      if (cache_ != nullptr) {
        auto hit = cache_->Get(ids[i]);
        if (hit.has_value()) {
          if (CachedLocationValid(*hit, peers, &wave)) {
            out[i] = *hit;
            continue;
          }
          cache_->Invalidate(ids[i]);
          ++gen_invalidations;
        }
      }
      unresolved.push_back(i);
    }
  }
  if (gen_invalidations > 0) {
    MutexLock lock(mutex_);
    stats_.generation_retries += gen_invalidations;
  }

  // 2. Shared index in disaggregated memory (§V-B extension): probe every
  // peer's table before falling back to RPC. The probes for distinct ids
  // are independent loads, so the whole sweep is charged to the latency
  // model as one pipelined wave (tf::AccessBatch) rather than a serial
  // base latency per probe — this is what keeps a batched mapped Get
  // near local Get latency.
  for (const auto& peer : peers) {
    if (!peer->regions.index_reader.has_value() || unresolved.empty()) continue;
    std::vector<size_t> still_unresolved;
    uint64_t batch_index_hits = 0;
    tf::AccessBatch wave(options_.fabric != nullptr
                             ? options_.fabric->config().remote
                             : tf::LatencyParams{});
    const bool have_gen = peer->regions.gen_reader.has_value();
    // One epoch sample covers the sweep: it precedes every probe, and a
    // restart between sample and probe bumps the epoch the client
    // re-checks after its copy.
    const uint64_t epoch =
        have_gen ? peer->regions.gen_reader->Epoch(&wave) : 0;
    for (size_t i : unresolved) {
      // Generation sample BEFORE the index probe. Writers withdraw the
      // index entry first and bump second, so an index hit proves the
      // bump of any overlapping destructive transition lands after this
      // sample — the reader's post-copy re-check then catches it.
      // Sampling after the probe would let a transition slip between
      // probe and sample and stamp a fresh generation onto a dead
      // offset.
      uint64_t gen = 0;
      uint64_t slot = 0;
      if (have_gen) {
        slot = peer->regions.gen_reader->SlotFor(ids[i]);
        gen = peer->regions.gen_reader->Read(slot, &wave);
      }
      auto indexed = peer->regions.index_reader->Lookup(ids[i], &wave);
      if (!indexed.has_value()) {
        still_unresolved.push_back(i);
        continue;
      }
      plasma::RemoteObjectLocation loc;
      loc.home_node = peer->node_id;
      loc.home_region = peer->pool_region;
      loc.offset = indexed->offset;
      loc.data_size = indexed->data_size;
      loc.metadata_size = indexed->metadata_size;
      if (have_gen) {
        loc.generation = gen;
        loc.gen_slot = slot;
        loc.gen_region = peer->regions.gen_region;
        loc.gen_epoch = epoch;
      }
      out[i] = loc;
      // Only stamped locations are cached: an unstamped one could not
      // be re-validated on a later hit.
      if (cache_ != nullptr && have_gen) cache_->Put(ids[i], loc);
      ++batch_index_hits;
    }
    if (batch_index_hits > 0) {
      // One stats update per batch, not one lock round trip per hit.
      MutexLock lock(mutex_);
      stats_.index_hits += batch_index_hits;
    }
    unresolved.swap(still_unresolved);
  }

  // 3. Batched Plasma.Lookup RPC per ranked peer until everything
  // unresolved has been asked everywhere (the paper's sync unary gRPC
  // path), with hedged reads layered on: each wave fires the batch at
  // the best not-yet-asked peer, and when that primary stays quiet past
  // its EWMA-derived hedge delay the same batch goes to the next-ranked
  // peer too (global hedge budget permitting) — first success wins, and
  // a peer consumed as a hedge is not asked again. A wave whose every
  // attempt failed falls through to the next peer, so under a partition
  // the answer comes from whichever copies are reachable; when none are,
  // the loop terminates (every attempt is deadline/timeout-bounded) with
  // the unresolved entries nullopt instead of blocking the shard thread.
  size_t next_peer = 0;
  while (!unresolved.empty() && next_peer < peers.size()) {
    if (deadline.expired()) break;
    auto request = std::make_shared<LookupRequest>();
    request->ids.reserve(unresolved.size());
    for (size_t i : unresolved) request->ids.push_back(ids[i]);

    auto wave = std::make_shared<LookupWave>();
    const int64_t hedge_at_ns =
        MonotonicNanos() + HedgeDelayNs(peers[next_peer]);
    LaunchLookupAttempt(peers[next_peer], request, deadline, wave,
                        /*is_hedge=*/false);
    ++next_peer;

    bool hedge_fired = false;
    std::optional<LookupReply> winning;
    bool win_was_hedge = false;
    while (!deadline.expired()) {
      bool want_hedge = false;
      {
        MutexLock lock(wave->m);
        // First success WITH a hit wins immediately. An ok-but-all-miss
        // reply is not a win while attempts are still in flight: the
        // slow attempt may be the one peer that actually holds the
        // object (hedging a single-copy object pairs its holder with a
        // fast not-found peer), so concluding on the miss would make
        // the object unreachable for exactly as long as its holder is
        // gray. Misses only win once every launched attempt reported.
        for (auto& outcome : wave->outcomes) {
          if (!outcome.reply.ok()) continue;
          const auto& entries = outcome.reply.value().entries;
          const bool any_found =
              std::any_of(entries.begin(), entries.end(),
                          [](const auto& e) { return e.found; });
          if (any_found) {
            win_was_hedge = outcome.is_hedge;
            winning.emplace(std::move(outcome.reply).value());
            break;
          }
        }
        if (!winning.has_value() &&
            wave->outcomes.size() >= wave->launched) {
          // Every attempt reported; settle for an all-miss success (the
          // ids move on to the next peer) or give up the wave entirely
          // (all attempts failed).
          for (auto& outcome : wave->outcomes) {
            if (outcome.reply.ok()) {
              win_was_hedge = outcome.is_hedge;
              winning.emplace(std::move(outcome.reply).value());
              break;
            }
          }
          break;
        }
        if (winning.has_value()) break;
        const int64_t now = MonotonicNanos();
        const bool may_hedge = options_.enable_hedged_reads &&
                               !hedge_fired && next_peer < peers.size();
        if (may_hedge && now >= hedge_at_ns) {
          want_hedge = true;
        } else {
          // Wait for an outcome — until the hedge trigger if one is
          // still pending, never past the op budget, and in bounded
          // slices when the budget is unbounded (the attempts
          // themselves are rpc_timeout-bounded, so this always wakes).
          int64_t wait_ns =
              deadline.infinite()
                  ? std::max<int64_t>(
                        static_cast<int64_t>(options_.rpc_timeout_ms), 1) *
                        1'000'000
                  : deadline.remaining_ns();
          if (may_hedge) wait_ns = std::min(wait_ns, hedge_at_ns - now);
          const size_t completed = wave->outcomes.size();
          wave->cv.WaitFor(wave->m, std::chrono::nanoseconds(wait_ns),
                           [&]() {
                             wave->m.AssertHeld();
                             return wave->outcomes.size() > completed;
                           });
          continue;
        }
      }
      if (want_hedge) {
        hedge_fired = true;
        if (hedge_inflight_.fetch_add(1) + 1 >
            options_.hedge_max_inflight) {
          hedge_inflight_.fetch_sub(1);
          MutexLock lock(mutex_);
          ++stats_.hedge_budget_denied;
          continue;  // keep waiting the primary out
        }
        {
          MutexLock lock(mutex_);
          ++stats_.hedged_reads;
        }
        LaunchLookupAttempt(peers[next_peer], request, deadline, wave,
                            /*is_hedge=*/true);
        ++next_peer;
      }
    }

    if (!winning.has_value()) continue;  // wave failed; try the next peer
    if (win_was_hedge) {
      MutexLock lock(mutex_);
      ++stats_.hedge_wins;
    }
    std::vector<size_t> still_unresolved;
    for (size_t k = 0; k < unresolved.size(); ++k) {
      size_t i = unresolved[k];
      if (k < winning->entries.size() && winning->entries[k].found) {
        out[i] = winning->entries[k].location;
        if (cache_ != nullptr && out[i]->gen_region != UINT32_MAX) {
          cache_->Put(ids[i], *out[i]);
        }
      } else {
        still_unresolved.push_back(i);
      }
    }
    unresolved.swap(still_unresolved);
  }
  if (!unresolved.empty() && deadline.expired()) {
    // Gave up with ids unresolved because the budget ran out — whether
    // it died before the first wave or inside the last one.
    MutexLock lock(mutex_);
    ++stats_.deadline_exhausted;
  }
  return out;
}

bool RemoteStoreRegistry::IdKnownRemotely(const ObjectId& id,
                                          Deadline deadline) {
  ProbeRequest request;
  request.id = id;
  for (const auto& peer : SnapshotLivePeers()) {
    if (deadline.expired()) {
      // Out of budget with peers unasked: report unknown — Create-side
      // uniqueness probing degrades to best-effort rather than stalling
      // the client past its deadline.
      MutexLock lock(mutex_);
      ++stats_.deadline_exhausted;
      break;
    }
    {
      MutexLock lock(mutex_);
      ++stats_.probe_rpcs;
    }
    auto reply = PeerCall<ProbeReply>(peer, kMethodProbe, request, deadline);
    if (!reply.ok()) {
      RecordPeerResult(peer, !IsConnectivityError(reply.status()));
      continue;
    }
    RecordPeerResult(peer, true);
    if (reply->exists) return true;
  }
  return false;
}

Status RemoteStoreRegistry::PinRemote(
    const ObjectId& id, const plasma::RemoteObjectLocation& loc,
    Deadline deadline) {
  if (deadline.expired()) {
    // The location may be perfectly valid — do not invalidate, just
    // refuse to start an RPC there is no budget left for.
    {
      MutexLock lock(mutex_);
      ++stats_.deadline_exhausted;
    }
    return Status::DeadlineExceeded(
        "pin: deadline exhausted before the RPC");
  }
  auto peer = FindLivePeer(loc.home_node);
  if (peer == nullptr) {
    // Unknown or dead home: the location is unusable; make sure it never
    // serves another Get from the cache.
    if (cache_ != nullptr) cache_->Invalidate(id);
    return Status::Unavailable("pin: peer node " +
                               std::to_string(loc.home_node) +
                               " is unavailable");
  }
  PinRequest request;
  request.id = id;
  request.peer_node = self_node_;
  {
    MutexLock lock(mutex_);
    ++stats_.pin_rpcs;
  }
  const int64_t rpc_start = MonotonicNanos();
  auto reply = PeerCall<PinReply>(peer, kMethodPin, request, deadline);
  Status status =
      reply.ok() ? reply->status : reply.status();
  RecordPeerResult(peer, !IsConnectivityError(status));
  if (reply.ok()) RecordPeerLatency(peer, MonotonicNanos() - rpc_start);
  if (!status.ok()) {
    // Either the peer is unreachable or it no longer has the object
    // (deleted or evicted after the lookup). Both ways
    // the location must not be served again: invalidate and let the
    // caller re-run the full lookup path.
    if (cache_ != nullptr) cache_->Invalidate(id);
    MutexLock lock(mutex_);
    if (status.Is(StatusCode::kDeadlineExceeded)) {
      // The RPC itself burned the remaining budget (the expired-upfront
      // case is counted above).
      ++stats_.deadline_exhausted;
    }
    ++stats_.stale_pins_detected;
    return status;
  }
  usage_.RecordPin(id, loc);
  return Status::OK();
}

void RemoteStoreRegistry::UnpinRemote(
    const ObjectId& id, const plasma::RemoteObjectLocation& loc) {
  // Only unpin what we recorded: a pin whose RPC failed (or that targeted
  // a dead peer) has no remote state to release.
  if (!usage_.RecordUnpin(id)) return;
  auto peer = FindLivePeer(loc.home_node);
  if (peer == nullptr) return;  // no remote state left to release
  UnpinRequest request;
  request.id = id;
  request.peer_node = self_node_;
  {
    MutexLock lock(mutex_);
    ++stats_.pin_rpcs;
  }
  auto reply = peer->channel->CallTyped<UnpinReply>(
      kMethodUnpin, request, options_.rpc_timeout_ms);
  Status status = reply.ok() ? reply->status : reply.status();
  if (IsConnectivityError(status)) {
    // The unpin never reached the peer: re-record it so the pin is not
    // leaked — ReleaseAllPins (or a later unpin) retries. Application
    // errors (KeyError) mean the remote side already forgot the pin;
    // nothing to re-record. Re-record BEFORE feeding the failure to the
    // health machine: if this failure is the one that declares the peer
    // dead, DropPinsForNode must see (and drop) this pin too.
    usage_.RecordPin(id, loc);
  }
  RecordPeerResult(peer, !IsConnectivityError(status));
}

void RemoteStoreRegistry::NotifyDeleted(const ObjectId& id) {
  // Peers need no message: the delete bumped this store's generation
  // table, which fails their cached copies of the location on next use.
  if (cache_ != nullptr) cache_->Invalidate(id);
}

std::vector<plasma::PeerStatsEntry> RemoteStoreRegistry::PeerHealth() {
  auto peers = SnapshotPeers();
  std::vector<plasma::PeerStatsEntry> out;
  out.reserve(peers.size());
  const int64_t now = MonotonicNanos();
  for (const auto& peer : peers) {
    plasma::PeerStatsEntry entry;
    // Channel stats have their own lock and never block behind an
    // in-flight call.
    auto channel_stats = peer->channel->stats();
    MutexLock lock(mutex_);
    entry.node_id = peer->node_id;
    entry.state = static_cast<uint8_t>(peer->state);
    entry.failure_streak = peer->failure_streak;
    entry.failed_rpcs = peer->failed_rpcs;
    entry.reconnects = channel_stats.reconnects;
    entry.heartbeats = peer->heartbeats;
    entry.ms_since_ok =
        peer->last_ok_ns > 0 ? (now - peer->last_ok_ns) / 1000000 : -1;
    entry.ewma_latency_us =
        peer->ewma_latency_ns > 0 ? peer->ewma_latency_ns / 1000 : -1;
    out.push_back(entry);
  }
  return out;
}

uint64_t RemoteStoreRegistry::GenerationRetries() {
  MutexLock lock(mutex_);
  return stats_.generation_retries;
}

plasma::DistHooks::RobustnessCounters
RemoteStoreRegistry::GetRobustnessCounters() {
  MutexLock lock(mutex_);
  plasma::DistHooks::RobustnessCounters counters;
  counters.deadline_exhausted = stats_.deadline_exhausted;
  counters.hedged_reads = stats_.hedged_reads;
  counters.hedge_wins = stats_.hedge_wins;
  counters.hedge_budget_denied = stats_.hedge_budget_denied;
  return counters;
}

std::vector<uint32_t> RemoteStoreRegistry::ReplicateObject(
    const ObjectId& id, const uint8_t* bytes, uint64_t data_size,
    uint64_t metadata_size, uint32_t copies_wanted,
    const std::vector<uint32_t>& exclude, uint32_t origin,
    uint32_t desired) {
  std::vector<uint32_t> accepted;
  if (copies_wanted == 0) return accepted;
  auto candidates = SnapshotRankedPeers();
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [&](const std::shared_ptr<Peer>& peer) {
                       return std::find(exclude.begin(), exclude.end(),
                                        peer->node_id) != exclude.end();
                     }),
      candidates.end());

  ReplicateRequest request;
  request.id = id;
  request.from_node = self_node_;
  request.origin_node = origin;
  request.desired_copies = desired;
  request.data_size = data_size;
  request.metadata_size = metadata_size;
  request.payload.assign(reinterpret_cast<const char*>(bytes),
                         data_size + metadata_size);
  for (const auto& peer : candidates) {
    if (accepted.size() >= copies_wanted) break;
    // Each push carries the full copy set as believed at send time:
    // current holders, acceptors so far, and this target. A later
    // target's record is therefore a superset of an earlier one's —
    // worst case two survivors both elect themselves healer after a
    // death and push duplicate copies, which AcceptReplica absorbs
    // idempotently.
    request.copy_nodes = exclude;
    for (uint32_t node : accepted) request.copy_nodes.push_back(node);
    request.copy_nodes.push_back(peer->node_id);
    {
      MutexLock lock(mutex_);
      ++stats_.replicate_rpcs;
    }
    const int64_t rpc_start = MonotonicNanos();
    auto reply = peer->channel->CallTyped<ReplicateReply>(
        kMethodReplicate, request, options_.rpc_timeout_ms);
    Status status = reply.ok() ? reply->status : reply.status();
    RecordPeerResult(peer, !IsConnectivityError(status));
    if (status.ok()) {
      RecordPeerLatency(peer, MonotonicNanos() - rpc_start);
      accepted.push_back(peer->node_id);
    }
    // Application-level rejections (the id is mid-create there, the peer
    // is out of memory) just move on to the next ranked candidate.
  }
  return accepted;
}

void RemoteStoreRegistry::DropReplicas(
    const ObjectId& id, const std::vector<uint32_t>& holders) {
  ReplicaDropRequest request;
  request.id = id;
  request.from_node = self_node_;
  for (uint32_t node : holders) {
    auto peer = FindLivePeer(node);
    if (peer == nullptr) continue;  // dead: its copy died with it
    {
      MutexLock lock(mutex_);
      ++stats_.replicate_rpcs;
    }
    auto reply = peer->channel->CallTyped<ReplicaDropReply>(
        kMethodReplicaDrop, request, options_.rpc_timeout_ms);
    Status status = reply.ok() ? reply->status : reply.status();
    // Fire-and-forget: a holder that rejects (already dropped, or the id
    // was re-created there) needs nothing further; a holder we cannot
    // reach feeds the health machine and its copy is reclaimed by the
    // death path.
    RecordPeerResult(peer, !IsConnectivityError(status));
  }
}

void RemoteStoreRegistry::ReleaseAllPins() {
  for (const auto& pin : usage_.Snapshot()) {
    for (uint32_t i = 0; i < pin.count; ++i) {
      UnpinRemote(pin.id, pin.location);
    }
  }
}

void RemoteStoreRegistry::StartHealthMonitor() {
  if (options_.heartbeat_interval_ms == 0) return;
  MutexLock lock(heartbeat_mutex_);
  if (heartbeat_running_) return;
  heartbeat_running_ = true;
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
}

void RemoteStoreRegistry::StopHealthMonitor() {
  // Claim the thread handle under the lock (concurrent Stops can't
  // double-join), but never join while holding heartbeat_mutex_ — the
  // loop re-acquires it between rounds.
  std::thread to_join;
  {
    MutexLock lock(heartbeat_mutex_);
    heartbeat_running_ = false;
    to_join = std::move(heartbeat_thread_);
  }
  heartbeat_cv_.NotifyAll();
  if (to_join.joinable()) to_join.join();
}

void RemoteStoreRegistry::HeartbeatLoop() {
  heartbeat_mutex_.Lock();
  while (heartbeat_running_) {
    heartbeat_cv_.WaitFor(
        heartbeat_mutex_,
        std::chrono::milliseconds(options_.heartbeat_interval_ms),
        [this] {
          heartbeat_mutex_.AssertHeld();  // predicate runs under the wait
          return !heartbeat_running_;
        });
    if (!heartbeat_running_) break;
    heartbeat_mutex_.Unlock();
    PingAllPeers();
    heartbeat_mutex_.Lock();
  }
  heartbeat_mutex_.Unlock();
}

void RemoteStoreRegistry::PingAllPeers() {
  PingRequest request;
  request.from_node = self_node_;
  // Every peer, dead ones included: the heartbeat is how a restarted
  // peer is noticed (the channel redials under its backoff policy, so a
  // still-dead peer costs at most one cheap dial attempt per round).
  for (const auto& peer : SnapshotPeers()) {
    {
      MutexLock lock(mutex_);
      ++peer->heartbeats;
      ++stats_.heartbeats;
    }
    auto reply = peer->channel->CallTyped<PingReply>(
        kMethodPing, request, options_.ping_timeout_ms);
    bool ok = reply.ok() && reply->node_id == peer->node_id;
    if (reply.ok() && reply->node_id != peer->node_id) {
      MDOS_LOG_WARN << "node " << self_node_ << ": peer port answered as "
                    << reply->node_id << ", expected " << peer->node_id;
    }
    if (!reply.ok() && !IsConnectivityError(reply.status())) {
      // An RPC-level rejection (e.g. an old peer without Plasma.Ping)
      // still proves liveness.
      ok = true;
    }
    if (ok && peer_state(peer->node_id) == PeerState::kDead) {
      // Death dropped the peer's regions; it is re-admitted only once
      // they are attached again.
      Status reattached = ReattachPeer(peer);
      if (!reattached.ok()) {
        MDOS_LOG_WARN << "node " << self_node_ << ": peer "
                      << peer->node_id
                      << " answers but its Hello failed: " << reattached;
        ok = false;
      }
    }
    RecordPeerResult(peer, ok);
  }
}

Status RemoteStoreRegistry::ReattachPeer(const std::shared_ptr<Peer>& peer) {
  HelloRequest request;
  request.node_id = self_node_;
  MDOS_ASSIGN_OR_RETURN(
      HelloReply reply,
      peer->channel->CallTyped<HelloReply>(kMethodHello, request,
                                           options_.rpc_timeout_ms));
  if (reply.node_id != peer->node_id) {
    return Status::Invalid("peer port answered as node " +
                           std::to_string(reply.node_id));
  }
  PeerRegions regions = AttachRegions(reply);
  MutexLock lock(mutex_);
  peer->regions = std::move(regions);
  return Status::OK();
}

}  // namespace mdos::dist
