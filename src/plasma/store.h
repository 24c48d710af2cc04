// Store — the memory-disaggregated Plasma object store (paper §IV),
// rearchitected as a sharded, multi-threaded core.
//
// One Store runs per node. Local clients connect over a Unix domain
// socket; object buffers are carved out of the node's disaggregated
// memory pool by the paper's first-fit ordered-map allocator, so remote
// nodes can consume them by direct fabric loads instead of copying data
// over the LAN. Stores are interconnected through the dist layer
// (gRPC-equivalent unary sync RPC): on a client Get for an unknown id,
// the store looks the id up in its peers and, on a hit, hands the client
// a buffer that points into the remote node's disaggregated memory; on
// Create it probes peers to guarantee system-wide identifier uniqueness.
//
// Threading (sharded design — supersedes the paper's single store
// thread + single mutex):
//
//   * A dedicated ACCEPT thread owns the listening socket. It hands each
//     new connection to a shard round-robin and survives fd exhaustion
//     (EMFILE/ENFILE) by logging and backing off instead of dying.
//   * N SHARD threads (StoreOptions::shards) each drive a Poller event
//     loop over the connections homed on them. Every object id hashes to
//     exactly one OWNER shard, which holds that id's table entry,
//     eviction state, and allocator arena (the pool is carved into
//     per-shard arenas by alloc::ShardedAllocator).
//   * Owner state is guarded by a per-shard mutex, so a handler running
//     on shard A may operate on an id owned by shard B by taking B's
//     lock — cross-shard Creates/Gets/Deletes are synchronous and never
//     hold two shard locks at once (no lock-order cycles).
//   * Work that must execute on a specific shard's event loop — waking
//     parked Gets after a cross-shard Seal, pushing notifications to
//     that shard's subscribers, adopting a freshly accepted connection —
//     travels through a per-shard MAILBOX (Shard::Post) and is drained
//     by the shard thread, so every write to a client socket happens on
//     the connection's home thread and replies still complete out of
//     order via the request-tagged protocol.
//   * The node's RPC server thread calls the thread-safe peer surface
//     (LookupManyForPeer & co.), which routes straight to the owning
//     shard's mutex instead of one global lock.
//   * The shared index writer is serialized by its own index mutex
//     (always acquired after a shard mutex, never before).
//
// Tiered storage (StoreOptions::spill_dir): with a spill directory set,
// eviction demotes sealed, unpinned objects to a per-shard disk segment
// (plasma/spill_file.h) instead of destroying them, and a Get for a
// spilled object transparently promotes it back into the pool —
// re-running eviction for the space if needed — before the reply is
// sent. Clients never observe the tier: the same Get/Contains surface
// answers from memory or disk, only latency (and the spill counters in
// GetStoreStats) differ. Spill files are owner state, accessed under the
// shard mutex like the table and arena; spill writes and restore reads
// therefore serialize that shard's owner operations — the price of
// overcommit, paid only by workloads that exceed the pool.
//
// With shards = 1 (the default) the store is protocol- and
// behaviour-compatible with the original single-threaded design.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/sharded_allocator.h"
#include "common/deadline.h"
#include "common/mutex.h"
#include "common/object_id.h"
#include "common/status.h"
#include "net/fd.h"
#include "net/frame.h"
#include "net/memfd.h"
#include "net/framed_conn.h"
#include "net/poller.h"
#include "net/tx_queue.h"
#include "plasma/eviction.h"
#include "plasma/generation_table.h"
#include "plasma/object_table.h"
#include "plasma/protocol.h"
#include "plasma/shared_index.h"
#include "plasma/spill_file.h"
#include "tf/fabric.h"

namespace mdos::plasma {

enum class AllocatorKind : uint8_t {
  kFirstFit = 0,       // the paper's replacement allocator
  kSegregatedFit = 1,  // dlmalloc-style baseline
};

struct StoreOptions {
  std::string name = "plasma";
  // UDS path for client IPC; empty picks a unique /tmp path.
  std::string socket_path;
  uint64_t capacity = 256ull << 20;
  AllocatorKind allocator = AllocatorKind::kFirstFit;
  // Event-loop shards. Each shard owns its own connections, object
  // table, eviction state, and allocator arena; ids hash to shards.
  // Clamped to [1, 64] and to capacity / ShardedAllocator::kMinArenaBytes.
  // Trade-off of the static arena carving: a single object can be at
  // most capacity/shards bytes, and eviction pressure is per-arena (a
  // hash-hot shard evicts while cold arenas sit idle) — size shards to
  // the workload's largest object and core count.
  uint32_t shards = 1;
  // Explicit accept backlog for the listening socket.
  int accept_backlog = 128;
  // Egress backpressure cap: a client that stops draining its socket has
  // its replies queued in memory (the non-blocking write queue) up to
  // this many bytes; past it the store sheds the client instead of
  // buffering without bound.
  uint64_t max_egress_queue_bytes = 64ull << 20;
  // Disk spill tier. Empty (the default) disables it: eviction destroys
  // victims as before. When set, each shard keeps an append-only segment
  // file `<spill_dir>/<name>.shard<i>.spill`; eviction writes victims
  // there and Get restores them on demand, so working sets larger than
  // `capacity` complete instead of failing with kOutOfMemory. The
  // directory is created if missing; files are deleted on Stop (the
  // spill tier is an extension of the in-memory pool, not a persistence
  // layer across store restarts).
  std::string spill_dir;
  // Probe peers on Create so ids are unique system-wide (§IV-A2).
  bool check_global_uniqueness = true;
  // Mapped data plane (zero-RPC remote reads): serve remote sealed Gets
  // as (node, region, offset, size, generation) descriptors. Clients copy
  // the payload straight from the mapped region and re-check the
  // generation; a mismatch (evicted / spilled / deleted mid-read) makes
  // the client reissue the Get for a fresh descriptor. Takes effect for
  // locations stamped by a home store with a generation table. Off
  // reproduces the paper's plain lookup-then-load path: the location is
  // handed out unvalidated, and nothing protects a read racing eviction.
  bool mapped_remote_reads = true;
  // k-way replication: every sealed object is fanned out to
  // (replication_factor - 1) replica peers over the dist layer, and the
  // re-heal driver restores the copy count when a peer holding one dies.
  // 1 (the default) disables store-wide replication; clients can still
  // request it per object (CreateRequest::replicate, which makes the
  // effective count max(replication_factor, 2)). Replicated objects may
  // be spilled but are never destructively evicted — a copy another node
  // relies on must not silently vanish.
  uint32_t replication_factor = 1;
};

// Location of a remote object as exchanged between stores.
struct RemoteObjectLocation {
  uint32_t home_node = 0;
  uint32_t home_region = 0;  // fabric RegionId of the home store's pool
  uint64_t offset = 0;       // region-relative offset of the data section
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  // Mapped data plane: the generation stamped on this descriptor and the
  // slot/region/epoch to validate it against (generation_table.h).
  // gen_region == UINT32_MAX means the home store published no
  // generation table and the location is a plain, unvalidated one.
  uint64_t generation = 0;
  uint64_t gen_slot = 0;
  uint32_t gen_region = UINT32_MAX;
  uint64_t gen_epoch = 0;
};

// Interface to the distributed layer; implemented by
// dist::RemoteStoreRegistry. All calls may block on RPC (the paper's
// synchronous gRPC mode). With the sharded core, calls may arrive
// concurrently from several shard threads — implementations must be
// thread-safe (RemoteStoreRegistry is: peer list, cache, and stats are
// mutex-guarded and channels internally synchronized).
class DistHooks {
 public:
  virtual ~DistHooks() = default;

  // Looks up each id in the peer stores; entry i is nullopt when id i is
  // unknown everywhere. `deadline` is the remaining end-to-end budget of
  // the client operation that triggered the lookup: implementations
  // must not outlive it (clamp every per-peer RPC to the remaining
  // budget, skip the RPC entirely once it has expired).
  virtual std::vector<std::optional<RemoteObjectLocation>> LookupRemote(
      const std::vector<ObjectId>& ids, Deadline deadline) = 0;

  // True when any peer store already knows `id` (uniqueness probe).
  [[nodiscard]] virtual bool IdKnownRemotely(const ObjectId& id,
                                             Deadline deadline) = 0;

  // This store dropped `id`: forget any cached remote location for it.
  // Peers need no message — the delete bumped the generation table
  // their cached locations are validated against.
  virtual void NotifyDeleted(const ObjectId& id) = 0;

  // Peer failure handling: per-peer health rows for observability
  // (kPeerStatsRequest). Default: no peers.
  virtual std::vector<PeerStatsEntry> PeerHealth() { return {}; }

  // Mapped data plane: cumulative cached-lookup invalidations caused by
  // a generation mismatch (the dist layer re-validated a cached
  // descriptor against the peer's generation table and lost). Folded
  // into StoreStats::generation_retries.
  virtual uint64_t GenerationRetries() { return 0; }

  // Gray-failure counters folded into StoreStats: operations that
  // exhausted their deadline budget in the dist layer, and the hedged
  // replica-read machinery's outcomes. Default: none.
  struct RobustnessCounters {
    uint64_t deadline_exhausted = 0;
    uint64_t hedged_reads = 0;
    uint64_t hedge_wins = 0;
    uint64_t hedge_budget_denied = 0;
  };
  virtual RobustnessCounters GetRobustnessCounters() { return {}; }

  // k-way replication: push `id`'s bytes (data section then metadata,
  // data_size + metadata_size bytes at `bytes`) to up to `copies_wanted`
  // live peers not in `exclude` (nodes already holding a copy). Returns
  // the node ids that accepted. `origin`/`desired` travel with the copy
  // so every holder records the same replication state. Blocking (RPC
  // per target) — never call under a shard mutex. Default: no peers.
  virtual std::vector<uint32_t> ReplicateObject(
      const ObjectId& id, const uint8_t* bytes, uint64_t data_size,
      uint64_t metadata_size, uint32_t copies_wanted,
      const std::vector<uint32_t>& exclude, uint32_t origin,
      uint32_t desired) {
    (void)id; (void)bytes; (void)data_size; (void)metadata_size;
    (void)copies_wanted; (void)exclude; (void)origin; (void)desired;
    return {};
  }

  // The origin deleted `id`: tell every holder to drop its replica.
  virtual void DropReplicas(const ObjectId& id,
                            const std::vector<uint32_t>& holders) {
    (void)id; (void)holders;
  }
};

class Store {
 public:
  // Standalone store: owns a private memfd pool (no fabric, no peers).
  static Result<std::unique_ptr<Store>> Create(StoreOptions options);

  // Fabric-backed store: the pool is the window of `node`'s slab that was
  // exported as `pool_region` (offsets within the region and within the
  // pool coincide; the cluster layer guarantees this).
  static Result<std::unique_ptr<Store>> CreateOnFabric(
      StoreOptions options, tf::Fabric* fabric, tf::NodeId node,
      tf::RegionId pool_region);

  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // Binds the socket and starts the accept + shard threads.
  Status Start();
  // Stops every thread and closes all client connections. Idempotent.
  void Stop();

  // Wiring (before Start): distributed hooks. They may be called from
  // any shard thread concurrently and must be thread-safe.
  void SetDistHooks(DistHooks* hooks) { dist_hooks_ = hooks; }

  // Shared-index extension (paper §V-B): when set, sealed objects are
  // published into `writer` (a table in disaggregated memory that remote
  // stores read directly) and withdrawn on delete/eviction. Writes from
  // all shards are serialized by the store's index mutex (the index
  // format is single-writer). `index_region` is the fabric region peers
  // should attach; it travels in the Hello handshake.
  void SetSharedIndex(SharedIndexWriter* writer, uint32_t index_region) {
    shared_index_ = writer;
    index_region_ = index_region;
  }
  uint32_t index_region() const { return index_region_; }

  // Mapped data plane: when set, every transition that (re)binds or
  // invalidates an object's bytes — seal, destructive evict, spill,
  // spill-restore re-insert, delete — bumps the id's slot in `table`,
  // and peer-facing lookups stamp descriptors with the current
  // generation. `gen_region` is the fabric region peers attach (travels
  // in the Hello handshake). The table is lock-free (per-slot atomics),
  // so unlike the shared index it needs no store-level serialization;
  // bumps are ordered against index updates by the owning shard's mutex.
  void SetGenerationTable(GenerationTable* table, uint32_t gen_region) {
    gen_table_ = table;
    gen_region_ = gen_region;
  }
  uint32_t gen_region() const { return gen_region_; }

  const std::string& socket_path() const { return socket_path_; }
  const std::string& name() const { return options_.name; }
  uint32_t node_id() const { return node_id_; }
  uint32_t pool_region() const { return pool_region_; }
  uint64_t capacity() const { return options_.capacity; }
  // Effective shard count (after clamping).
  uint32_t shard_count() const;

  // ---- thread-safe surface for the dist service (RPC thread) ----------
  // Each call routes to the owning shard's mutex; no global lock exists.

  // Batched sealed-object lookup on behalf of a peer store: groups ids
  // by owning shard so each shard mutex is taken once per request
  // instead of once per id. Entry i is nullopt when id i is absent or
  // unsealed. Offsets in the reply are pool/region-relative.
  std::vector<std::optional<RemoteObjectLocation>> LookupManyForPeer(
      const std::vector<ObjectId>& ids);

  // True when the id exists in any state (uniqueness probe must also see
  // unsealed creations).
  [[nodiscard]] bool ContainsId(const ObjectId& id);

  // ---- k-way replication (peer surface + re-heal driver) --------------

  // Installs a replica copy pushed by `from_node` (Plasma.Replicate).
  // Allocates (with eviction), copies the payload, seals, and records
  // the replication state. Idempotent: a copy that already exists merges
  // `copy_nodes` into its record and reports success.
  Status AcceptReplica(const ObjectId& id, uint32_t from_node,
                       uint32_t origin_node, uint32_t desired_copies,
                       const std::vector<uint32_t>& copy_nodes,
                       const uint8_t* data, uint64_t data_size,
                       uint64_t metadata_size);

  // Drops the local replica of `id` because its origin `from_node`
  // deleted it (Plasma.ReplicaDrop). Refuses when the local entry is not
  // a replica of `from_node` (the id was re-created locally).
  Status DropReplicaLocal(const ObjectId& id, uint32_t from_node);

  // Peer `dead_node` was declared dead: enqueue a re-heal round. The
  // driver thread strips the corpse from every copy set, elects one
  // surviving holder per under-replicated object (the lowest live node
  // id — deterministic, no coordination), and re-replicates from it
  // (restoring from the spill tier first when needed). Safe from any
  // thread; no-op before Start/after Stop.
  void RequestReheal(uint32_t dead_node);
  // Re-heal rounds still queued or running (0 = converged; test hook).
  uint64_t PendingReheals();

  // Aggregate statistics across shards (includes peer-health totals when
  // dist hooks are wired).
  StoreStats stats();
  // Per-shard statistics (the GetStoreStats protocol message).
  std::vector<ShardStatsEntry> shard_stats();
  // Per-peer health rows from the dist layer; empty without peers.
  std::vector<PeerStatsEntry> peer_stats();

  // Test hook: pool-wide allocator statistics (merged over arenas).
  alloc::AllocatorStats allocator_stats();

 private:
  // One connected client (one Unix socket), homed on exactly one shard.
  // All fields are touched only by the home shard's thread; the struct
  // is held by shared_ptr so a batch in flight survives a mid-batch
  // drop.
  struct ClientConn {
    explicit ClientConn(net::UniqueFd fd) : link(std::move(fd)) {}

    // The socket, its receive scratch (a pipelining client may queue
    // many frames between event-loop passes) and its non-blocking egress
    // queue (replies leave in coalesced gather writes at the end of each
    // pass), driven against the home shard's poller.
    net::FramedConn link;
    std::string name;
    bool handshaken = false;
    bool subscriber = false;  // notification-only connection
    // Queued egress awaiting the end-of-pass flush (in Shard::dirty).
    bool dirty = false;
    // Tx counters already folded into the shard stats (delta tracking).
    net::TxQueueStats reported_tx;
    // Pins of local objects held through this connection: id -> count.
    // (The pinned ids may be owned by any shard.)
    std::unordered_map<ObjectId, uint32_t> local_pins;
    // Remote objects handed out through this connection: id -> count.
    // They hold nothing at the home store; the count only lets Release
    // tell a held remote id from one never handed out.
    std::unordered_map<ObjectId, uint32_t> remote_refs;
  };

  // A Get waiting for objects to be sealed (or for its deadline).
  // Parked in the issuing connection's home shard.
  struct PendingGet {
    int fd = -1;
    uint64_t request_id = kNoRequestId;  // echoed into the reply
    std::vector<ObjectId> order;  // reply preserves request order
    std::unordered_map<ObjectId, GetReplyEntry> ready;
    std::unordered_set<ObjectId> waiting;
    // Ids the local pass could not satisfy; consumed by ResolveGets.
    std::vector<ObjectId> missing;
    uint64_t timeout_ms = 0;
    int64_t deadline_ns = 0;
    // The client's end-to-end budget for this Get (wire header). Bounds
    // the remote lookup issued on its behalf; distinct from timeout_ms,
    // which is the park-for-seal wait the client asked for. Infinite when
    // the client carried no deadline.
    Deadline op_deadline;
  };

  // One event-loop shard: owner of a hash slice of the object space and
  // of the client connections homed on it. See the threading contract
  // above.
  struct Shard {
    // `store_index_mutex` is the store's index_mutex_; the reference
    // exists so the shard-mutex-before-index-mutex nesting order is
    // declared in the annotation below rather than in a comment.
    explicit Shard(Mutex& store_index_mutex)
        : index_mutex(store_index_mutex) {}

    uint32_t index = 0;

    // ---- owner state: any thread, guarded by `mutex` ------------------
    Mutex mutex ACQUIRED_BEFORE(index_mutex);
    ObjectTable table GUARDED_BY(mutex);
    EvictionPolicy eviction GUARDED_BY(mutex);
    // Borrowed from pool_alloc_.
    alloc::Allocator* arena GUARDED_BY(mutex) = nullptr;
    uint64_t eviction_count GUARDED_BY(mutex) = 0;
    // Disk spill tier (engaged when StoreOptions::spill_dir is set): the
    // shard's segment file plus cumulative spill/restore counters.
    std::optional<SpillFile> spill GUARDED_BY(mutex);
    uint64_t spill_count GUARDED_BY(mutex) = 0;
    uint64_t restore_count GUARDED_BY(mutex) = 0;

    // The store's index mutex (see Store::index_mutex_), always
    // acquired after this shard's `mutex` — never before.
    Mutex& index_mutex;

    // ---- event-loop state: shard thread only --------------------------
    net::Poller poller;
    std::unordered_map<int, std::shared_ptr<ClientConn>> clients;
    std::list<PendingGet> pending_gets;
    // Connections with egress queued since the last flush pass.
    std::vector<int> dirty;
    std::thread thread;

    // Egress observability (TxQueueStats deltas folded in by
    // AccumulateTxStats; read by stats()/shard_stats() from any thread).
    std::atomic<uint64_t> tx_frames{0};
    std::atomic<uint64_t> tx_frames_coalesced{0};
    std::atomic<uint64_t> tx_writev_calls{0};
    std::atomic<uint64_t> tx_bytes{0};
    std::atomic<uint64_t> tx_blocked_events{0};

    // Mapped data plane observability (counted on the Get-serving shard;
    // read by stats()/shard_stats() from any thread).
    std::atomic<uint64_t> mapped_reads{0};
    std::atomic<uint64_t> mapped_bytes{0};
    std::atomic<uint64_t> mapped_fallbacks{0};

    // Cross-thread observability (ShardStats) and fan-out gating.
    // parked_gets is pre-announced with seq_cst BEFORE a Get's final
    // local re-check (ResolveGets), which is what lets FanOutSealed skip
    // shards reading 0 without losing wakeups. subscriber_count gates
    // notification fan-out.
    std::atomic<uint64_t> client_count{0};
    std::atomic<uint64_t> parked_gets{0};
    std::atomic<uint64_t> subscriber_count{0};

    // ---- mailbox: tasks that must run on this shard's thread ----------
    Mutex mailbox_mutex;
    std::vector<std::function<void()>> mailbox GUARDED_BY(mailbox_mutex);

    void Post(std::function<void()> task) EXCLUDES(mailbox_mutex) {
      {
        MutexLock lock(mailbox_mutex);
        mailbox.push_back(std::move(task));
      }
      poller.Wakeup();
    }
  };

  Store(StoreOptions options, uint32_t node_id, uint32_t pool_region);

  // Builds the sharded allocator + shard structs once capacity is final.
  void InitShards();
  uint32_t ShardIndexOf(const ObjectId& id) const;
  Shard& OwnerShard(const ObjectId& id);

  // ---- accept thread ---------------------------------------------------
  void AcceptLoop();
  // Drains the (non-blocking) listening socket; EMFILE/ENFILE and
  // friends log + back off instead of killing the loop.
  void AcceptPending();

  // ---- shard event loops -----------------------------------------------
  // MDOS_EVENT_LOOP_CONTEXT functions run on a shard's event-loop
  // thread; mdos-check forbids blocking calls downstream of them (the
  // DistHooks peer-RPC seams carry explicit allow-blocking waivers).
  MDOS_EVENT_LOOP_CONTEXT void ShardLoop(Shard& shard);
  MDOS_EVENT_LOOP_CONTEXT void DrainMailbox(Shard& shard);
  // Drains the connection's socket into its receive scratch, decodes
  // every complete frame as a zero-copy view (net::FramedConn), and
  // processes them as one batch.
  // A pipelining client thus has all of its queued requests serviced in a
  // single pass — with one combined remote lookup for every unknown id
  // across the batch (see ResolveGets) and every reply coalesced into the
  // connection's write queue.
  MDOS_EVENT_LOOP_CONTEXT void OnClientReadable(Shard& shard, int fd);
  // Write-readiness edge for a connection with queued egress residue.
  MDOS_EVENT_LOOP_CONTEXT void OnClientWritable(Shard& shard, int fd);
  MDOS_EVENT_LOOP_CONTEXT void DispatchFrame(
      Shard& shard, ClientConn& conn, const net::FrameView& frame,
      std::vector<PendingGet>* batch_gets);
  void DropClient(Shard& shard, int fd);

  // ---- non-blocking egress ---------------------------------------------
  // Encodes `msg` into a recycled buffer and appends it to the
  // connection's write queue; the frame leaves in the end-of-pass flush,
  // coalesced with every other reply queued on that connection.
  template <typename Message>
  void QueueReply(Shard& shard, ClientConn& conn, MessageType type,
                  uint64_t request_id, const Message& msg);
  void MarkDirty(Shard& shard, ClientConn& conn);
  // Flushes every connection marked dirty since the last pass (one
  // writev per connection in the common case).
  MDOS_EVENT_LOOP_CONTEXT void FlushDirtyConns(Shard& shard);
  // Flushes one connection's queue: EAGAIN arms write interest (and
  // enforces max_egress_queue_bytes), drain disarms it, an error drops
  // the client. Shard thread only.
  MDOS_EVENT_LOOP_CONTEXT void FlushConn(Shard& shard, ClientConn& conn);
  // Blocking flush for the connect handshake (the SCM_RIGHTS fd pass
  // must follow the reply bytes in stream order).
  Status FlushConnBlocking(Shard& shard, ClientConn& conn, int timeout_ms);
  // Folds the connection's cumulative TxQueue counters into the shard's
  // cross-thread egress stats (delta since last fold).
  void AccumulateTxStats(Shard& shard, ClientConn& conn);

  // Message handlers, running on the connection's home shard thread.
  // `home` is that shard; object state is accessed by locking the id's
  // owner shard. Every reply echoes `request_id` so clients can pipeline
  // and match out of order.
  void HandleConnect(Shard& home, ClientConn& conn, uint64_t request_id,
                     std::span<const uint8_t> body);
  // Carries the client's end-to-end deadline: the uniqueness probe is a
  // peer RPC and must not outlive the budget.
  void HandleCreate(Shard& home, ClientConn& conn, uint64_t request_id,
                    std::span<const uint8_t> body, Deadline op_deadline);
  void HandleSeal(Shard& home, ClientConn& conn, uint64_t request_id,
                  std::span<const uint8_t> body);
  void HandleAbort(Shard& home, ClientConn& conn, uint64_t request_id,
                   std::span<const uint8_t> body);
  // Local-table pass only; the remote/missing halves are resolved for the
  // whole batch in ResolveGets.
  void HandleGet(Shard& home, ClientConn& conn, uint64_t request_id,
                 std::span<const uint8_t> body, Deadline op_deadline,
                 std::vector<PendingGet>* batch_gets);
  void HandleRelease(Shard& home, ClientConn& conn, uint64_t request_id,
                     std::span<const uint8_t> body);
  void HandleContains(Shard& home, ClientConn& conn, uint64_t request_id,
                      std::span<const uint8_t> body);
  void HandleDelete(Shard& home, ClientConn& conn, uint64_t request_id,
                    std::span<const uint8_t> body);
  // Fans out over every shard's table (scan).
  void HandleList(Shard& home, ClientConn& conn, uint64_t request_id);
  void HandleStats(Shard& home, ClientConn& conn, uint64_t request_id);
  void HandleShardStats(Shard& home, ClientConn& conn,
                        uint64_t request_id);
  void HandlePeerStats(Shard& home, ClientConn& conn,
                       uint64_t request_id);
  void HandleSubscribe(Shard& home, ClientConn& conn, uint64_t request_id,
                       std::span<const uint8_t> body);

  // Cross-shard fan-out through the mailboxes: `origin` (may be null for
  // non-shard callers) runs its part inline, every other shard gets a
  // posted task.
  void FanOutSealed(Shard* origin, const ObjectId& id);
  void FanOutNotification(Shard* origin, const Notification& notice);
  // Pushes a notification to this shard's subscriber connections (shard
  // thread only).
  void DeliverNotification(Shard& shard, const Notification& notice);

  // Replication fan-out after a local Seal: when the entry wants more
  // than one copy and dist hooks are wired, snapshots the bytes under
  // the owner mutex, pushes them to registry-chosen peers OUTSIDE any
  // lock, and merges the accepting peers into the entry's copy set.
  // Called from the seal path (after the client reply is queued) and
  // from the re-heal driver.
  void ReplicateSealed(Shard& owner, const ObjectId& id);

  // Completes a batch of local-pass Gets: one DistHooks::LookupRemote for
  // the union of unknown ids, then replies or parks each get on its
  // deadline (in the home shard's pending list).
  void ResolveGets(Shard& home, ClientConn& conn,
                   std::vector<PendingGet>& gets);
  // One deduplicated LookupRemote for `ids`, bounded by `deadline`;
  // empty map without hooks.
  std::unordered_map<ObjectId, RemoteObjectLocation> BatchedRemoteLookup(
      const std::vector<ObjectId>& ids, bool count_lookups,
      Deadline deadline);
  // Applies one resolved remote location to a pending get (reply entry
  // and per-connection ref count). `home` is the Get-serving shard
  // (mapped-read counters accumulate there). `count_hit` must match
  // whether the look-up that produced `loc` was counted in stats. With
  // the mapped data plane on and a generation-stamped location, the
  // object goes out as a validated descriptor; otherwise as the paper's
  // plain lookup-then-load location. Never blocks and never fails.
  void AdoptRemoteObject(Shard& home, ClientConn& conn, PendingGet& pending,
                         const ObjectId& id, const RemoteObjectLocation& loc,
                         bool count_hit);

  // Allocates space from the owner shard's arena, evicting its LRU
  // unpinned objects if needed — to the shard's spill file when the
  // spill tier is enabled, destructively otherwise (or when the spill
  // write fails).
  // Mapped data plane write side: bumps `id`'s generation slot if a
  // table is wired (no-op otherwise). Call under the id's owner shard
  // mutex, and BEFORE the object's pool bytes are freed or rebound — a
  // fabric reader that copied bytes the transition invalidated must
  // observe the bump when it re-checks the generation after the copy.
  void BumpGeneration(const ObjectId& id);

  Result<alloc::Allocation> AllocateWithEviction(Shard& owner,
                                                 uint64_t size)
      REQUIRES(owner.mutex);
  [[nodiscard]] bool IsEvictable(const Shard& owner, const ObjectId& id) const
      REQUIRES(owner.mutex);

  // Promotes a spilled object back into the pool (allocating with
  // eviction, verifying the record CRC) and returns the now-sealed
  // entry. An unreadable record drops the object and returns the read
  // error.
  Result<ObjectEntry> RestoreSpilled(Shard& owner, const ObjectId& id)
      REQUIRES(owner.mutex);
  // Compacts the shard's spill file when its freed capacity crosses the
  // threshold, rewriting spilled entries' file offsets.
  void MaybeCompactSpill(Shard& owner) REQUIRES(owner.mutex);

  // Resolves one id against its owner shard for a local Get: a hit pins
  // and returns an entry; unknown ids return nullopt (caller consults
  // the dist layer). Takes the owner shard's mutex.
  std::optional<GetReplyEntry> TryLocalGet(ClientConn& conn,
                                           const ObjectId& id);

  // Completes this shard's pending gets waiting on `id` after it was
  // sealed (shard thread only).
  void ServePendingGetsFor(Shard& shard, const ObjectId& id);
  // Replies to this shard's expired pending gets; returns ms until the
  // next deadline (or -1 when none pending).
  int FlushExpiredPendingGets(Shard& shard);
  void ReplyPendingGet(Shard& shard, PendingGet& pending);

  StoreOptions options_;
  std::string socket_path_;
  uint32_t node_id_ = 0;
  uint32_t pool_region_ = UINT32_MAX;

  // Pool memory: standalone stores own `own_pool_`; fabric stores borrow
  // the node slab window. `pool_base_` points at offset 0 of the pool.
  std::optional<net::MemfdSegment> own_pool_;
  tf::Fabric* fabric_ = nullptr;
  tf::NodeMemory* fabric_node_ = nullptr;
  uint64_t pool_slab_offset_ = 0;
  uint8_t* pool_base_ = nullptr;
  int pool_fd_ = -1;

  // The pool carved into per-shard arenas; shards_[i] borrows arena i.
  std::unique_ptr<alloc::ShardedAllocator> pool_alloc_;
  std::vector<std::unique_ptr<Shard>> shards_;

  DistHooks* dist_hooks_ = nullptr;
  // Shared-index writer; serialized across shards by index_mutex_. The
  // lock order (shard mutex first, index mutex second) is declared on
  // Shard::mutex via ACQUIRED_BEFORE. The pointer itself is written
  // once before Start (SetSharedIndex) and read without the lock; every
  // dereference happens under index_mutex_ (PT_GUARDED_BY).
  Mutex index_mutex_;
  SharedIndexWriter* shared_index_ PT_GUARDED_BY(index_mutex_) = nullptr;
  uint32_t index_region_ = UINT32_MAX;

  // Generation table (mapped data plane). Written once before Start
  // (SetGenerationTable); the table itself is lock-free — Bump() is a
  // per-slot atomic fetch_add — so no mutex guards the dereference.
  // Ordering against index withdrawal/publication comes from the owning
  // shard's mutex at every bump site.
  GenerationTable* gen_table_ = nullptr;
  uint32_t gen_region_ = UINT32_MAX;

  // Store-wide remote-lookup counters (updated from any shard thread).
  std::atomic<uint64_t> remote_lookups_{0};
  std::atomic<uint64_t> remote_lookup_hits_{0};

  // ---- re-heal driver (k-way replication) ------------------------------
  // One worker thread drains dead-node ids queued by RequestReheal; the
  // replicate RPCs it issues must never run on the RPC server thread
  // that delivered the death (deadlock: that thread serves our peers).
  void RehealLoop();
  // One round: scan every shard for objects that held a copy on `dead`,
  // strip the corpse, and re-replicate what fell below its desired
  // count (this node acting only where it is the elected healer).
  void RehealForDeadNode(uint32_t dead);
  // Idle-time pass of the re-heal worker: re-pushes any object still
  // below its desired copy count. A re-heal round whose pushes failed
  // (target partitioned, peer flapping) leaves objects degraded with
  // no dead node left in their copy sets to re-trigger on — this
  // sweep is how they converge once the network heals. Returns the
  // number of copies pushed (0 = no progress, caller backs off).
  uint64_t RehealSweep();

  // Queue bound: a flood of death reports (flapping detector, chaos)
  // queues at most this many distinct nodes; the rest are dropped and
  // re-reported by a later health round. Far above any realistic
  // cluster size, so genuine deaths are never dropped.
  static constexpr size_t kMaxRehealQueue = 128;

  std::thread reheal_thread_;
  Mutex reheal_mutex_;
  CondVar reheal_cv_;
  std::vector<uint32_t> reheal_queue_ GUARDED_BY(reheal_mutex_);
  // Queued + in-flight rounds (PendingReheals test hook).
  uint64_t reheal_inflight_ GUARDED_BY(reheal_mutex_) = 0;
  bool reheal_running_ GUARDED_BY(reheal_mutex_) = false;

  // Re-heal progress counters (StoreStats::reheal_*).
  std::atomic<uint64_t> reheal_copies_{0};
  std::atomic<uint64_t> reheal_bytes_{0};
  std::atomic<uint64_t> reheal_deduped_{0};
  std::atomic<uint64_t> reheal_dropped_{0};

  // Accept thread state.
  net::UniqueFd listen_fd_;
  net::Poller accept_poller_;
  std::thread accept_thread_;
  uint32_t next_shard_ = 0;     // accept thread only (round-robin)
  int accept_backoff_ms_ = 0;   // accept thread only

  std::atomic<bool> running_{false};
};

}  // namespace mdos::plasma
