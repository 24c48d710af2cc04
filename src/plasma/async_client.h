// AsyncClient — the pipelined core of the Plasma client API.
//
// The paper's client (§IV-A2) is strictly synchronous: one Unix-socket
// round-trip per operation, so a client thread can never have more than
// one request outstanding and every remote look-up stalls it for a full
// RPC. AsyncClient redesigns that boundary around the request-tagged wire
// protocol: each operation is assigned a request id, written to the
// socket immediately, and completed by a reply-dispatch thread when the
// (possibly out-of-order) tagged reply arrives — so a single connection
// pipelines dozens of requests and the store can batch their remote
// look-ups into one peer RPC.
//
//   auto a = client->GetAsync(id_a);      // in flight
//   auto b = client->GetAsync(id_b);      // also in flight
//   auto c = client->ContainsAsync(id_c); // may complete first
//   WaitAll(a, b, c);
//
// Thread-safety: all *Async methods may be called from any thread
// (sends are serialized internally); futures may be waited anywhere.
// Futures remain valid after the client is destroyed — teardown fails
// outstanding promises with NotConnected instead of leaving waiters
// dangling. The blocking PlasmaClient in client.h is a thin shim over
// this class.
//
// Storage tiers are invisible here exactly as in the blocking API: a
// GetAsync future for a remote object resolves to a fabric-backed
// buffer, and one for a disk-spilled object resolves after the store
// restores it into shared memory — callers never branch on where the
// bytes were.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/future.h"
#include "common/mutex.h"
#include "common/object_id.h"
#include "common/status.h"
#include "net/fd.h"
#include "net/memfd.h"
#include "plasma/client.h"
#include "plasma/protocol.h"
#include "tf/fabric.h"

namespace mdos::plasma {

class AsyncClient {
 public:
  static Result<std::unique_ptr<AsyncClient>> Connect(
      const std::string& socket_path, ClientOptions options = {});

  ~AsyncClient();
  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  // Every operation below accepts an optional end-to-end `deadline`
  // (absolute, monotonic clock — common/deadline.h). The remaining
  // budget travels in the wire header; the store clamps every peer RPC
  // issued on the operation's behalf to it, sheds work whose budget
  // already passed, and an operation dispatched after its deadline fails
  // fast with DeadlineExceeded without touching the socket. The default
  // (infinite) keeps the historical wait-forever behavior.

  // Reserves an object and resolves to a writable buffer. `replicate`
  // asks the store to hold this object at ≥2 copies after Seal even when
  // its replication_factor is 1 (per-object opt-in).
  Future<Result<ObjectBuffer>> CreateAsync(const ObjectId& id,
                                           uint64_t data_size,
                                           uint64_t metadata_size = 0,
                                           bool replicate = false,
                                           Deadline deadline = {});

  // Seals / aborts an object this client created.
  Future<Status> SealAsync(const ObjectId& id, Deadline deadline = {});
  Future<Status> AbortAsync(const ObjectId& id, Deadline deadline = {});

  // Retrieves buffers; the store holds the reply until the objects are
  // sealed (anywhere) or `timeout_ms` expires, so the future resolves at
  // availability. Entries that never appeared are invalid buffers. A
  // finite `deadline` additionally clamps the store-side park: the reply
  // comes back (reporting what was found) no later than the deadline.
  Future<Result<std::vector<ObjectBuffer>>> GetAsync(
      const std::vector<ObjectId>& ids, uint64_t timeout_ms = 0,
      Deadline deadline = {});
  // Single-id form; an absent object resolves to KeyError. `fallback`
  // tags the request as a mapped buffer's reissue after a failed
  // generation check, so the store counts it in mapped_fallbacks;
  // ordinary callers pass false.
  Future<Result<ObjectBuffer>> GetAsync(const ObjectId& id,
                                        uint64_t timeout_ms = 0,
                                        bool fallback = false,
                                        Deadline deadline = {});

  Future<Status> ReleaseAsync(const ObjectId& id, Deadline deadline = {});
  Future<Result<bool>> ContainsAsync(const ObjectId& id,
                                     Deadline deadline = {});
  Future<Status> DeleteAsync(const ObjectId& id, Deadline deadline = {});
  Future<Result<std::vector<ObjectInfo>>> ListAsync();
  Future<Result<StoreStats>> StatsAsync();
  // Per-shard statistics of the sharded store core (GetStoreStats).
  Future<Result<std::vector<ShardStatsEntry>>> ShardStatsAsync();
  // Per-peer health rows (cluster failure handling); empty without peers.
  Future<Result<std::vector<PeerStatsEntry>>> PeerStatsAsync();

  // Fails all in-flight requests with NotConnected and closes the
  // connection. Also performed by the destructor. Idempotent.
  Status Disconnect()
      EXCLUDES(disconnect_mutex_, pending_mutex_, send_mutex_);

  bool connected() const { return fd_.valid(); }
  // Requests sent whose replies have not yet been dispatched.
  size_t inflight() const EXCLUDES(pending_mutex_);

  uint32_t node_id() const { return node_id_; }
  const std::string& store_name() const { return store_name_; }
  uint64_t pool_size() const { return pool_size_; }

 private:
  friend class PlasmaClient;
  friend class ObjectBuffer;

  // Consumes a reply frame's (type, tagged payload) — or the connection
  // error that ended it — and fulfills the operation's promise. The
  // payload view aliases the reader thread's scratch frame (reused
  // across replies; no per-reply allocation) and is only valid for the
  // duration of the call: handlers decode synchronously.
  using ReplyHandler = std::function<void(MessageType, const Status&,
                                          std::span<const uint8_t>)>;

  AsyncClient() = default;

  // Registers a reply handler under a fresh request id, sends the tagged
  // request (stamping the deadline's remaining budget into the wire
  // header), and returns the future. An already-expired deadline fails
  // the future with DeadlineExceeded without touching the socket.
  // `transform` maps the decoded ReplyT to the future's value type
  // (Status or Result<...>), both of which are constructible from an
  // error Status.
  template <typename ReplyT, typename RequestT, typename Fn>
  auto Dispatch(MessageType request_type, MessageType reply_type,
                const RequestT& request, Deadline deadline, Fn transform)
      -> Future<std::invoke_result_t<Fn, ReplyT&&>>;

  void ReaderLoop();
  void FailAllPending(const Status& status) EXCLUDES(pending_mutex_);

  // Resolves the AttachedRegion for (node, region). Thread-safe: the
  // attachment cache is shared by callers and the reply-dispatch thread.
  Result<std::shared_ptr<tf::AttachedRegion>> ResolveRegion(
      uint32_t node, uint32_t region) EXCLUDES(region_mutex_);
  // Resolves the generation-table reader for (node, gen region) — the
  // validation side of the mapped data plane. Cached like attachments.
  Result<std::shared_ptr<const MappedGenTable>> ResolveGenTable(
      uint32_t node, uint32_t region) EXCLUDES(region_mutex_);
  ObjectBuffer MakeBuffer(const GetReplyEntry& entry, bool writable);

  // Called by a mapped ObjectBuffer whose generation check failed:
  // reissues the Get for a fresh descriptor, retires the stale
  // reference, and rebinds the buffer's backing in place. KeyError when
  // the object is gone. Blocking (round-trips on this connection); must
  // not run on the reply-dispatch thread.
  Status RefetchMapped(const ObjectBuffer& stale);

  net::UniqueFd fd_;
  ClientOptions options_;
  uint32_t node_id_ = 0;
  uint32_t pool_region_ = UINT32_MAX;
  uint64_t pool_size_ = 0;
  uint64_t pool_slab_offset_ = 0;
  std::string store_name_;

  // Raw-mode mapping of the pool fd (no fabric).
  std::optional<net::MemfdSegment> pool_map_;
  // Fabric-mode attachment of the local pool region.
  std::shared_ptr<tf::AttachedRegion> local_region_;
  // Cache of remote region attachments: (node, region) -> accessor.
  Mutex region_mutex_;
  std::map<std::pair<uint32_t, uint32_t>,
           std::shared_ptr<tf::AttachedRegion>>
      attachments_ GUARDED_BY(region_mutex_);
  // Cache of peer generation-table readers: (node, gen region) -> table.
  std::map<std::pair<uint32_t, uint32_t>,
           std::shared_ptr<const MappedGenTable>>
      gen_tables_ GUARDED_BY(region_mutex_);
  // Handed to every mapped buffer; Disconnect nulls the back-pointer so
  // outstanding buffers fail cleanly instead of dangling into us.
  std::shared_ptr<ObjectBuffer::RefetchContext> refetch_;

  // Send queue: writes are serialized; the kernel socket buffer carries
  // the queued frames to the store back-to-back. fd_ is closed only with
  // this mutex held, so senders never write a recycled descriptor.
  Mutex send_mutex_;
  // Request-encode scratch: capacity reused, so steady-state sends
  // allocate nothing.
  wire::Writer send_writer_ GUARDED_BY(send_mutex_);
  // Serializes Disconnect against itself (explicit call vs destructor);
  // outermost of the client's locks.
  Mutex disconnect_mutex_ ACQUIRED_BEFORE(pending_mutex_, send_mutex_);
  std::atomic<uint64_t> next_request_id_{1};

  // In-flight table, shared with the reply-dispatch thread.
  mutable Mutex pending_mutex_;
  bool running_ GUARDED_BY(pending_mutex_) = false;
  std::unordered_map<uint64_t, ReplyHandler> pending_
      GUARDED_BY(pending_mutex_);

  std::thread reader_;
};

}  // namespace mdos::plasma
