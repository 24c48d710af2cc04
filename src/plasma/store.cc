#include "plasma/store.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <list>
#include <unordered_set>

#include "alloc/first_fit_allocator.h"
#include "alloc/segregated_fit_allocator.h"
#include "common/clock.h"
#include "common/log.h"
#include "net/frame.h"
#include "net/socket.h"

namespace mdos::plasma {

namespace {

constexpr uint32_t kMaxShards = 64;
constexpr int kAcceptBackoffStartMs = 10;
constexpr int kAcceptBackoffMaxMs = 1000;

std::unique_ptr<alloc::Allocator> MakeAllocator(AllocatorKind kind,
                                                uint64_t capacity) {
  switch (kind) {
    case AllocatorKind::kSegregatedFit:
      return std::make_unique<alloc::SegregatedFitAllocator>(capacity);
    case AllocatorKind::kFirstFit:
    default:
      return std::make_unique<alloc::FirstFitAllocator>(capacity);
  }
}

}  // namespace

// ClientConn / PendingGet / Shard are defined in store.h so their lock
// annotations (GUARDED_BY on owner state, the shard-before-index
// ACQUIRED_BEFORE order) are visible to the thread-safety analysis at
// every use site.

// ---- non-blocking egress ---------------------------------------------------

template <typename Message>
void Store::QueueReply(Shard& shard, ClientConn& conn, MessageType type,
                       uint64_t request_id, const Message& msg) {
  // The per-connection encode scratch: a recycled payload buffer from
  // the connection's own queue, adopted by a Writer and moved straight
  // back in — the encode → enqueue → flush cycle allocates nothing in
  // steady state and the payload is never copied.
  wire::Writer w;
  w.Adopt(conn.link.tx().AcquireBuffer());
  EncodeMessage(w, request_id, msg);
  Status queued =
      conn.link.tx().Append(static_cast<uint32_t>(type), w.TakeBuffer());
  if (!queued.ok()) {
    // An unencodable reply (payload past the frame bound) must not
    // leave the request silently unanswered forever — shed the client
    // as the old blocking path did on a failed send.
    MDOS_LOG_WARN << "store: dropping client '" << conn.name
                  << "' on oversize reply: " << queued;
    DropClient(shard, conn.link.fd());
    return;
  }
  MarkDirty(shard, conn);
  // Enforce the egress cap at enqueue time too: a single pipelined
  // batch of expensive requests (thousands of Lists, say) must not
  // build replies past the cap before the end-of-pass flush runs.
  // FlushConn sheds the connection if the flush leaves it over the cap.
  if (conn.link.tx().pending_bytes() > options_.max_egress_queue_bytes) {
    FlushConn(shard, conn);
  }
}

void Store::MarkDirty(Shard& shard, ClientConn& conn) {
  if (conn.dirty) return;
  conn.dirty = true;
  shard.dirty.push_back(conn.link.fd());
}

void Store::FlushDirtyConns(Shard& shard) {
  if (shard.dirty.empty()) return;
  std::vector<int> fds;
  fds.swap(shard.dirty);
  for (int fd : fds) {
    auto it = shard.clients.find(fd);
    if (it == shard.clients.end()) continue;  // dropped mid-pass
    it->second->dirty = false;
    FlushConn(shard, *it->second);
  }
}

void Store::AccumulateTxStats(Shard& shard, ClientConn& conn) {
  const net::TxQueueStats& now = conn.link.tx().stats();
  net::TxQueueStats& last = conn.reported_tx;
  shard.tx_frames.fetch_add(now.frames_enqueued - last.frames_enqueued,
                            std::memory_order_relaxed);
  shard.tx_frames_coalesced.fetch_add(
      now.frames_coalesced - last.frames_coalesced,
      std::memory_order_relaxed);
  shard.tx_writev_calls.fetch_add(now.writev_calls - last.writev_calls,
                                  std::memory_order_relaxed);
  shard.tx_bytes.fetch_add(now.bytes_tx - last.bytes_tx,
                           std::memory_order_relaxed);
  shard.tx_blocked_events.fetch_add(
      now.egress_blocked_events - last.egress_blocked_events,
      std::memory_order_relaxed);
  last = now;
}

void Store::FlushConn(Shard& shard, ClientConn& conn) {
  int fd = conn.link.fd();
  auto state = conn.link.Flush(shard.poller);
  AccumulateTxStats(shard, conn);
  if (!state.ok()) {
    // EPIPE/ECONNRESET: the client vanished mid-reply; routine shedding.
    DropClient(shard, fd);
    return;
  }
  if (*state == net::TxQueue::FlushState::kBlocked &&
      conn.link.tx().pending_bytes() > options_.max_egress_queue_bytes) {
    MDOS_LOG_WARN << "store: client '" << conn.name
                  << "' not draining its socket ("
                  << conn.link.tx().pending_bytes()
                  << " bytes queued past the "
                  << options_.max_egress_queue_bytes
                  << "-byte egress cap); dropping";
    DropClient(shard, fd);
  }
}

Status Store::FlushConnBlocking(Shard& shard, ClientConn& conn,
                                int timeout_ms) {
  int fd = conn.link.fd();
  const int64_t deadline =
      MonotonicNanos() + int64_t{timeout_ms} * 1000000;
  while (true) {
    auto state = conn.link.tx().Flush(fd);
    AccumulateTxStats(shard, conn);
    MDOS_RETURN_IF_ERROR(state.status());
    if (*state == net::TxQueue::FlushState::kDrained) return Status::OK();
    int64_t left_ms = (deadline - MonotonicNanos()) / 1000000;
    if (left_ms <= 0) return Status::Timeout("handshake flush timed out");
    MDOS_ASSIGN_OR_RETURN(bool writable,
                          net::WaitWritable(fd, static_cast<int>(left_ms)));
    if (!writable) return Status::Timeout("handshake flush timed out");
  }
}

void Store::OnClientWritable(Shard& shard, int fd) {
  auto it = shard.clients.find(fd);
  if (it == shard.clients.end()) return;
  FlushConn(shard, *it->second);
}

Store::Store(StoreOptions options, uint32_t node_id, uint32_t pool_region)
    : options_(std::move(options)),
      node_id_(node_id),
      pool_region_(pool_region) {
  socket_path_ = options_.socket_path.empty()
                     ? net::UniqueSocketPath(options_.name)
                     : options_.socket_path;
}

void Store::InitShards() {
  const AllocatorKind kind = options_.allocator;
  uint32_t requested = std::clamp<uint32_t>(options_.shards, 1, kMaxShards);
  pool_alloc_ = std::make_unique<alloc::ShardedAllocator>(
      options_.capacity, requested, [kind](uint64_t arena_capacity) {
        return MakeAllocator(kind, arena_capacity);
      });
  shards_.clear();
  shards_.reserve(pool_alloc_->shard_count());
  for (uint32_t i = 0; i < pool_alloc_->shard_count(); ++i) {
    auto shard = std::make_unique<Shard>(index_mutex_);
    shard->index = i;
    {
      // No threads exist yet; the lock only satisfies the analysis.
      MutexLock lock(shard->mutex);
      shard->arena = &pool_alloc_->arena(i);
      shard->table.set_self_node(node_id_);
    }
    shards_.push_back(std::move(shard));
  }
}

uint32_t Store::shard_count() const {
  return static_cast<uint32_t>(shards_.size());
}

uint32_t Store::ShardIndexOf(const ObjectId& id) const {
  return static_cast<uint32_t>(std::hash<ObjectId>{}(id) %
                               shards_.size());
}

Store::Shard& Store::OwnerShard(const ObjectId& id) {
  return *shards_[ShardIndexOf(id)];
}

Result<std::unique_ptr<Store>> Store::Create(StoreOptions options) {
  auto store = std::unique_ptr<Store>(
      new Store(std::move(options), /*node_id=*/0,
                /*pool_region=*/UINT32_MAX));
  MDOS_ASSIGN_OR_RETURN(
      auto pool, net::MemfdSegment::Create("mdos-pool-" + store->name(),
                                           store->options_.capacity));
  store->own_pool_.emplace(std::move(pool));
  store->pool_base_ = store->own_pool_->data();
  store->pool_fd_ = store->own_pool_->fd();
  store->InitShards();
  return store;
}

Result<std::unique_ptr<Store>> Store::CreateOnFabric(
    StoreOptions options, tf::Fabric* fabric, tf::NodeId node,
    tf::RegionId pool_region) {
  MDOS_ASSIGN_OR_RETURN(tf::RegionInfo info,
                        fabric->region_info(pool_region));
  if (info.owner != node) {
    return Status::Invalid("pool region is not owned by this node");
  }
  options.capacity = info.size;
  auto store = std::unique_ptr<Store>(
      new Store(std::move(options), node, pool_region));
  MDOS_ASSIGN_OR_RETURN(store->fabric_node_, fabric->node(node));
  store->fabric_ = fabric;
  store->pool_slab_offset_ = info.offset;
  store->pool_base_ = store->fabric_node_->data() + info.offset;
  // The pool fd is the node slab's memfd; clients that mmap it directly
  // apply pool_slab_offset from the connect reply.
  store->pool_fd_ = -1;  // resolved per-connection via NodeMemory::ShareFd
  // Arena capacities must match the region, not the original option.
  store->InitShards();
  return store;
}

Store::~Store() { Stop(); }

Status Store::Start() {
  if (running_.load()) return Status::Invalid("store already running");
  if (!options_.spill_dir.empty()) {
    // Best-effort create; a real failure surfaces from SpillFile::Open.
    (void)::mkdir(options_.spill_dir.c_str(), 0755);
    for (auto& shard : shards_) {
      MDOS_ASSIGN_OR_RETURN(
          auto spill,
          SpillFile::Open(options_.spill_dir + "/" + options_.name +
                          ".shard" + std::to_string(shard->index) +
                          ".spill"));
      // Shard threads are not running yet; the lock satisfies the
      // analysis (and any concurrent peer-surface caller post-restart).
      MutexLock lock(shard->mutex);
      shard->spill.emplace(std::move(spill));
    }
  }
  MDOS_ASSIGN_OR_RETURN(
      listen_fd_, net::UdsListen(socket_path_, options_.accept_backlog));
  // Non-blocking so the accept loop can drain the backlog and classify
  // EAGAIN vs resource exhaustion without ever parking in accept(2).
  MDOS_RETURN_IF_ERROR(net::SetNonBlocking(listen_fd_.get()));
  accept_poller_.Add(listen_fd_.get());
  next_shard_ = 0;
  accept_backoff_ms_ = 0;
  running_.store(true);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { ShardLoop(*s); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  {
    MutexLock lock(reheal_mutex_);
    reheal_running_ = true;
  }
  reheal_thread_ = std::thread([this] { RehealLoop(); });
  MDOS_LOG_INFO << "store '" << options_.name << "' listening on "
                << socket_path_ << " (" << shards_.size() << " shard"
                << (shards_.size() == 1 ? "" : "s") << ")";
  return Status::OK();
}

void Store::Stop() {
  // The re-heal driver issues peer RPCs; stop it first so no replicate
  // call races the teardown of the shards it reads from.
  {
    MutexLock lock(reheal_mutex_);
    reheal_running_ = false;
    reheal_queue_.clear();
  }
  reheal_cv_.NotifyAll();
  if (reheal_thread_.joinable()) reheal_thread_.join();
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
    return;
  }
  accept_poller_.Wakeup();
  for (auto& shard : shards_) shard->poller.Wakeup();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : shards_) {
    shard->clients.clear();
    shard->pending_gets.clear();
    shard->dirty.clear();
    shard->parked_gets.store(0);
    shard->client_count.store(0);
    shard->subscriber_count.store(0);
    MutexLock lock(shard->mailbox_mutex);
    shard->mailbox.clear();
  }
  // The spill tier does not persist across runs: close and delete each
  // shard's segment. Shard mutexes guard against a peer-surface call
  // still in flight on the RPC thread.
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    if (shard->spill.has_value()) {
      std::string spill_path = shard->spill->path();
      shard->spill.reset();
      ::unlink(spill_path.c_str());
    }
  }
  accept_poller_.Remove(listen_fd_.get());
  listen_fd_.Reset();
  ::unlink(socket_path_.c_str());
}

// ---- accept thread ---------------------------------------------------------

void Store::AcceptLoop() {
  while (running_.load()) {
    auto ready = accept_poller_.Wait(200, [this](int fd, uint32_t) {
      if (fd == listen_fd_.get()) AcceptPending();
    });
    if (!ready.ok()) {
      MDOS_LOG_ERROR << "store accept poll failed: " << ready.status();
      break;
    }
  }
}

void Store::AcceptPending() {
  for (;;) {
    int err = 0;
    net::UniqueFd conn_fd = net::TryAccept(listen_fd_.get(), &err);
    if (!conn_fd.valid()) {
      if (err == EAGAIN) return;  // backlog drained
      if (err == ECONNABORTED) continue;  // peer gave up; keep draining
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        // Fd/memory exhaustion is transient: shedding the accept loop
        // would strand the whole store, so log, back off, and retry.
        // Connections keep queueing in the (bounded) listen backlog.
        accept_backoff_ms_ =
            accept_backoff_ms_ == 0
                ? kAcceptBackoffStartMs
                : std::min(accept_backoff_ms_ * 2, kAcceptBackoffMaxMs);
        MDOS_LOG_WARN << "store accept: " << strerror(err)
                      << "; backing off " << accept_backoff_ms_ << "ms";
        std::this_thread::sleep_for(
            std::chrono::milliseconds(accept_backoff_ms_));
        return;
      }
      MDOS_LOG_WARN << "store accept failed: " << strerror(err);
      return;
    }
    accept_backoff_ms_ = 0;

    int fd = conn_fd.get();
    // Replies are written by the connection's home shard thread through
    // its non-blocking write queue: O_NONBLOCK makes EAGAIN the
    // backpressure signal, so a client that stops draining its socket
    // queues bytes (up to max_egress_queue_bytes) instead of parking the
    // shard in write(2).
    MDOS_WARN_IF_ERROR(net::SetNonBlocking(fd),
                       "marking accepted client socket non-blocking");
    auto conn = std::make_shared<ClientConn>(std::move(conn_fd));

    // Round-robin placement; the shard adopts the connection on its own
    // thread (poller registration is not thread-safe by design).
    Shard* home = shards_[next_shard_].get();
    next_shard_ = (next_shard_ + 1) % shards_.size();
    home->Post([home, conn = std::move(conn), fd]() mutable {
      home->poller.Add(fd);
      home->clients.emplace(fd, std::move(conn));
      home->client_count.fetch_add(1, std::memory_order_relaxed);
    });
  }
}

// ---- shard event loops -----------------------------------------------------

void Store::ShardLoop(Shard& shard) {
  while (running_.load()) {
    DrainMailbox(shard);
    int timeout_ms = FlushExpiredPendingGets(shard);
    // Mailbox tasks and expired gets may have queued egress; flush it
    // before parking in the poller.
    FlushDirtyConns(shard);
    if (timeout_ms < 0 || timeout_ms > 200) timeout_ms = 200;
    auto ready =
        shard.poller.Wait(timeout_ms, [this, &shard](int fd,
                                                     uint32_t events) {
          // Writable first: draining queued residue may disarm write
          // interest before the read pass queues fresh replies.
          if (events & net::kPollerWritable) OnClientWritable(shard, fd);
          if (events & net::kPollerReadable) OnClientReadable(shard, fd);
        });
    if (!ready.ok()) {
      MDOS_LOG_ERROR << "store shard " << shard.index
                     << " poll failed: " << ready.status();
      break;
    }
    // One coalesced gather write per connection touched this pass.
    FlushDirtyConns(shard);
  }
}

void Store::DrainMailbox(Shard& shard) {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(shard.mailbox_mutex);
    tasks.swap(shard.mailbox);
  }
  for (auto& task : tasks) task();
}

void Store::OnClientReadable(Shard& shard, int fd) {
  auto it = shard.clients.find(fd);
  if (it == shard.clients.end()) return;
  // Keep the connection alive across a mid-batch drop.
  std::shared_ptr<ClientConn> conn_ref = it->second;
  ClientConn& conn = *conn_ref;

  // Drain everything the socket has buffered without blocking the loop,
  // then view every complete frame in place; a pipelining client's
  // queued requests become one batch. The consumed prefix is dropped
  // only after dispatch (the views alias the receive scratch).
  const bool open = conn.link.Drain();
  std::vector<net::FrameView> batch;
  Status parse = conn.link.DecodeFrames(&batch);

  // Dispatch in arrival order; Gets defer their remote half to the end of
  // the batch. `conn` may be dropped mid-batch (decode error,
  // disconnect), so re-check liveness between frames.
  std::vector<PendingGet> batch_gets;
  for (const net::FrameView& frame : batch) {
    if (shard.clients.find(fd) == shard.clients.end()) return;
    DispatchFrame(shard, conn, frame, &batch_gets);
  }
  if (shard.clients.find(fd) == shard.clients.end()) return;
  ResolveGets(shard, conn, batch_gets);

  if (shard.clients.find(fd) == shard.clients.end()) return;
  conn.link.ConsumeFrames();
  if (!parse.ok()) {
    MDOS_LOG_WARN << "store: dropping client on bad frame: " << parse;
    DropClient(shard, fd);
    return;
  }
  if (!open) DropClient(shard, fd);
}

void Store::DispatchFrame(Shard& shard, ClientConn& conn,
                          const net::FrameView& frame,
                          std::vector<PendingGet>* batch_gets) {
  int fd = conn.link.fd();
  const auto type = static_cast<MessageType>(frame.type);
  const std::span<const uint8_t> body(frame.payload, frame.size);
  wire::Reader header_reader(frame.payload, frame.size);
  auto header = wire::MessageHeader::DecodeFrom(header_reader);
  if (!header.ok()) {
    DropClient(shard, fd);
    return;
  }
  const uint64_t request_id = header->request_id;
  // Remaining end-to-end budget stamped by the client when the frame was
  // sent. Restarted here rather than decremented by queueing time: the
  // UDS hop is local, and the client's own clock re-check on the reply
  // keeps the end-to-end bound honest. Downstream peer hops DO decrement
  // (the dist layer clamps every RPC to this deadline).
  const Deadline op_deadline = Deadline::FromBudgetMs(
      header->deadline_ms > static_cast<uint64_t>(Deadline::kInfiniteMs)
          ? Deadline::kInfiniteMs
          : static_cast<int64_t>(header->deadline_ms));
  switch (type) {
    case MessageType::kConnectRequest:
      HandleConnect(shard, conn, request_id, body);
      break;
    case MessageType::kCreateRequest:
      HandleCreate(shard, conn, request_id, body, op_deadline);
      break;
    case MessageType::kSealRequest:
      HandleSeal(shard, conn, request_id, body);
      break;
    case MessageType::kAbortRequest:
      HandleAbort(shard, conn, request_id, body);
      break;
    case MessageType::kGetRequest:
      HandleGet(shard, conn, request_id, body, op_deadline, batch_gets);
      break;
    case MessageType::kReleaseRequest:
      HandleRelease(shard, conn, request_id, body);
      break;
    case MessageType::kContainsRequest:
      HandleContains(shard, conn, request_id, body);
      break;
    case MessageType::kDeleteRequest:
      HandleDelete(shard, conn, request_id, body);
      break;
    case MessageType::kListRequest:
      HandleList(shard, conn, request_id);
      break;
    case MessageType::kStatsRequest:
      HandleStats(shard, conn, request_id);
      break;
    case MessageType::kShardStatsRequest:
      HandleShardStats(shard, conn, request_id);
      break;
    case MessageType::kPeerStatsRequest:
      HandlePeerStats(shard, conn, request_id);
      break;
    case MessageType::kSubscribeRequest:
      HandleSubscribe(shard, conn, request_id, body);
      break;
    case MessageType::kDisconnectRequest: DropClient(shard, fd); break;
    default:
      MDOS_LOG_WARN << "store: unknown message type " << frame.type;
      DropClient(shard, fd);
      break;
  }
}

void Store::DropClient(Shard& shard, int fd) {
  auto it = shard.clients.find(fd);
  if (it == shard.clients.end()) return;
  std::shared_ptr<ClientConn> conn = std::move(it->second);
  // Best-effort final flush: replies queued earlier in this batch still
  // reach a client being dropped for a later protocol violation (and
  // their counters are folded into the shard stats before teardown).
  conn->link.FlushBeforeClose();
  AccumulateTxStats(shard, *conn);
  shard.clients.erase(it);
  shard.poller.Remove(fd);
  shard.client_count.fetch_sub(1, std::memory_order_relaxed);
  if (conn->subscriber) {
    shard.subscriber_count.fetch_sub(1, std::memory_order_relaxed);
  }

  // Drop pending gets issued by this connection.
  size_t dropped = 0;
  shard.pending_gets.remove_if([fd, &dropped](const PendingGet& p) {
    if (p.fd != fd) return false;
    ++dropped;
    return true;
  });
  shard.parked_gets.fetch_sub(dropped, std::memory_order_relaxed);

  // The connection may hold pins on — and have unsealed creations in —
  // any shard; visit each owner shard once.
  std::vector<std::vector<std::pair<ObjectId, uint32_t>>> pins_by_shard(
      shards_.size());
  for (const auto& [id, count] : conn->local_pins) {
    pins_by_shard[ShardIndexOf(id)].emplace_back(id, count);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& owner = *shards_[s];
    MutexLock lock(owner.mutex);
    for (const auto& [id, count] : pins_by_shard[s]) {
      for (uint32_t i = 0; i < count; ++i) {
        // mdos-check: allow-discard(the object may have been deleted while this client still held a pin; KeyError here is the normal race)
        (void)owner.table.ReleaseRef(id);
      }
    }
    // Abort unsealed objects this client created but never sealed.
    for (const ObjectId& id : owner.table.UnsealedCreatedBy(fd)) {
      auto removed = owner.table.Remove(id, /*force=*/true);
      if (removed.ok()) {
        MDOS_WARN_IF_ERROR(owner.arena->Free(removed->offset),
                           "freeing aborted object of disconnecting client");
      }
    }
  }
}

void Store::HandleConnect(Shard& home, ClientConn& conn,
                          uint64_t request_id,
                          std::span<const uint8_t> body) {
  auto request = DecodeMessage<ConnectRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, conn.link.fd());
    return;
  }
  conn.name = request->client_name;
  conn.handshaken = true;

  ConnectReply reply;
  reply.node_id = node_id_;
  reply.pool_region_id = pool_region_;
  reply.pool_size = options_.capacity;
  reply.pool_slab_offset = pool_slab_offset_;
  reply.store_name = options_.name;
  int fd = conn.link.fd();
  // The SCM_RIGHTS fd message below must follow the reply bytes in
  // stream order, so the handshake (once per connection, a ~100-byte
  // frame into an empty socket buffer) flushes the queue synchronously.
  QueueReply(home, conn, MessageType::kConnectReply, request_id, reply);
  // mdos-check: allow-blocking(handshake-only ordered flush: the SCM_RIGHTS fd pass must trail the reply bytes in stream order; once per connection, 5 s cap)
  if (!FlushConnBlocking(home, conn, /*timeout_ms=*/5000).ok()) {
    DropClient(home, fd);
    return;
  }
  // Ship the pool fd so the client can mmap the shared memory, exactly
  // like upstream Plasma's file-descriptor coordination.
  net::UniqueFd pool_fd;
  if (own_pool_.has_value()) {
    auto dup = own_pool_->DupFd();
    if (dup.ok()) pool_fd = std::move(dup).value();
  } else if (fabric_node_ != nullptr) {
    auto dup = fabric_node_->ShareFd();
    if (dup.ok()) pool_fd = std::move(dup).value();
  }
  // sendmsg of one byte + ancillary data; briefly revert to blocking so
  // a momentarily full buffer cannot drop the fd pass.
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  bool fd_sent = pool_fd.valid() && net::SendFd(fd, pool_fd.get()).ok();
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags);
  if (!fd_sent) {
    DropClient(home, fd);
  }
}

void Store::BumpGeneration(const ObjectId& id) {
  if (gen_table_ != nullptr) (void)gen_table_->Bump(id);
}

Result<alloc::Allocation> Store::AllocateWithEviction(Shard& owner,
                                                      uint64_t size) {
  const uint64_t arena_capacity = pool_alloc_->arena_capacity(owner.index);
  if (size > arena_capacity) {
    return Status::CapacityError(
        "object of " + std::to_string(size) +
        " bytes exceeds shard arena capacity " +
        std::to_string(arena_capacity) + " (store capacity " +
        std::to_string(options_.capacity) + ", " +
        std::to_string(shards_.size()) + " shards)");
  }
  while (true) {
    auto allocation = owner.arena->Allocate(size);
    if (allocation.ok()) return allocation;

    auto victims = owner.eviction.ChooseVictims(
        size,
        [this, &owner](const ObjectId& id) {
          owner.mutex.AssertHeld();  // called synchronously under the lock
          return IsEvictable(owner, id);
        });
    if (victims.empty()) {
      return Status::OutOfMemory(
          "shard arena full and no evictable objects for " +
          std::to_string(size) + " bytes");
    }
    bool freed_any = false;
    for (const ObjectId& victim : victims) {
      // Spill tier first: demote the victim to the shard's segment file
      // and keep its table entry (as kSpilled). A failed spill write
      // (disk full, I/O error) falls through to destructive eviction so
      // the create still succeeds.
      if (owner.spill.has_value()) {
        auto entry = owner.table.Lookup(victim);
        if (entry.ok() && entry->state == ObjectState::kSealed &&
            entry->local_refs == 0) {
          auto spilled_at = owner.spill->Append(
              victim, pool_base_ + entry->offset, entry->data_size,
              entry->metadata_size);
          if (spilled_at.ok() &&
              owner.table.MarkSpilled(victim, *spilled_at).ok()) {
            if (shared_index_ != nullptr) {
              // Peers must stop reading the stale pool offset; their
              // look-ups fall back to RPC, which restores on demand.
              MutexLock index_lock(index_mutex_);
              // mdos-check: allow-discard(objects the index never admitted produce KeyError here; the withdrawal only has to hold for indexed ones)
              (void)shared_index_->Remove(victim);
            }
            // Index withdrawal, then bump, then free: a mapped reader
            // mid-copy over the fabric re-checks the generation after
            // copying, so the bump must land before the bytes can be
            // reused by a later allocation.
            BumpGeneration(victim);
            MDOS_WARN_IF_ERROR(owner.arena->Free(entry->offset),
                               "freeing pool bytes of spilled victim");
            owner.eviction.Remove(victim);
            ++owner.spill_count;
            freed_any = true;
            continue;
          }
          if (spilled_at.ok()) {
            MDOS_WARN_IF_ERROR(owner.spill->Free(*spilled_at),
                               "releasing spill slot of aborted demotion");
          } else {
            MDOS_LOG_WARN << "spill of " << victim.Hex()
                          << " failed: " << spilled_at.status()
                          << "; evicting destructively";
          }
        }
      }
      {
        // Replicated objects may be demoted to disk (above) but never
        // destroyed: a peer's re-heal may depend on this being the last
        // surviving copy. With no working spill tier the victim is
        // simply not reclaimable.
        auto entry = owner.table.Lookup(victim);
        if (entry.ok() && entry->desired_copies > 1) continue;
      }
      auto removed = owner.table.Remove(victim);
      if (!removed.ok()) continue;  // raced with a new pin; skip
      if (shared_index_ != nullptr) {
        MutexLock index_lock(index_mutex_);
        // mdos-check: allow-discard(objects the index never admitted produce KeyError here; the withdrawal only has to hold for indexed ones)
        (void)shared_index_->Remove(victim);
      }
      // Same ordering as the spill path: bump before the bytes free.
      BumpGeneration(victim);
      MDOS_WARN_IF_ERROR(owner.arena->Free(removed->offset),
                         "freeing pool bytes of evicted victim");
      owner.eviction.Remove(victim);
      ++owner.eviction_count;
      freed_any = true;
    }
    if (!freed_any) {
      return Status::OutOfMemory(
          "shard arena full: remaining victims are replicated objects "
          "that cannot be destroyed (need " + std::to_string(size) +
          " bytes)");
    }
  }
}

Result<ObjectEntry> Store::RestoreSpilled(Shard& owner,
                                          const ObjectId& id) {
  MDOS_ASSIGN_OR_RETURN(ObjectEntry entry, owner.table.Lookup(id));
  if (entry.state != ObjectState::kSpilled) return entry;
  if (!owner.spill.has_value()) {
    return Status::Invalid("object " + id.Hex() +
                           " is spilled but the spill tier is closed");
  }
  // Making room may spill other objects from this shard — appends to the
  // segment never disturb the live record we are about to read.
  MDOS_ASSIGN_OR_RETURN(alloc::Allocation allocation,
                        AllocateWithEviction(owner, entry.total_size()));
  Status read = owner.spill->ReadBack(id, entry.spill_offset,
                                      pool_base_ + allocation.offset);
  if (!read.ok()) {
    // The record is unreadable (CRC mismatch / I/O error): the object is
    // gone. Drop the entry so callers see a clean miss instead of
    // retrying a poisoned restore forever.
    MDOS_WARN_IF_ERROR(owner.arena->Free(allocation.offset),
                       "freeing pool bytes of failed restore");
    MDOS_WARN_IF_ERROR(owner.spill->Free(entry.spill_offset),
                       "freeing spill slot of failed restore");
    // mdos-check: allow-discard(removing the poisoned record; the entry was just looked up, and the error line below reports the restore failure)
    (void)owner.table.Remove(id, /*force=*/true);
    MDOS_LOG_ERROR << "restore of spilled object " << id.Hex()
                   << " failed: " << read;
    return read;
  }
  // mdos-check: allow-discard(the entry was looked up moments ago under this same lock; a concurrent force-remove is the only failure and leaves nothing to fix)
  (void)owner.table.MarkRestored(id, allocation.offset);
  MDOS_WARN_IF_ERROR(owner.spill->Free(entry.spill_offset),
                     "freeing spill slot after restore");
  owner.eviction.Add(id, entry.total_size());
  ++owner.restore_count;
  // The restore rebinds the id to a fresh pool offset: descriptors
  // stamped before the spill must not validate against the new bytes.
  BumpGeneration(id);
  if (shared_index_ != nullptr) {
    MutexLock index_lock(index_mutex_);
    // mdos-check: allow-discard(a full index is an expected steady state: readers fall back to the RPC path and the miss is visible in SharedIndexStats)
    (void)shared_index_->Insert(
        id, IndexedObject{allocation.offset, entry.data_size,
                          entry.metadata_size});
  }
  MaybeCompactSpill(owner);
  return owner.table.Lookup(id);
}

void Store::MaybeCompactSpill(Shard& owner) {
  if (!owner.spill.has_value() || !owner.spill->ShouldCompact()) return;
  Status compacted =
      owner.spill->Compact([&owner](const ObjectId& id, uint64_t offset) {
        owner.mutex.AssertHeld();  // called synchronously under the lock
        // mdos-check: allow-discard(an id deleted mid-compaction has no record to retarget; its old slot is reclaimed by the compaction itself)
        (void)owner.table.UpdateSpillOffset(id, offset);
      });
  if (!compacted.ok()) {
    MDOS_LOG_WARN << "spill compaction failed: " << compacted;
  }
}

bool Store::IsEvictable(const Shard& owner, const ObjectId& id) const {
  auto entry = owner.table.Lookup(id);
  if (!entry.ok()) return false;
  if (entry->state != ObjectState::kSealed) return false;
  return entry->local_refs == 0;
}

void Store::HandleCreate(Shard& home, ClientConn& conn,
                         uint64_t request_id,
                         std::span<const uint8_t> body,
                         Deadline op_deadline) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<CreateRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }

  CreateReply reply;
  reply.data_size = request->data_size;
  reply.metadata_size = request->metadata_size;

  Shard& owner = OwnerShard(request->id);

  // Local existence check.
  bool exists_locally;
  {
    MutexLock lock(owner.mutex);
    exists_locally = owner.table.Contains(request->id);
  }
  // Identifier-uniqueness probe across the distributed system (§IV-A2).
  // Deliberately outside any shard mutex: the peer answering our probe
  // may simultaneously probe us, and its answer needs a shard mutex.
  bool exists_remotely = false;
  if (!exists_locally && options_.check_global_uniqueness &&
      dist_hooks_ != nullptr) {
    // mdos-check: allow-blocking(DistHooks uniqueness probe, bounded by the client's end-to-end deadline; async probe is tracked in ROADMAP)
    exists_remotely = dist_hooks_->IdKnownRemotely(request->id,
                                                   op_deadline);
  }
  if (exists_locally || exists_remotely) {
    reply.status = Status::AlreadyExists(
        "object id " + request->id.Hex() +
        (exists_remotely ? " exists in a remote store" : " exists"));
    QueueReply(home, conn, MessageType::kCreateReply, request_id, reply);
    return;
  }

  {
    MutexLock lock(owner.mutex);
    // Re-check: another client may have created the id while the probe
    // was in flight.
    if (owner.table.Contains(request->id)) {
      reply.status =
          Status::AlreadyExists("object id " + request->id.Hex());
    } else {
      uint64_t total = request->data_size + request->metadata_size;
      if (total == 0) {
        reply.status = Status::Invalid("object must not be empty");
      } else {
        auto allocation = AllocateWithEviction(owner, total);
        if (!allocation.ok()) {
          reply.status = allocation.status();
        } else {
          ObjectEntry entry;
          entry.id = request->id;
          entry.offset = allocation->offset;
          entry.data_size = request->data_size;
          entry.metadata_size = request->metadata_size;
          entry.creator_fd = fd;
          // Replication intent is recorded at create time and acted on
          // at seal (the bytes exist only then). The per-object flag
          // bumps a non-replicating store to k=2 for this object.
          entry.desired_copies = std::max<uint32_t>(
              options_.replication_factor, request->replicate ? 2 : 1);
          entry.origin_node = node_id_;
          entry.copy_nodes = {node_id_};
          Status added = owner.table.AddCreated(entry);
          if (added.ok()) {
            reply.offset = allocation->offset;
          } else {
            MDOS_WARN_IF_ERROR(owner.arena->Free(allocation->offset),
                               "rolling back allocation of rejected create");
            reply.status = added;
          }
        }
      }
    }
  }
  QueueReply(home, conn, MessageType::kCreateReply, request_id, reply);
}

void Store::HandleSeal(Shard& home, ClientConn& conn, uint64_t request_id,
                       std::span<const uint8_t> body) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<SealRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }
  Shard& owner = OwnerShard(request->id);
  SealReply reply;
  Notification notice;
  notice.id = request->id;
  {
    MutexLock lock(owner.mutex);
    reply.status = owner.table.Seal(request->id);
    if (reply.status.ok()) {
      auto entry = owner.table.Lookup(request->id);
      if (entry.ok()) {
        owner.eviction.Add(request->id, entry->total_size());
        notice.data_size = entry->data_size;
        notice.metadata_size = entry->metadata_size;
        // Seal binds the id to its bytes: bump so descriptors from any
        // earlier incarnation of the id (delete + re-create) go stale.
        BumpGeneration(request->id);
        if (shared_index_ != nullptr) {
          // Publish into disaggregated memory so peers can find the
          // object without an RPC. Index-full is non-fatal: peers fall
          // back to the RPC lookup path.
          MutexLock index_lock(index_mutex_);
          // mdos-check: allow-discard(a full index is an expected steady state: readers fall back to the RPC path and the miss is visible in SharedIndexStats)
          (void)shared_index_->Insert(
              request->id, IndexedObject{entry->offset, entry->data_size,
                                         entry->metadata_size});
        }
      }
    }
  }
  QueueReply(home, conn, MessageType::kSealReply, request_id, reply);
  if (reply.status.ok()) {
    // Sealing makes the object available. The sealed notice is fanned
    // out BEFORE waking parked gets: a woken consumer may immediately
    // Delete the object, and its deleted notice must land behind the
    // sealed notice in every subscriber shard's FIFO mailbox — waking
    // first would let the two push races invert the lifecycle order.
    FanOutNotification(&home, notice);
    FanOutSealed(&home, request->id);
    // Replication fan-out last: the local seal is complete and the reply
    // queued, so replica RPC latency never sits in front of the client's
    // ack, and no shard mutex is held across the peer calls.
    ReplicateSealed(owner, request->id);
  }
}

void Store::HandleSubscribe(Shard& home, ClientConn& conn,
                            uint64_t request_id,
                            std::span<const uint8_t> body) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<SubscribeRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }
  if (!conn.subscriber) {
    home.subscriber_count.fetch_add(1, std::memory_order_relaxed);
  }
  conn.subscriber = true;
  conn.name = request->subscriber_name;
  SubscribeReply reply;
  QueueReply(home, conn, MessageType::kSubscribeReply, request_id, reply);
}

void Store::FanOutSealed(Shard* origin, const ObjectId& id) {
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    if (s == origin) {
      ServePendingGetsFor(*s, id);
      continue;
    }
    // Gated on the pre-announced parked-Get counter (see ResolveGets):
    // the seq_cst pairing guarantees a racing parker either is visible
    // here or re-checked the table after our seal committed, so skipping
    // an idle shard can never lose a wakeup. A stale non-zero just posts
    // a no-op task.
    if (s->parked_gets.load() == 0) continue;
    s->Post([this, s, id] { ServePendingGetsFor(*s, id); });
  }
}

void Store::FanOutNotification(Shard* origin, const Notification& notice) {
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    // Subscriptions racing a concurrent fan-out may miss it — a
    // subscription starts "now-ish", as in upstream Plasma — so a
    // relaxed emptiness check is enough to skip subscriber-less shards.
    if (s->subscriber_count.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    if (s == origin) {
      DeliverNotification(*s, notice);
    } else {
      s->Post([this, s, notice] { DeliverNotification(*s, notice); });
    }
  }
}

void Store::DeliverNotification(Shard& shard, const Notification& notice) {
  // Queued, not sent: a burst of notifications to the same subscriber
  // leaves in one gather write at the end of the pass, and a dead
  // subscriber surfaces (and is dropped) at flush time. Subscriber fds
  // are snapshotted first because QueueReply may DropClient (egress cap)
  // and mutate the map mid-iteration.
  std::vector<int> subscribers;
  for (auto& [fd, conn] : shard.clients) {
    if (conn->subscriber) subscribers.push_back(fd);
  }
  for (int fd : subscribers) {
    auto it = shard.clients.find(fd);
    if (it == shard.clients.end()) continue;
    QueueReply(shard, *it->second, MessageType::kNotification,
               kNoRequestId, notice);
  }
}

void Store::HandleAbort(Shard& home, ClientConn& conn,
                        uint64_t request_id,
                        std::span<const uint8_t> body) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<AbortRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }
  Shard& owner = OwnerShard(request->id);
  AbortReply reply;
  {
    MutexLock lock(owner.mutex);
    auto entry = owner.table.Lookup(request->id);
    if (!entry.ok()) {
      reply.status = entry.status();
    } else if (entry->state != ObjectState::kCreated) {
      // Covers kSpilled too: a spilled entry's pool offset is stale (its
      // allocation was already freed at spill time), so force-removing
      // it here would double-free whatever lives there now.
      reply.status =
          Status::Sealed("cannot abort sealed object " + request->id.Hex());
    } else {
      auto removed = owner.table.Remove(request->id, /*force=*/true);
      if (removed.ok()) {
        MDOS_WARN_IF_ERROR(owner.arena->Free(removed->offset),
                           "freeing aborted object");
      }
      reply.status = removed.status();
    }
  }
  QueueReply(home, conn, MessageType::kAbortReply, request_id, reply);
}

std::optional<GetReplyEntry> Store::TryLocalGet(ClientConn& conn,
                                                const ObjectId& id) {
  Shard& owner = OwnerShard(id);
  std::optional<GetReplyEntry> out;
  {
    MutexLock lock(owner.mutex);
    auto entry = owner.table.Lookup(id);
    if (entry.ok() && entry->state == ObjectState::kSpilled) {
      // Transparent promotion from the disk tier: the client sees a
      // normal local hit, just slower. A failed restore reads as a miss.
      entry = RestoreSpilled(owner, id);
    }
    if (!entry.ok() || entry->state != ObjectState::kSealed) {
      return std::nullopt;
    }
    GetReplyEntry found;
    found.id = id;
    found.found = true;
    found.location = ObjectLocation::kLocal;
    found.offset = entry->offset;
    found.data_size = entry->data_size;
    found.metadata_size = entry->metadata_size;
    // mdos-check: allow-discard(the entry was verified sealed two lines up under this same lock; AddRef on it cannot fail a way that needs handling)
    (void)owner.table.AddRef(id);
    owner.eviction.Touch(id);
    out = found;
  }
  // Home-thread connection state; no lock needed.
  ++conn.local_pins[id];
  return out;
}

void Store::HandleGet(Shard& home, ClientConn& conn, uint64_t request_id,
                      std::span<const uint8_t> body, Deadline op_deadline,
                      std::vector<PendingGet>* batch_gets) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<GetRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }

  PendingGet pending;
  pending.fd = fd;
  pending.request_id = request_id;
  pending.op_deadline = op_deadline;
  pending.order = request->ids;
  pending.timeout_ms = request->timeout_ms;
  if (request->fallback) {
    // The client's mapped copy failed generation validation and it is
    // reissuing the Get for a fresh descriptor.
    home.mapped_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }

  std::unordered_set<ObjectId> missing_seen;
  for (const ObjectId& id : request->ids) {
    if (pending.ready.count(id) != 0 || missing_seen.count(id) != 0) {
      continue;  // duplicate id in request: one entry suffices
    }
    auto local = TryLocalGet(conn, id);
    if (local.has_value()) {
      pending.ready.emplace(id, *local);
    } else {
      missing_seen.insert(id);
      pending.missing.push_back(id);
    }
  }
  batch_gets->push_back(std::move(pending));
}

void Store::AdoptRemoteObject(Shard& home, ClientConn& conn,
                              PendingGet& pending, const ObjectId& id,
                              const RemoteObjectLocation& loc,
                              bool count_hit) {
  // Mapped data plane: a generation-stamped location is handed out as a
  // descriptor — zero RPCs to the home store. The client copies through
  // its cached region attachment and re-checks the generation; a stale
  // copy makes it reissue the Get. Without stamping (or with mapped
  // reads off) the client gets the paper's plain lookup-then-load
  // location.
  const bool mapped =
      options_.mapped_remote_reads && loc.gen_region != UINT32_MAX;
  if (mapped) {
    home.mapped_reads.fetch_add(1, std::memory_order_relaxed);
    home.mapped_bytes.fetch_add(loc.data_size + loc.metadata_size,
                                std::memory_order_relaxed);
  }
  ++conn.remote_refs[id];
  GetReplyEntry entry;
  entry.id = id;
  entry.found = true;
  entry.location = ObjectLocation::kRemote;
  entry.offset = loc.offset;
  entry.data_size = loc.data_size;
  entry.metadata_size = loc.metadata_size;
  entry.home_node = loc.home_node;
  entry.home_region = loc.home_region;
  entry.mapped = mapped;
  entry.generation = loc.generation;
  entry.gen_slot = loc.gen_slot;
  entry.gen_region = loc.gen_region;
  entry.gen_epoch = loc.gen_epoch;
  pending.ready.emplace(id, entry);
  if (count_hit) {
    // Hits are only counted where the look-up itself was counted, so
    // stats never report more hits than look-ups.
    remote_lookup_hits_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::unordered_map<ObjectId, RemoteObjectLocation>
Store::BatchedRemoteLookup(const std::vector<ObjectId>& ids,
                           bool count_lookups, Deadline deadline) {
  std::unordered_map<ObjectId, RemoteObjectLocation> resolved;
  if (dist_hooks_ == nullptr || ids.empty()) return resolved;
  std::vector<ObjectId> unknown;
  std::unordered_set<ObjectId> seen;
  for (const ObjectId& id : ids) {
    if (seen.insert(id).second) unknown.push_back(id);
  }
  // RPC outside any shard mutex; the paper's local store performs the
  // look-up synchronously on the client's behalf.
  // mdos-check: allow-blocking(DistHooks batched lookup RPC, deadline-bounded and hedged; the paper's design point — async resolve is tracked in ROADMAP)
  auto locations = dist_hooks_->LookupRemote(unknown, deadline);
  if (count_lookups) {
    remote_lookups_.fetch_add(unknown.size(), std::memory_order_relaxed);
  }
  for (size_t i = 0; i < unknown.size() && i < locations.size(); ++i) {
    if (locations[i].has_value()) {
      resolved.emplace(unknown[i], *locations[i]);
    }
  }
  return resolved;
}

void Store::ResolveGets(Shard& home, ClientConn& conn,
                        std::vector<PendingGet>& gets) {
  if (gets.empty()) return;

  // One remote look-up for every id unknown anywhere in the batch: a
  // pipelining client that issued N Gets for remote objects pays one RPC
  // round instead of N. The shared lookup runs under the LOOSEST
  // deadline in the batch (any get still inside its budget keeps the
  // RPC alive).
  std::vector<ObjectId> unknown;
  Deadline batch_deadline = gets.front().op_deadline;
  for (const PendingGet& pending : gets) {
    unknown.insert(unknown.end(), pending.missing.begin(),
                   pending.missing.end());
    if (pending.op_deadline.infinite() ||
        (!batch_deadline.infinite() &&
         pending.op_deadline.when_ns() > batch_deadline.when_ns())) {
      batch_deadline = pending.op_deadline;
    }
  }
  auto resolved =
      BatchedRemoteLookup(unknown, /*count_lookups=*/true, batch_deadline);

  const int fd = conn.link.fd();
  for (PendingGet& pending : gets) {
    // A failed reply for an earlier get in this batch drops the client
    // (and its conn entry); every get in the batch is from that client,
    // so stop.
    if (home.clients.find(fd) == home.clients.end()) return;
    // Pre-announce a potential park BEFORE the final local re-check
    // (seq_cst). A concurrent sealer on another shard either observes
    // this counter in FanOutSealed and posts the wakeup, or its table
    // commit precedes our re-check (both sides bracket the owner shard
    // mutex), in which case the re-check finds the object — so gating
    // the fan-out on the counter can never strand a parked get.
    bool announced = false;
    if (!pending.missing.empty() && pending.timeout_ms != 0) {
      home.parked_gets.fetch_add(1);
      announced = true;
    }
    for (const ObjectId& id : pending.missing) {
      auto it = resolved.find(id);
      if (it != resolved.end()) {
        AdoptRemoteObject(home, conn, pending, id, it->second,
                          /*count_hit=*/true);
        continue;
      }
      // Re-run the local pass: a later frame of the same batch (or a
      // concurrent client on any shard) may have sealed the object after
      // this get's first look — parking it would miss an available
      // object.
      auto local = TryLocalGet(conn, id);
      if (local.has_value()) {
        pending.ready.emplace(id, *local);
      } else {
        pending.waiting.insert(id);
      }
    }
    pending.missing.clear();
    if (pending.waiting.empty() || pending.timeout_ms == 0) {
      if (announced) {
        home.parked_gets.fetch_sub(1, std::memory_order_relaxed);
      }
      ReplyPendingGet(home, pending);
      continue;
    }
    // The pre-announcement above already counted this park. A finite
    // end-to-end deadline clamps the park: the reply (reporting whatever
    // was found) leaves no later than the operation's budget, so a
    // deadline-carrying client never waits out a longer get timeout.
    pending.deadline_ns =
        MonotonicNanos() +
        static_cast<int64_t>(pending.timeout_ms) * 1000000;
    if (!pending.op_deadline.infinite()) {
      pending.deadline_ns =
          std::min(pending.deadline_ns, pending.op_deadline.when_ns());
    }
    home.pending_gets.push_back(std::move(pending));
  }
}

void Store::ReplyPendingGet(Shard& shard, PendingGet& pending) {
  auto it = shard.clients.find(pending.fd);
  if (it == shard.clients.end()) return;
  GetReply reply;
  for (const ObjectId& id : pending.order) {
    auto ready = pending.ready.find(id);
    if (ready != pending.ready.end()) {
      reply.entries.push_back(ready->second);
    } else {
      GetReplyEntry missing;
      missing.id = id;
      missing.found = false;
      reply.entries.push_back(missing);
    }
  }
  QueueReply(shard, *it->second, MessageType::kGetReply,
             pending.request_id, reply);
}

void Store::ServePendingGetsFor(Shard& shard, const ObjectId& id) {
  // Completed gets are moved out of the list before any reply is sent:
  // a failed send inside ReplyPendingGet drops the client, which prunes
  // pending_gets and would invalidate iterators held here.
  std::vector<PendingGet> completed;
  for (auto it = shard.pending_gets.begin();
       it != shard.pending_gets.end();) {
    PendingGet& pending = *it;
    if (pending.waiting.erase(id) > 0) {
      auto conn_it = shard.clients.find(pending.fd);
      if (conn_it != shard.clients.end()) {
        auto local = TryLocalGet(*conn_it->second, id);
        if (local.has_value()) {
          pending.ready.emplace(id, *local);
        }
      }
    }
    if (pending.waiting.empty()) {
      completed.push_back(std::move(pending));
      it = shard.pending_gets.erase(it);
      shard.parked_gets.fetch_sub(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
  for (PendingGet& pending : completed) {
    ReplyPendingGet(shard, pending);
  }
}

int Store::FlushExpiredPendingGets(Shard& shard) {
  if (shard.pending_gets.empty()) return -1;
  int64_t now = MonotonicNanos();
  int64_t next_deadline = INT64_MAX;
  std::vector<PendingGet> expired;
  for (auto it = shard.pending_gets.begin();
       it != shard.pending_gets.end();) {
    if (it->deadline_ns > now) {
      next_deadline = std::min(next_deadline, it->deadline_ns);
      ++it;
      continue;
    }
    expired.push_back(std::move(*it));
    it = shard.pending_gets.erase(it);
    shard.parked_gets.fetch_sub(1, std::memory_order_relaxed);
  }

  if (!expired.empty()) {
    // Deadline reached: one final remote look-up for the stragglers (they
    // may have been sealed on a peer while we waited), batched across all
    // expired gets, then reply.
    std::vector<ObjectId> stragglers;
    Deadline straggler_deadline = expired.front().op_deadline;
    for (const PendingGet& pending : expired) {
      stragglers.insert(stragglers.end(), pending.waiting.begin(),
                        pending.waiting.end());
      if (pending.op_deadline.infinite() ||
          (!straggler_deadline.infinite() &&
           pending.op_deadline.when_ns() > straggler_deadline.when_ns())) {
        straggler_deadline = pending.op_deadline;
      }
    }
    auto resolved = BatchedRemoteLookup(stragglers, /*count_lookups=*/false,
                                        straggler_deadline);
    for (PendingGet& pending : expired) {
      auto conn_it = shard.clients.find(pending.fd);
      for (auto id_it = pending.waiting.begin();
           id_it != pending.waiting.end();) {
        if (conn_it != shard.clients.end()) {
          // Final local retry. This mostly matters for the spill tier:
          // a restore that failed with kOutOfMemory while the pool was
          // held solid by client refs (the object existed all along —
          // Contains said so) may succeed now that refs have dropped.
          auto local = TryLocalGet(*conn_it->second, *id_it);
          if (local.has_value()) {
            pending.ready.emplace(*id_it, *local);
            id_it = pending.waiting.erase(id_it);
            continue;
          }
        }
        auto hit = resolved.find(*id_it);
        if (hit == resolved.end() || conn_it == shard.clients.end()) {
          ++id_it;
          continue;
        }
        AdoptRemoteObject(shard, *conn_it->second, pending, *id_it,
                          hit->second, /*count_hit=*/false);
        id_it = pending.waiting.erase(id_it);
      }
      ReplyPendingGet(shard, pending);
    }
  }

  if (next_deadline == INT64_MAX) return -1;
  int64_t ms = (next_deadline - now + 999999) / 1000000;
  return static_cast<int>(std::max<int64_t>(ms, 1));
}

void Store::HandleRelease(Shard& home, ClientConn& conn,
                          uint64_t request_id,
                          std::span<const uint8_t> body) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<ReleaseRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }
  ReleaseReply reply;
  // Remote refs hold nothing at the home store, so they are consumed
  // first: a client whose reissued descriptor came back as a local hit
  // retires the stale remote ref and keeps the local pin it reads under.
  auto remote_it = conn.remote_refs.find(request->id);
  auto local_it = conn.local_pins.find(request->id);
  if (remote_it != conn.remote_refs.end()) {
    if (--remote_it->second == 0) conn.remote_refs.erase(remote_it);
  } else if (local_it != conn.local_pins.end()) {
    Shard& owner = OwnerShard(request->id);
    {
      MutexLock lock(owner.mutex);
      auto refs = owner.table.ReleaseRef(request->id);
      reply.status = refs.status();
    }
    if (--local_it->second == 0) {
      conn.local_pins.erase(local_it);
    }
  } else {
    reply.status = Status::KeyError("release: object " +
                                    request->id.Hex() + " not held");
  }
  QueueReply(home, conn, MessageType::kReleaseReply, request_id, reply);
}

void Store::HandleContains(Shard& home, ClientConn& conn,
                           uint64_t request_id,
                           std::span<const uint8_t> body) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<ContainsRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }
  Shard& owner = OwnerShard(request->id);
  ContainsReply reply;
  {
    MutexLock lock(owner.mutex);
    reply.contains = owner.table.ContainsSealed(request->id);
  }
  QueueReply(home, conn, MessageType::kContainsReply, request_id, reply);
}

void Store::HandleDelete(Shard& home, ClientConn& conn,
                         uint64_t request_id,
                         std::span<const uint8_t> body) {
  int fd = conn.link.fd();
  auto request = DecodeMessage<DeleteRequest>(body.data(), body.size());
  if (!request.ok()) {
    DropClient(home, fd);
    return;
  }
  Shard& owner = OwnerShard(request->id);
  DeleteReply reply;
  bool deleted = false;
  // Replica holders to notify once the local delete commits (origin
  // deletes propagate; a replica's local delete never touches peers).
  std::vector<uint32_t> replica_holders;
  {
    MutexLock lock(owner.mutex);
    auto removed = owner.table.Remove(request->id);
    reply.status = removed.status();
    if (removed.ok()) {
      if (shared_index_ != nullptr) {
        MutexLock index_lock(index_mutex_);
        // mdos-check: allow-discard(objects the index never admitted produce KeyError here; the withdrawal only has to hold for indexed ones)
        (void)shared_index_->Remove(request->id);
      }
      // Index withdrawal, then bump, then free (mapped-read seqlock
      // write order — see AllocateWithEviction).
      BumpGeneration(request->id);
      if (removed->state == ObjectState::kSpilled) {
        if (owner.spill.has_value()) {
          MDOS_WARN_IF_ERROR(owner.spill->Free(removed->spill_offset),
                             "freeing spill slot of deleted object");
          MaybeCompactSpill(owner);
        }
      } else {
        MDOS_WARN_IF_ERROR(owner.arena->Free(removed->offset),
                           "freeing pool bytes of deleted object");
      }
      owner.eviction.Remove(request->id);
      deleted = true;
      if (removed->origin_node == node_id_) {
        for (uint32_t holder : removed->copy_nodes) {
          if (holder != node_id_) replica_holders.push_back(holder);
        }
      }
    }
  }
  if (deleted) {
    if (dist_hooks_ != nullptr) {
      if (!replica_holders.empty()) {
        // mdos-check: allow-blocking(DistHooks replica-drop RPC fan-out, deadline-bounded; best-effort cleanup)
        dist_hooks_->DropReplicas(request->id, replica_holders);
      }
      dist_hooks_->NotifyDeleted(request->id);
    }
    Notification notice;
    notice.id = request->id;
    notice.deleted = true;
    FanOutNotification(&home, notice);
  }
  QueueReply(home, conn, MessageType::kDeleteReply, request_id, reply);
}

void Store::HandleList(Shard& home, ClientConn& conn,
                       uint64_t request_id) {
  // Cross-shard scan: one shard lock at a time, never two (lock-order
  // safety), merged into one reply.
  ListReply reply;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    auto objects = shard->table.List();
    reply.objects.insert(reply.objects.end(), objects.begin(),
                         objects.end());
  }
  QueueReply(home, conn, MessageType::kListReply, request_id, reply);
}

void Store::HandleStats(Shard& home, ClientConn& conn,
                        uint64_t request_id) {
  StatsReply reply;
  reply.stats = stats();
  QueueReply(home, conn, MessageType::kStatsReply, request_id, reply);
}

void Store::HandleShardStats(Shard& home, ClientConn& conn,
                             uint64_t request_id) {
  ShardStatsReply reply;
  reply.shards = shard_stats();
  QueueReply(home, conn, MessageType::kShardStatsReply, request_id,
             reply);
}

void Store::HandlePeerStats(Shard& home, ClientConn& conn,
                            uint64_t request_id) {
  PeerStatsReply reply;
  reply.peers = peer_stats();
  QueueReply(home, conn, MessageType::kPeerStatsReply, request_id, reply);
}

// ---- thread-safe peer surface ---------------------------------------------

std::vector<std::optional<RemoteObjectLocation>> Store::LookupManyForPeer(
    const std::vector<ObjectId>& ids) {
  std::vector<std::optional<RemoteObjectLocation>> out(ids.size());
  // Group by owning shard so a batched peer lookup takes each shard
  // mutex once instead of once per id.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    by_shard[ShardIndexOf(ids[i])].push_back(i);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& owner = *shards_[s];
    MutexLock lock(owner.mutex);
    // Objects already reported from this shard are ref-pinned until the
    // batch leaves the shard: a later id's restore re-runs eviction, and
    // without the pin it could re-spill an earlier hit and invalidate
    // the offset we just put in the reply.
    std::vector<ObjectId> reported;
    for (size_t i : by_shard[s]) {
      auto entry = owner.table.Lookup(ids[i]);
      if (entry.ok() && entry->state == ObjectState::kSpilled) {
        // Spilled objects are present as far as peers are concerned:
        // restore into the pool so the returned offset is readable over
        // the fabric. (Same transparency rule as a local Get.)
        entry = RestoreSpilled(owner, ids[i]);
      }
      if (!entry.ok() || entry->state != ObjectState::kSealed) continue;
      RemoteObjectLocation loc;
      loc.home_node = node_id_;
      loc.home_region = pool_region_;
      loc.offset = entry->offset;
      loc.data_size = entry->data_size;
      loc.metadata_size = entry->metadata_size;
      if (gen_table_ != nullptr) {
        // Stamp the descriptor with the current generation. Sampled
        // under the owner mutex, so it is consistent with the offset
        // above: any destructive transition after this point bumps the
        // slot, and the reader's post-copy re-check (or the peer's
        // cache-hit validation) catches it.
        loc.generation = gen_table_->Read(ids[i]);
        loc.gen_slot = gen_table_->SlotFor(ids[i]);
        loc.gen_region = gen_region_;
        loc.gen_epoch = gen_table_->epoch();
      }
      out[i] = loc;
      // mdos-check: allow-discard(momentary ref under the owner lock so the entry survives while the descriptor fields are copied; paired release below)
      (void)owner.table.AddRef(ids[i]);
      reported.push_back(ids[i]);
    }
    for (const ObjectId& id : reported) {
      // mdos-check: allow-discard(releasing the momentary ref taken above; the entries were present under this same lock)
      (void)owner.table.ReleaseRef(id);
    }
  }
  return out;
}

bool Store::ContainsId(const ObjectId& id) {
  Shard& owner = OwnerShard(id);
  MutexLock lock(owner.mutex);
  return owner.table.Contains(id);
}

// ---- k-way replication ------------------------------------------------------

namespace {

// Inserts `node` into `nodes` if absent (copy sets are small — a handful
// of node ids — so linear scan beats a set).
void MergeCopyNode(std::vector<uint32_t>& nodes, uint32_t node) {
  if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
    nodes.push_back(node);
  }
}

}  // namespace

void Store::ReplicateSealed(Shard& owner, const ObjectId& id) {
  if (dist_hooks_ == nullptr) return;
  std::vector<uint8_t> bytes;
  uint64_t data_size = 0;
  uint64_t metadata_size = 0;
  uint32_t desired = 0;
  uint32_t origin = 0;
  std::vector<uint32_t> holders;
  {
    MutexLock lock(owner.mutex);
    auto entry = owner.table.Lookup(id);
    if (!entry.ok()) return;
    if (entry->desired_copies <= 1) return;
    if (entry->copy_nodes.size() >= entry->desired_copies) return;
    if (entry->state == ObjectState::kSpilled) {
      auto restored = RestoreSpilled(owner, id);
      if (!restored.ok()) return;
      entry = restored;
    }
    if (entry->state != ObjectState::kSealed) return;
    // Snapshot the bytes under the mutex: the pool offset can be rebound
    // (evict, spill, delete + re-create) the moment the lock drops, and
    // the replicate RPCs below must not run under it.
    bytes.assign(pool_base_ + entry->offset,
                 pool_base_ + entry->offset + entry->total_size());
    data_size = entry->data_size;
    metadata_size = entry->metadata_size;
    desired = entry->desired_copies;
    origin = entry->origin_node;
    holders = entry->copy_nodes;
  }
  uint32_t wanted = desired - static_cast<uint32_t>(holders.size());
  // mdos-check: allow-blocking(DistHooks replication fan-out RPC, deadline-bounded; runs on seal, outside any shard mutex)
  std::vector<uint32_t> accepted = dist_hooks_->ReplicateObject(
      id, bytes.data(), data_size, metadata_size, wanted, holders, origin,
      desired);
  if (accepted.empty()) return;
  MutexLock lock(owner.mutex);
  auto entry = owner.table.Lookup(id);
  // Deleted or re-created (different origin) while the RPCs were in
  // flight: leave the new record alone. The stray remote copies are
  // reclaimed by the origin-delete fan-out or a later re-heal round.
  if (!entry.ok() || entry->origin_node != origin) return;
  std::vector<uint32_t> merged = entry->copy_nodes;
  for (uint32_t node : accepted) MergeCopyNode(merged, node);
  // mdos-check: allow-discard(the entry was verified live two lines up under this lock; a concurrent force-remove just makes the copy-set update moot)
  (void)owner.table.SetReplication(id, entry->desired_copies,
                                   entry->origin_node, std::move(merged));
}

Status Store::AcceptReplica(const ObjectId& id, uint32_t from_node,
                            uint32_t origin_node, uint32_t desired_copies,
                            const std::vector<uint32_t>& copy_nodes,
                            const uint8_t* data, uint64_t data_size,
                            uint64_t metadata_size) {
  (void)from_node;
  const uint64_t total = data_size + metadata_size;
  if (total == 0) return Status::Invalid("replica must not be empty");
  Shard& owner = OwnerShard(id);
  Notification notice;
  notice.id = id;
  notice.data_size = data_size;
  notice.metadata_size = metadata_size;
  {
    MutexLock lock(owner.mutex);
    auto existing = owner.table.Lookup(id);
    if (existing.ok()) {
      if (existing->state == ObjectState::kCreated) {
        // A local client is mid-create on the same id; the pusher treats
        // this as a miss and picks another target.
        return Status::AlreadyExists("replica target id " + id.Hex() +
                                     " is being created locally");
      }
      // Idempotent re-push (retry, or a re-heal round racing the
      // original fan-out): merge the copy sets, keep the bytes we have.
      std::vector<uint32_t> merged = existing->copy_nodes;
      for (uint32_t node : copy_nodes) MergeCopyNode(merged, node);
      MergeCopyNode(merged, node_id_);
      return owner.table.SetReplication(id, desired_copies, origin_node,
                                        std::move(merged));
    }
    MDOS_ASSIGN_OR_RETURN(alloc::Allocation allocation,
                          AllocateWithEviction(owner, total));
    std::memcpy(pool_base_ + allocation.offset, data, total);
    ObjectEntry entry;
    entry.id = id;
    entry.offset = allocation.offset;
    entry.data_size = data_size;
    entry.metadata_size = metadata_size;
    entry.desired_copies = desired_copies;
    entry.origin_node = origin_node;
    entry.copy_nodes = copy_nodes;
    MergeCopyNode(entry.copy_nodes, node_id_);
    Status added = owner.table.AddCreated(entry);
    if (!added.ok()) {
      MDOS_WARN_IF_ERROR(owner.arena->Free(allocation.offset),
                         "rolling back allocation of rejected replica");
      return added;
    }
    Status sealed = owner.table.Seal(id);
    if (!sealed.ok()) {
      // mdos-check: allow-discard(rollback of the record added four lines up; the seal failure itself is what propagates)
      (void)owner.table.Remove(id, /*force=*/true);
      MDOS_WARN_IF_ERROR(owner.arena->Free(allocation.offset),
                         "rolling back allocation of unsealable replica");
      return sealed;
    }
    owner.eviction.Add(id, total);
    // Same write-side order as a local Seal: bind the id to its bytes,
    // then publish into the shared index for zero-RPC peer lookups.
    BumpGeneration(id);
    if (shared_index_ != nullptr) {
      MutexLock index_lock(index_mutex_);
      // mdos-check: allow-discard(a full index is an expected steady state: readers fall back to the RPC path and the miss is visible in SharedIndexStats)
      (void)shared_index_->Insert(
          id, IndexedObject{allocation.offset, data_size, metadata_size});
    }
  }
  // A replica arrival is a seal as far as local waiters are concerned:
  // wake subscribers and parked Gets. Null origin — the RPC thread is
  // not a shard, so every shard gets a posted task.
  FanOutNotification(nullptr, notice);
  FanOutSealed(nullptr, id);
  return Status::OK();
}

Status Store::DropReplicaLocal(const ObjectId& id, uint32_t from_node) {
  Shard& owner = OwnerShard(id);
  Notification notice;
  notice.id = id;
  notice.deleted = true;
  {
    MutexLock lock(owner.mutex);
    auto entry = owner.table.Lookup(id);
    // Already gone — the drop is idempotent.
    if (!entry.ok()) return Status::OK();
    if (entry->origin_node != from_node || entry->origin_node == node_id_) {
      return Status::Invalid("replica drop: object " + id.Hex() +
                             " is not a replica of node " +
                             std::to_string(from_node));
    }
    auto removed = owner.table.Remove(id);
    if (!removed.ok()) return removed.status();
    if (shared_index_ != nullptr) {
      MutexLock index_lock(index_mutex_);
      // mdos-check: allow-discard(objects the index never admitted produce KeyError here; the withdrawal only has to hold for indexed ones)
      (void)shared_index_->Remove(id);
    }
    // Index withdrawal, then bump, then free (mapped-read seqlock write
    // order — see AllocateWithEviction).
    BumpGeneration(id);
    if (removed->state == ObjectState::kSpilled) {
      if (owner.spill.has_value()) {
        MDOS_WARN_IF_ERROR(owner.spill->Free(removed->spill_offset),
                           "freeing spill slot of dropped replica");
        MaybeCompactSpill(owner);
      }
    } else {
      MDOS_WARN_IF_ERROR(owner.arena->Free(removed->offset),
                         "freeing pool bytes of dropped replica");
    }
    owner.eviction.Remove(id);
  }
  FanOutNotification(nullptr, notice);
  return Status::OK();
}

void Store::RequestReheal(uint32_t dead_node) {
  {
    MutexLock lock(reheal_mutex_);
    if (!reheal_running_) return;
    // Dedup: a node death reported by several peers (or by both the
    // health monitor and a failed RPC) needs exactly one re-heal round.
    // A round already RUNNING for the node is not deduped against — it
    // may have sampled the copy sets before the report arrived.
    for (uint32_t queued : reheal_queue_) {
      if (queued == dead_node) {
        reheal_deduped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    // Bound: a pathological flood of death reports (chaos harness,
    // flapping partition detector) must not grow the queue without
    // limit. Dropped entries are visible in StoreStats::reheal_dropped;
    // a later health-monitor round re-reports nodes that stay dead.
    if (reheal_queue_.size() >= kMaxRehealQueue) {
      reheal_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    reheal_queue_.push_back(dead_node);
    ++reheal_inflight_;
  }
  reheal_cv_.NotifyOne();
}

uint64_t Store::PendingReheals() {
  MutexLock lock(reheal_mutex_);
  return reheal_inflight_;
}

void Store::RehealLoop() {
  // Sweep cadence: only when degraded objects exist, backing off
  // (doubling, capped) while sweeps make no progress so a genuinely
  // unreachable target is not hammered every wake-up.
  int64_t sweep_backoff_ms = 200;
  int64_t next_sweep_ns = 0;
  for (;;) {
    uint32_t dead = 0;
    bool have_dead = false;
    {
      MutexLock lock(reheal_mutex_);
      reheal_cv_.WaitFor(reheal_mutex_, std::chrono::milliseconds(200),
                         [this]() {
                           reheal_mutex_.AssertHeld();
                           return !reheal_running_ ||
                                  !reheal_queue_.empty();
                         });
      if (!reheal_running_) return;
      if (!reheal_queue_.empty()) {
        dead = reheal_queue_.front();
        reheal_queue_.erase(reheal_queue_.begin());
        have_dead = true;
      }
    }
    if (have_dead) {
      RehealForDeadNode(dead);
      {
        MutexLock lock(reheal_mutex_);
        --reheal_inflight_;
      }
      continue;
    }
    // Idle: retry any copies whose earlier push failed.
    bool degraded = false;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mutex);
      if (shard->table.under_replicated() > 0) {
        degraded = true;
        break;
      }
    }
    if (!degraded) {
      sweep_backoff_ms = 200;
      continue;
    }
    const int64_t now_ns = MonotonicNanos();
    if (now_ns < next_sweep_ns) continue;
    if (RehealSweep() > 0) {
      sweep_backoff_ms = 200;
    } else {
      sweep_backoff_ms = std::min<int64_t>(sweep_backoff_ms * 2, 5000);
    }
    next_sweep_ns = MonotonicNanos() + sweep_backoff_ms * 1000000;
  }
}

uint64_t Store::RehealSweep() {
  uint64_t healed_copies = 0;
  uint64_t healed_bytes = 0;
  for (auto& shard : shards_) {
    Shard& owner = *shard;
    std::vector<ObjectId> to_heal;
    {
      MutexLock lock(owner.mutex);
      for (const ObjectId& id : owner.table.CollectUnderReplicated()) {
        auto entry = owner.table.Lookup(id);
        if (!entry.ok() || entry->copy_nodes.empty()) continue;
        // Same deterministic healer election as the death path: the
        // lowest believed holder pushes, so concurrent sweeps on
        // different holders don't double-replicate.
        uint32_t healer = *std::min_element(entry->copy_nodes.begin(),
                                            entry->copy_nodes.end());
        if (healer == node_id_) to_heal.push_back(id);
      }
    }
    for (const ObjectId& id : to_heal) {
      size_t before = 0;
      uint64_t size = 0;
      {
        MutexLock lock(owner.mutex);
        auto entry = owner.table.Lookup(id);
        if (!entry.ok()) continue;
        before = entry->copy_nodes.size();
        size = entry->total_size();
      }
      ReplicateSealed(owner, id);
      {
        MutexLock lock(owner.mutex);
        auto entry = owner.table.Lookup(id);
        if (entry.ok() && entry->copy_nodes.size() > before) {
          uint64_t added = entry->copy_nodes.size() - before;
          healed_copies += added;
          healed_bytes += added * size;
        }
      }
    }
  }
  if (healed_copies > 0) {
    reheal_copies_.fetch_add(healed_copies, std::memory_order_relaxed);
    reheal_bytes_.fetch_add(healed_bytes, std::memory_order_relaxed);
    MDOS_LOG_INFO << "store " << options_.name << ": re-heal sweep pushed "
                  << healed_copies << " copies (" << healed_bytes
                  << " bytes)";
  }
  return healed_copies;
}

void Store::RehealForDeadNode(uint32_t dead) {
  uint64_t healed_copies = 0;
  uint64_t healed_bytes = 0;
  for (auto& shard : shards_) {
    Shard& owner = *shard;
    // Objects this store must push a fresh copy of: below their desired
    // count after the strip, and this node won the healer election.
    std::vector<ObjectId> to_heal;
    {
      MutexLock lock(owner.mutex);
      for (const ObjectId& id : owner.table.CollectReplicatedWith(dead)) {
        auto entry = owner.table.Lookup(id);
        if (!entry.ok()) continue;
        std::vector<uint32_t> live;
        live.reserve(entry->copy_nodes.size());
        for (uint32_t node : entry->copy_nodes) {
          if (node != dead) live.push_back(node);
        }
        if (live.empty() || live.size() == entry->copy_nodes.size()) {
          continue;
        }
        // Every surviving holder runs the same computation on the same
        // copy set, so they all agree on the new origin and on which one
        // of them heals: the lowest live node id. Deterministic — no
        // coordination round needed.
        uint32_t healer = *std::min_element(live.begin(), live.end());
        uint32_t origin =
            entry->origin_node == dead ? healer : entry->origin_node;
        // mdos-check: allow-discard(the entry was verified live at the top of this loop body under this lock; a concurrent delete makes the update moot)
        (void)owner.table.SetReplication(id, entry->desired_copies,
                                         origin, live);
        if (live.size() < entry->desired_copies && healer == node_id_) {
          to_heal.push_back(id);
        }
      }
    }
    for (const ObjectId& id : to_heal) {
      size_t before = 0;
      uint64_t size = 0;
      {
        MutexLock lock(owner.mutex);
        auto entry = owner.table.Lookup(id);
        if (!entry.ok()) continue;
        before = entry->copy_nodes.size();
        size = entry->total_size();
      }
      // Restores from the spill tier if needed, pushes to registry-
      // chosen peers outside any lock, merges acceptors into the record.
      ReplicateSealed(owner, id);
      {
        MutexLock lock(owner.mutex);
        auto entry = owner.table.Lookup(id);
        if (entry.ok() && entry->copy_nodes.size() > before) {
          uint64_t added = entry->copy_nodes.size() - before;
          healed_copies += added;
          healed_bytes += added * size;
        }
      }
    }
  }
  if (healed_copies > 0) {
    reheal_copies_.fetch_add(healed_copies, std::memory_order_relaxed);
    reheal_bytes_.fetch_add(healed_bytes, std::memory_order_relaxed);
    MDOS_LOG_INFO << "store " << options_.name << ": re-heal after node "
                  << dead << " death pushed " << healed_copies
                  << " copies (" << healed_bytes << " bytes)";
  }
}

StoreStats Store::stats() {
  StoreStats s;
  s.capacity = options_.capacity;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    s.bytes_in_use += shard->table.bytes_in_use();
    s.objects_total += shard->table.size();
    s.objects_sealed += shard->table.sealed_count();
    s.evictions += shard->eviction_count;
    s.spilled_objects += shard->table.spilled_count();
    s.spilled_bytes += shard->table.spilled_bytes();
    s.spills += shard->spill_count;
    s.spill_restores += shard->restore_count;
    s.frames_tx += shard->tx_frames.load(std::memory_order_relaxed);
    s.frames_coalesced +=
        shard->tx_frames_coalesced.load(std::memory_order_relaxed);
    s.writev_calls +=
        shard->tx_writev_calls.load(std::memory_order_relaxed);
    s.bytes_tx += shard->tx_bytes.load(std::memory_order_relaxed);
    s.egress_blocked_events +=
        shard->tx_blocked_events.load(std::memory_order_relaxed);
    s.mapped_reads += shard->mapped_reads.load(std::memory_order_relaxed);
    s.mapped_bytes += shard->mapped_bytes.load(std::memory_order_relaxed);
    s.mapped_fallbacks +=
        shard->mapped_fallbacks.load(std::memory_order_relaxed);
    s.replicas_total += shard->table.replicas_total();
    s.under_replicated += shard->table.under_replicated();
  }
  s.reheal_copies = reheal_copies_.load(std::memory_order_relaxed);
  s.reheal_bytes = reheal_bytes_.load(std::memory_order_relaxed);
  s.reheal_deduped = reheal_deduped_.load(std::memory_order_relaxed);
  s.reheal_dropped = reheal_dropped_.load(std::memory_order_relaxed);
  {
    MutexLock lock(reheal_mutex_);
    s.reheal_queue_depth = reheal_queue_.size();
  }
  s.remote_lookups = remote_lookups_.load(std::memory_order_relaxed);
  s.remote_lookup_hits =
      remote_lookup_hits_.load(std::memory_order_relaxed);
  // Peer-health totals from the dist layer (empty without peers).
  if (dist_hooks_ != nullptr) {
    // Generation-mismatch invalidations of cached descriptors live in
    // the dist layer (it validates against peers' generation tables).
    s.generation_retries = dist_hooks_->GenerationRetries();
    // Deadline/hedging outcomes likewise accumulate in the dist layer
    // (it owns the per-peer RPC machinery).
    DistHooks::RobustnessCounters robust =
        dist_hooks_->GetRobustnessCounters();
    s.deadline_exceeded = robust.deadline_exhausted;
    s.hedged_reads = robust.hedged_reads;
    s.hedge_wins = robust.hedge_wins;
    s.hedge_budget_denied = robust.hedge_budget_denied;
    for (const PeerStatsEntry& peer : dist_hooks_->PeerHealth()) {
      ++s.peers_total;
      if (peer.state == 0) ++s.peers_healthy;
      if (peer.state == 1) ++s.peers_suspect;
      if (peer.state == 2) ++s.peers_dead;
      s.peer_failed_rpcs += peer.failed_rpcs;
      s.peer_reconnects += peer.reconnects;
      s.peer_heartbeats += peer.heartbeats;
    }
  }
  return s;
}

std::vector<PeerStatsEntry> Store::peer_stats() {
  if (dist_hooks_ == nullptr) return {};
  return dist_hooks_->PeerHealth();
}

std::vector<ShardStatsEntry> Store::shard_stats() {
  std::vector<ShardStatsEntry> out;
  out.reserve(shards_.size());
  for (auto& shard : shards_) {
    ShardStatsEntry entry;
    entry.shard = shard->index;
    {
      MutexLock lock(shard->mutex);
      entry.objects_total = shard->table.size();
      entry.objects_sealed = shard->table.sealed_count();
      entry.bytes_in_use = shard->table.bytes_in_use();
      entry.evictions = shard->eviction_count;
      entry.spilled_objects = shard->table.spilled_count();
      entry.spilled_bytes = shard->table.spilled_bytes();
      entry.spill_restores = shard->restore_count;
      entry.replicas_total = shard->table.replicas_total();
      entry.under_replicated = shard->table.under_replicated();
    }
    entry.arena_capacity = pool_alloc_->arena_capacity(shard->index);
    entry.clients = shard->client_count.load(std::memory_order_relaxed);
    entry.inflight_gets =
        shard->parked_gets.load(std::memory_order_relaxed);
    entry.frames_tx = shard->tx_frames.load(std::memory_order_relaxed);
    entry.frames_coalesced =
        shard->tx_frames_coalesced.load(std::memory_order_relaxed);
    entry.writev_calls =
        shard->tx_writev_calls.load(std::memory_order_relaxed);
    entry.bytes_tx = shard->tx_bytes.load(std::memory_order_relaxed);
    entry.egress_blocked_events =
        shard->tx_blocked_events.load(std::memory_order_relaxed);
    entry.mapped_reads =
        shard->mapped_reads.load(std::memory_order_relaxed);
    entry.mapped_bytes =
        shard->mapped_bytes.load(std::memory_order_relaxed);
    entry.mapped_fallbacks =
        shard->mapped_fallbacks.load(std::memory_order_relaxed);
    out.push_back(entry);
  }
  return out;
}

alloc::AllocatorStats Store::allocator_stats() {
  std::vector<alloc::AllocatorStats> parts;
  parts.reserve(shards_.size());
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    parts.push_back(shard->arena->stats());
  }
  return alloc::ShardedAllocator::Merge(parts);
}

}  // namespace mdos::plasma
