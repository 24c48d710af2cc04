#include "plasma/async_client.h"

#include <sys/socket.h>

#include "common/log.h"
#include "net/frame.h"
#include "net/socket.h"

namespace mdos::plasma {

Result<std::unique_ptr<AsyncClient>> AsyncClient::Connect(
    const std::string& socket_path, ClientOptions options) {
  auto client = std::unique_ptr<AsyncClient>(new AsyncClient());
  client->options_ = options;
  MDOS_ASSIGN_OR_RETURN(client->fd_, net::UdsConnect(socket_path));

  // The handshake is the one synchronous exchange: nothing else can be in
  // flight before the pool fd has crossed the socket.
  ConnectRequest request;
  request.client_name = options.client_name;
  const uint64_t handshake_id = client->next_request_id_.fetch_add(1);
  MDOS_RETURN_IF_ERROR(SendMessage(client->fd_.get(),
                                   MessageType::kConnectRequest,
                                   handshake_id, request));
  MDOS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> body,
      RecvExpect(client->fd_.get(), MessageType::kConnectReply));
  MDOS_ASSIGN_OR_RETURN(ConnectReply reply,
                        DecodeMessage<ConnectReply>(body));
  client->node_id_ = reply.node_id;
  client->pool_region_ = reply.pool_region_id;
  client->pool_size_ = reply.pool_size;
  client->pool_slab_offset_ = reply.pool_slab_offset;
  client->store_name_ = reply.store_name;

  // The store follows the reply with the pool memfd.
  MDOS_ASSIGN_OR_RETURN(net::UniqueFd pool_fd,
                        net::RecvFd(client->fd_.get()));

  if (options.fabric != nullptr && reply.pool_region_id != UINT32_MAX) {
    // Fabric mode: attach the local pool region for modelled access. The
    // client runs on the store's node, so this is a local attachment.
    MDOS_ASSIGN_OR_RETURN(
        tf::AttachedRegion local,
        options.fabric->Attach(reply.node_id, reply.pool_region_id));
    client->local_region_ =
        std::make_shared<tf::AttachedRegion>(std::move(local));
  } else {
    // Raw mode: mmap the shared pool like upstream Plasma clients do.
    MDOS_ASSIGN_OR_RETURN(
        auto map, net::MemfdSegment::Map(
                      std::move(pool_fd),
                      reply.pool_slab_offset + reply.pool_size));
    client->pool_map_.emplace(std::move(map));
  }

  // Mapped buffers handed out by this client reach back through the
  // refetch context for their generation-mismatch fallback.
  client->refetch_ = std::make_shared<ObjectBuffer::RefetchContext>();
  {
    MutexLock lock(client->refetch_->mutex);
    client->refetch_->client = client.get();
  }

  {
    MutexLock lock(client->pending_mutex_);
    client->running_ = true;
  }
  client->reader_ = std::thread([raw = client.get()] { raw->ReaderLoop(); });
  return client;
}

// mdos-check: allow-discard(a destructor has no error channel; Disconnect on an already-closed client reports NotConnected, which is exactly this path)
AsyncClient::~AsyncClient() { (void)Disconnect(); }

Status AsyncClient::Disconnect() {
  // Serializes concurrent disconnect/destructor paths (double-join UB).
  MutexLock disconnect_lock(disconnect_mutex_);
  // Detach outstanding mapped buffers first: their fallback path holds
  // the context mutex across its round-trip, so this blocks until any
  // in-flight refetch finishes (the reader is still running here) and
  // no new one can grab the client afterwards.
  if (refetch_ != nullptr) {
    MutexLock lock(refetch_->mutex);
    refetch_->client = nullptr;
  }
  bool was_running;
  {
    MutexLock lock(pending_mutex_);
    was_running = running_;
    running_ = false;
  }
  if (was_running) {
    MutexLock lock(send_mutex_);
    if (fd_.valid()) {
      ListRequest dummy;  // DisconnectRequest carries no payload
      // mdos-check: allow-discard(courtesy notice so the store drops us promptly; if the store is already gone the shutdown below cleans up the same way)
      (void)SendMessage(fd_.get(), MessageType::kDisconnectRequest,
                        kNoRequestId, dummy);
      // Wakes the reply-dispatch thread out of its blocking read; it
      // fails every outstanding promise before exiting.
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
  }
  if (reader_.joinable()) reader_.join();
  // Belt and braces: if the reader never ran, fail stragglers here.
  FailAllPending(Status::NotConnected("client disconnected"));
  {
    // Senders read fd_ only under send_mutex_, so closing it here cannot
    // race a write onto a recycled descriptor.
    MutexLock lock(send_mutex_);
    fd_.Reset();
  }
  return Status::OK();
}

size_t AsyncClient::inflight() const {
  MutexLock lock(pending_mutex_);
  return pending_.size();
}

void AsyncClient::FailAllPending(const Status& status) {
  std::unordered_map<uint64_t, ReplyHandler> orphans;
  {
    MutexLock lock(pending_mutex_);
    orphans.swap(pending_);
    running_ = false;
  }
  for (auto& [id, handler] : orphans) {
    (void)id;
    handler(MessageType::kNotification, status, {});
  }
}

void AsyncClient::ReaderLoop() {
  // Scratch frame reused across replies: its payload capacity grows to
  // the largest reply seen and then the loop stops allocating.
  net::Frame frame;
  for (;;) {
    Status received = net::RecvFrame(fd_.get(), &frame);
    if (!received.ok()) {
      FailAllPending(Status::NotConnected(
          "connection closed: " + received.ToString()));
      return;
    }
    const auto type = static_cast<MessageType>(frame.type);
    if (type == MessageType::kNotification) {
      continue;  // subscriptions use a dedicated listener connection
    }
    auto tag = PeekRequestId(frame.payload);
    if (!tag.ok()) {
      FailAllPending(tag.status());
      return;
    }
    ReplyHandler handler;
    {
      MutexLock lock(pending_mutex_);
      auto it = pending_.find(*tag);
      if (it != pending_.end()) {
        handler = std::move(it->second);
        pending_.erase(it);
      }
    }
    if (handler) {
      handler(type, Status::OK(), frame.payload);
    } else {
      MDOS_LOG_WARN << "async client: reply for unknown request " << *tag;
    }
  }
}

template <typename ReplyT, typename RequestT, typename Fn>
auto AsyncClient::Dispatch(MessageType request_type, MessageType reply_type,
                           const RequestT& request, Deadline deadline,
                           Fn transform)
    -> Future<std::invoke_result_t<Fn, ReplyT&&>> {
  using T = std::invoke_result_t<Fn, ReplyT&&>;
  Promise<T> promise;
  Future<T> future = promise.GetFuture();

  // Fail-fast contract: an operation whose budget is already gone never
  // touches the socket (and therefore never dials, queues, or sheds).
  if (deadline.expired()) {
    promise.Set(T(Status::DeadlineExceeded(
        "operation deadline expired before dispatch")));
    return future;
  }

  const uint64_t request_id = next_request_id_.fetch_add(1);
  {
    MutexLock lock(pending_mutex_);
    if (!running_) {
      promise.Set(T(Status::NotConnected("client disconnected")));
      return future;
    }
    // Registered before the send so a reply can never beat its handler.
    pending_.emplace(
        request_id,
        [promise, reply_type, transform](
            MessageType type, const Status& status,
            std::span<const uint8_t> payload) mutable {
          if (!status.ok()) {
            promise.Set(T(status));
            return;
          }
          if (type != reply_type) {
            promise.Set(T(Status::ProtocolError(
                "unexpected reply type " +
                std::to_string(static_cast<uint32_t>(type)))));
            return;
          }
          auto reply = DecodeMessage<ReplyT>(payload.data(), payload.size());
          if (!reply.ok()) {
            promise.Set(T(reply.status()));
            return;
          }
          promise.Set(transform(std::move(reply).value()));
        });
  }

  Status sent;
  {
    MutexLock lock(send_mutex_);
    send_writer_.Reset();
    // Remaining budget sampled at send time: queueing above this point
    // (the send mutex) is already charged against the operation.
    const uint64_t budget_ms =
        deadline.infinite()
            ? 0
            : static_cast<uint64_t>(deadline.remaining_ms_ceil());
    EncodeMessage(send_writer_, request_id, budget_ms, request);
    sent = net::SendFrame(fd_.get(), static_cast<uint32_t>(request_type),
                          send_writer_.data(), send_writer_.size());
  }
  if (!sent.ok()) {
    ReplyHandler handler;
    {
      MutexLock lock(pending_mutex_);
      auto it = pending_.find(request_id);
      if (it != pending_.end()) {
        handler = std::move(it->second);
        pending_.erase(it);
      }
    }
    if (handler) handler(reply_type, sent, {});
  }
  return future;
}

// ---- buffer construction ---------------------------------------------------

Result<std::shared_ptr<tf::AttachedRegion>> AsyncClient::ResolveRegion(
    uint32_t node, uint32_t region) {
  if (options_.fabric == nullptr) {
    return Status::Unavailable(
        "remote object requires a fabric-enabled client");
  }
  auto key = std::make_pair(node, region);
  {
    MutexLock lock(region_mutex_);
    auto it = attachments_.find(key);
    if (it != attachments_.end()) return it->second;
  }
  // Attach outside the lock (the fabric has its own synchronization);
  // concurrent resolvers of the same region race benignly — last one in
  // wins the cache slot, both attachments stay usable.
  MDOS_ASSIGN_OR_RETURN(tf::AttachedRegion attached,
                        options_.fabric->Attach(node_id_, region));
  auto shared = std::make_shared<tf::AttachedRegion>(std::move(attached));
  MutexLock lock(region_mutex_);
  attachments_[key] = shared;
  return shared;
}

Result<std::shared_ptr<const MappedGenTable>> AsyncClient::ResolveGenTable(
    uint32_t node, uint32_t region) {
  auto key = std::make_pair(node, region);
  {
    MutexLock lock(region_mutex_);
    auto it = gen_tables_.find(key);
    if (it != gen_tables_.end()) return it->second;
  }
  // ResolveRegion owns the attach-outside-the-lock discipline; the same
  // benign last-writer-wins race applies to the reader cache slot.
  MDOS_ASSIGN_OR_RETURN(std::shared_ptr<tf::AttachedRegion> attachment,
                        ResolveRegion(node, region));
  MDOS_ASSIGN_OR_RETURN(
      GenerationReader reader,
      GenerationReader::Open(attachment->unsafe_data(), attachment->size(),
                             options_.fabric->config().remote));
  auto table = std::make_shared<const MappedGenTable>(
      MappedGenTable{std::move(attachment), std::move(reader)});
  MutexLock lock(region_mutex_);
  gen_tables_[key] = table;
  return table;
}

ObjectBuffer AsyncClient::MakeBuffer(const GetReplyEntry& entry,
                                     bool writable) {
  ObjectBuffer buffer;
  buffer.id_ = entry.id;
  buffer.data_size_ = entry.data_size;
  buffer.metadata_size_ = entry.metadata_size;
  buffer.writable_ = writable;
  if (!entry.found) return buffer;  // invalid

  if (entry.location == ObjectLocation::kRemote) {
    auto region = ResolveRegion(entry.home_node, entry.home_region);
    if (!region.ok()) return buffer;  // invalid
    buffer.region_ = std::move(region).value();
    buffer.base_ = entry.offset;
    buffer.remote_ = true;
    if (entry.mapped && entry.gen_region != UINT32_MAX) {
      // Mapped descriptor: nothing pins these bytes at their home store,
      // so wire up generation validation. An unreachable table leaves
      // the descriptor unverifiable — treat the entry as not found
      // rather than serve bytes that could be torn.
      auto gen = ResolveGenTable(entry.home_node, entry.gen_region);
      if (!gen.ok()) return buffer;  // invalid
      buffer.gen_ = std::move(gen).value();
      buffer.generation_ = entry.generation;
      buffer.gen_slot_ = entry.gen_slot;
      buffer.gen_epoch_ = entry.gen_epoch;
      buffer.refetch_ = refetch_;
    }
    buffer.valid_ = true;
    return buffer;
  }

  if (local_region_ != nullptr) {
    buffer.region_ = local_region_;
    buffer.base_ = entry.offset;
  } else if (pool_map_.has_value()) {
    buffer.raw_ = pool_map_->data() + pool_slab_offset_;
    buffer.base_ = entry.offset;
  } else {
    return buffer;  // invalid
  }
  buffer.valid_ = true;
  return buffer;
}

// ---- operations ------------------------------------------------------------

Future<Result<ObjectBuffer>> AsyncClient::CreateAsync(
    const ObjectId& id, uint64_t data_size, uint64_t metadata_size,
    bool replicate, Deadline deadline) {
  CreateRequest request;
  request.id = id;
  request.data_size = data_size;
  request.metadata_size = metadata_size;
  request.replicate = replicate;
  return Dispatch<CreateReply>(
      MessageType::kCreateRequest, MessageType::kCreateReply, request,
      deadline,
      [this, id](CreateReply&& reply) -> Result<ObjectBuffer> {
        if (!reply.status.ok()) return reply.status;
        GetReplyEntry entry;
        entry.id = id;
        entry.found = true;
        entry.location = ObjectLocation::kLocal;
        entry.offset = reply.offset;
        entry.data_size = reply.data_size;
        entry.metadata_size = reply.metadata_size;
        ObjectBuffer buffer = MakeBuffer(entry, /*writable=*/true);
        if (!buffer.valid()) {
          return Status::Unknown("could not map created buffer");
        }
        return buffer;
      });
}

Future<Status> AsyncClient::SealAsync(const ObjectId& id,
                                      Deadline deadline) {
  SealRequest request;
  request.id = id;
  return Dispatch<SealReply>(
      MessageType::kSealRequest, MessageType::kSealReply, request, deadline,
      [](SealReply&& reply) { return reply.status; });
}

Future<Status> AsyncClient::AbortAsync(const ObjectId& id,
                                       Deadline deadline) {
  AbortRequest request;
  request.id = id;
  return Dispatch<AbortReply>(
      MessageType::kAbortRequest, MessageType::kAbortReply, request,
      deadline,
      [](AbortReply&& reply) { return reply.status; });
}

Future<Result<std::vector<ObjectBuffer>>> AsyncClient::GetAsync(
    const std::vector<ObjectId>& ids, uint64_t timeout_ms,
    Deadline deadline) {
  GetRequest request;
  request.ids = ids;
  request.timeout_ms = timeout_ms;
  return Dispatch<GetReply>(
      MessageType::kGetRequest, MessageType::kGetReply, request, deadline,
      [this](GetReply&& reply) -> Result<std::vector<ObjectBuffer>> {
        if (!reply.status.ok()) return reply.status;
        std::vector<ObjectBuffer> buffers;
        buffers.reserve(reply.entries.size());
        for (const GetReplyEntry& entry : reply.entries) {
          buffers.push_back(MakeBuffer(entry, /*writable=*/false));
        }
        return buffers;
      });
}

Future<Result<ObjectBuffer>> AsyncClient::GetAsync(const ObjectId& id,
                                                   uint64_t timeout_ms,
                                                   bool fallback,
                                                   Deadline deadline) {
  GetRequest request;
  request.ids = {id};
  request.timeout_ms = timeout_ms;
  request.fallback = fallback;
  return Dispatch<GetReply>(
      MessageType::kGetRequest, MessageType::kGetReply, request, deadline,
      [this, id](GetReply&& reply) -> Result<ObjectBuffer> {
        if (!reply.status.ok()) return reply.status;
        if (reply.entries.empty()) {
          return Status::Unknown("empty get reply");
        }
        ObjectBuffer buffer =
            MakeBuffer(reply.entries[0], /*writable=*/false);
        if (!buffer.valid()) {
          return Status::KeyError("object " + id.Hex() + " not found");
        }
        return buffer;
      });
}

Status AsyncClient::RefetchMapped(const ObjectBuffer& stale) {
  // The descriptor went stale mid-read: its object was evicted, spilled,
  // deleted, or re-created at the home store. Reissue the Get: the
  // store's lookup drops the stale cache entry on its generation check,
  // the home restores a spilled object, and a freshly stamped descriptor
  // comes back (`fallback` tags the request so the store counts
  // mapped_fallbacks). A gone object fails here with KeyError.
  MDOS_ASSIGN_OR_RETURN(ObjectBuffer fresh,
                        GetAsync(stale.id_, /*timeout_ms=*/0,
                                 /*fallback=*/true, Deadline::Infinite())
                            .Take());
  // One Release retires the stale reference — the store consumes remote
  // refs (which hold nothing) before local pins — leaving exactly the
  // fresh reference for the caller's eventual Release. This holds on the
  // error path below too.
  MDOS_WARN_IF_ERROR(ReleaseAsync(stale.id_).Take(),
                     "retiring stale mapped reference during refetch");
  if (fresh.data_size_ != stale.data_size_ ||
      fresh.metadata_size_ != stale.metadata_size_) {
    // The id was re-created with a different shape; offsets the caller
    // derived from the stale buffer are meaningless against it.
    return Status::Invalid("object " + stale.id_.Hex() +
                           " was replaced while a mapped read was in "
                           "flight");
  }
  // Rebind the caller's buffer onto the fresh backing, validation state
  // included: the retried copy is checked against the new generation.
  stale.region_ = fresh.region_;
  stale.raw_ = fresh.raw_;
  stale.base_ = fresh.base_;
  stale.remote_ = fresh.remote_;
  stale.gen_ = fresh.gen_;
  stale.generation_ = fresh.generation_;
  stale.gen_slot_ = fresh.gen_slot_;
  stale.gen_epoch_ = fresh.gen_epoch_;
  return Status::OK();
}

Future<Status> AsyncClient::ReleaseAsync(const ObjectId& id,
                                         Deadline deadline) {
  ReleaseRequest request;
  request.id = id;
  return Dispatch<ReleaseReply>(
      MessageType::kReleaseRequest, MessageType::kReleaseReply, request,
      deadline,
      [](ReleaseReply&& reply) { return reply.status; });
}

Future<Result<bool>> AsyncClient::ContainsAsync(const ObjectId& id,
                                                Deadline deadline) {
  ContainsRequest request;
  request.id = id;
  return Dispatch<ContainsReply>(
      MessageType::kContainsRequest, MessageType::kContainsReply, request,
      deadline,
      [](ContainsReply&& reply) -> Result<bool> { return reply.contains; });
}

Future<Status> AsyncClient::DeleteAsync(const ObjectId& id,
                                        Deadline deadline) {
  DeleteRequest request;
  request.id = id;
  return Dispatch<DeleteReply>(
      MessageType::kDeleteRequest, MessageType::kDeleteReply, request,
      deadline,
      [](DeleteReply&& reply) { return reply.status; });
}

Future<Result<std::vector<ObjectInfo>>> AsyncClient::ListAsync() {
  ListRequest request;
  return Dispatch<ListReply>(
      MessageType::kListRequest, MessageType::kListReply, request,
      Deadline::Infinite(),
      [](ListReply&& reply) -> Result<std::vector<ObjectInfo>> {
        return std::move(reply.objects);
      });
}

Future<Result<StoreStats>> AsyncClient::StatsAsync() {
  StatsRequest request;
  return Dispatch<StatsReply>(
      MessageType::kStatsRequest, MessageType::kStatsReply, request,
      Deadline::Infinite(),
      [](StatsReply&& reply) -> Result<StoreStats> { return reply.stats; });
}

Future<Result<std::vector<ShardStatsEntry>>> AsyncClient::ShardStatsAsync() {
  ShardStatsRequest request;
  return Dispatch<ShardStatsReply>(
      MessageType::kShardStatsRequest, MessageType::kShardStatsReply,
      request, Deadline::Infinite(),
      [](ShardStatsReply&& reply) -> Result<std::vector<ShardStatsEntry>> {
        return std::move(reply.shards);
      });
}

Future<Result<std::vector<PeerStatsEntry>>> AsyncClient::PeerStatsAsync() {
  PeerStatsRequest request;
  return Dispatch<PeerStatsReply>(
      MessageType::kPeerStatsRequest, MessageType::kPeerStatsReply,
      request, Deadline::Infinite(),
      [](PeerStatsReply&& reply) -> Result<std::vector<PeerStatsEntry>> {
        return std::move(reply.peers);
      });
}

}  // namespace mdos::plasma
