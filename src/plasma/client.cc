#include "plasma/client.h"

#include <poll.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "net/frame.h"
#include "net/socket.h"
#include "plasma/async_client.h"

namespace mdos::plasma {

// ---- ObjectBuffer ----------------------------------------------------------

Status ObjectBuffer::CheckAccess(uint64_t section_size, uint64_t offset,
                                 uint64_t size) const {
  if (!valid_) return Status::Invalid("buffer is not valid");
  if (offset + size < offset || offset + size > section_size) {
    return Status::Invalid("buffer access out of bounds");
  }
  return Status::OK();
}

Status ObjectBuffer::RawRead(uint64_t offset, void* dst,
                             uint64_t size) const {
  // A generation mismatch after a copy reissues the descriptor
  // (Reissue rebinds the backing and its generation) and copies again,
  // at most kMaxMappedReadRounds times. The caller never sees torn data:
  // a failed or exhausted reissue surfaces as an error, not as the copy.
  for (uint32_t round = 1;; ++round) {
    if (region_ != nullptr) {
      MDOS_RETURN_IF_ERROR(region_->Read(base_ + offset, dst, size));
    } else {
      std::memcpy(dst, raw_ + base_ + offset, size);
    }
    if (gen_ == nullptr || GenerationIntact()) return Status::OK();
    MDOS_RETURN_IF_ERROR(Reissue(round));
  }
}

Status ObjectBuffer::RawWrite(uint64_t offset, const void* src,
                              uint64_t size) {
  if (region_ != nullptr) {
    return region_->Write(base_ + offset, src, size);
  }
  std::memcpy(raw_ + base_ + offset, src, size);
  return Status::OK();
}

Status ObjectBuffer::ReadData(uint64_t offset, void* dst,
                              uint64_t size) const {
  MDOS_RETURN_IF_ERROR(CheckAccess(data_size_, offset, size));
  return RawRead(offset, dst, size);
}

Status ObjectBuffer::WriteData(uint64_t offset, const void* src,
                               uint64_t size) {
  MDOS_RETURN_IF_ERROR(CheckAccess(data_size_, offset, size));
  if (!writable_) {
    return Status::Sealed("buffer is read-only (object is sealed)");
  }
  return RawWrite(offset, src, size);
}

Result<uint32_t> ObjectBuffer::ChecksumData(uint64_t chunk) const {
  if (!valid_) return Status::Invalid("buffer is not valid");
  // Same retry shape as RawRead. The whole streaming checksum restarts
  // after a reissue: chunks copied before and after a transition must
  // never be mixed into one CRC.
  for (uint32_t round = 1;; ++round) {
    Result<uint32_t> crc =
        region_ != nullptr
            ? region_->ChecksumRead(base_, data_size_, chunk)
            : Result<uint32_t>(Crc32(raw_ + base_, data_size_));
    if (!crc.ok()) return crc;
    if (gen_ == nullptr || GenerationIntact()) return crc;
    MDOS_RETURN_IF_ERROR(Reissue(round));
  }
}

bool ObjectBuffer::GenerationIntact() const {
  // Seqlock read side: the fence keeps the payload copy above from being
  // reordered past the generation re-read; the descriptor's generation
  // was sampled by the home store BEFORE the offset was issued, so an
  // unchanged slot (in the same table incarnation) proves no destructive
  // transition overlapped the copy.
  std::atomic_thread_fence(std::memory_order_acquire);
  return gen_->reader.Epoch() == gen_epoch_ &&
         gen_->reader.Read(gen_slot_) == generation_;
}

Status ObjectBuffer::Reissue(uint32_t failed_rounds) const {
  if (failed_rounds >= kMaxMappedReadRounds) {
    return Status::Unavailable(
        "mapped object " + id_.Hex() + " changed during each of " +
        std::to_string(failed_rounds) + " reads");
  }
  if (refetch_ == nullptr) {
    return Status::Unavailable(
        "mapped object changed mid-read and the buffer has no client to "
        "fall back through");
  }
  // Held across the refetch so Disconnect cannot tear down the client
  // under us. No deadlock: the reply-dispatch thread that resolves the
  // refetch's futures never takes this mutex, and Disconnect only blocks
  // here until the refetch round-trips.
  MutexLock lock(refetch_->mutex);
  if (refetch_->client == nullptr) {
    return Status::NotConnected("client disconnected");
  }
  return refetch_->client->RefetchMapped(*this);
}

Status ObjectBuffer::ReadMetadata(uint64_t offset, void* dst,
                                  uint64_t size) const {
  MDOS_RETURN_IF_ERROR(CheckAccess(metadata_size_, offset, size));
  return RawRead(data_size_ + offset, dst, size);
}

Status ObjectBuffer::WriteMetadata(uint64_t offset, const void* src,
                                   uint64_t size) {
  MDOS_RETURN_IF_ERROR(CheckAccess(metadata_size_, offset, size));
  if (!writable_) {
    return Status::Sealed("buffer is read-only (object is sealed)");
  }
  return RawWrite(data_size_ + offset, src, size);
}

Result<std::vector<uint8_t>> ObjectBuffer::CopyData() const {
  std::vector<uint8_t> out(data_size_);
  MDOS_RETURN_IF_ERROR(ReadData(0, out.data(), out.size()));
  return out;
}

Status ObjectBuffer::WriteDataFrom(std::string_view bytes) {
  if (bytes.size() != data_size_) {
    return Status::Invalid("WriteDataFrom size mismatch");
  }
  return WriteData(0, bytes.data(), bytes.size());
}

// ---- NotificationListener --------------------------------------------------

Result<NotificationListener> NotificationListener::Connect(
    const std::string& socket_path, const std::string& subscriber_name) {
  NotificationListener listener;
  MDOS_ASSIGN_OR_RETURN(listener.fd_, net::UdsConnect(socket_path));
  SubscribeRequest request;
  request.subscriber_name = subscriber_name;
  MDOS_RETURN_IF_ERROR(SendMessage(listener.fd_.get(),
                                   MessageType::kSubscribeRequest,
                                   /*request_id=*/1, request));
  MDOS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> body,
      RecvExpect(listener.fd_.get(), MessageType::kSubscribeReply));
  MDOS_ASSIGN_OR_RETURN(SubscribeReply reply,
                        DecodeMessage<SubscribeReply>(body));
  MDOS_RETURN_IF_ERROR(reply.status);
  return listener;
}

Result<Notification> NotificationListener::Next(uint64_t timeout_ms) {
  if (!fd_.valid()) return Status::NotConnected("listener closed");
  // Wait for readability first so a quiet deadline surfaces as a clean
  // StatusCode::kTimeout instead of a read error.
  if (timeout_ms > 0) {
    // poll(2) takes an int of milliseconds; clamp so huge deadlines do
    // not wrap into "return immediately" or "wait forever".
    int wait_ms = static_cast<int>(
        std::min<uint64_t>(timeout_ms, std::numeric_limits<int>::max()));
    pollfd pfd{};
    pfd.fd = fd_.get();
    pfd.events = POLLIN;
    int ready;
    do {
      ready = ::poll(&pfd, 1, wait_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) return Status::FromErrno("poll notification socket");
    if (ready == 0) {
      return Status::Timeout("no notification within deadline");
    }
  }
  MDOS_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                        RecvExpect(fd_.get(), MessageType::kNotification));
  return DecodeMessage<Notification>(body);
}

// ---- PlasmaClient (blocking shim over AsyncClient) -------------------------

namespace {

// Blocking wait bounded by the operation deadline. The store enforces
// the budget end to end, so the reply normally arrives in time; the
// local slack covers the UDS hop and scheduling noise, and is the
// last-ditch guarantee that a blocking caller gets a typed
// DeadlineExceeded rather than a hang even if the store itself is
// wedged. The orphaned future is resolved (and discarded) by the
// reply-dispatch thread whenever the straggling reply shows up.
constexpr int64_t kDeadlineSlackMs = 50;

template <typename T>
T TakeWithDeadline(Future<T> future, Deadline deadline) {
  if (deadline.infinite()) return future.Take();
  const uint64_t wait_ms =
      static_cast<uint64_t>(deadline.remaining_ms_ceil() + kDeadlineSlackMs);
  if (!future.WaitFor(wait_ms)) {
    return T(Status::DeadlineExceeded(
        "operation did not complete within its deadline"));
  }
  return future.Take();
}

}  // namespace

Result<std::unique_ptr<PlasmaClient>> PlasmaClient::Connect(
    const std::string& socket_path, ClientOptions options) {
  auto client = std::unique_ptr<PlasmaClient>(new PlasmaClient());
  MDOS_ASSIGN_OR_RETURN(client->core_,
                        AsyncClient::Connect(socket_path, options));
  return client;
}

PlasmaClient::~PlasmaClient() = default;

void PlasmaClient::AssertSingleThread() const {
#ifndef NDEBUG
  std::thread::id none;
  std::thread::id self = std::this_thread::get_id();
  // First caller stakes ownership; everyone after must match.
  if (!owner_thread_.compare_exchange_strong(none, self)) {
    assert(owner_thread_.load() == self &&
           "PlasmaClient is single-threaded: use one client per thread "
           "or switch to AsyncClient");
  }
#endif
}

Result<ObjectBuffer> PlasmaClient::Create(const ObjectId& id,
                                          uint64_t data_size,
                                          uint64_t metadata_size,
                                          bool replicate,
                                          Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(
      core_->CreateAsync(id, data_size, metadata_size, replicate, deadline),
      deadline);
}

Status PlasmaClient::CreateAndSeal(const ObjectId& id,
                                   std::string_view data,
                                   std::string_view metadata,
                                   bool replicate, Deadline deadline) {
  MDOS_ASSIGN_OR_RETURN(
      ObjectBuffer buffer,
      Create(id, data.size(), metadata.size(), replicate, deadline));
  if (!data.empty()) {
    MDOS_RETURN_IF_ERROR(buffer.WriteData(0, data.data(), data.size()));
  }
  if (!metadata.empty()) {
    MDOS_RETURN_IF_ERROR(
        buffer.WriteMetadata(0, metadata.data(), metadata.size()));
  }
  return Seal(id, deadline);
}

Status PlasmaClient::Seal(const ObjectId& id, Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(core_->SealAsync(id, deadline), deadline);
}

Status PlasmaClient::Abort(const ObjectId& id, Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(core_->AbortAsync(id, deadline), deadline);
}

Result<std::vector<ObjectBuffer>> PlasmaClient::Get(
    const std::vector<ObjectId>& ids, uint64_t timeout_ms,
    Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(
      core_->GetAsync(ids, timeout_ms, deadline), deadline);
}

Result<ObjectBuffer> PlasmaClient::Get(const ObjectId& id,
                                       uint64_t timeout_ms,
                                       Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(
      core_->GetAsync(id, timeout_ms, /*fallback=*/false, deadline),
      deadline);
}

Status PlasmaClient::Release(const ObjectId& id, Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(core_->ReleaseAsync(id, deadline), deadline);
}

Result<bool> PlasmaClient::Contains(const ObjectId& id, Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(core_->ContainsAsync(id, deadline), deadline);
}

Status PlasmaClient::Delete(const ObjectId& id, Deadline deadline) {
  AssertSingleThread();
  return TakeWithDeadline(core_->DeleteAsync(id, deadline), deadline);
}

Result<std::vector<ObjectInfo>> PlasmaClient::List() {
  AssertSingleThread();
  return core_->ListAsync().Take();
}

Result<StoreStats> PlasmaClient::Stats() {
  AssertSingleThread();
  return core_->StatsAsync().Take();
}

Result<std::vector<ShardStatsEntry>> PlasmaClient::ShardStats() {
  AssertSingleThread();
  return core_->ShardStatsAsync().Take();
}

Result<std::vector<PeerStatsEntry>> PlasmaClient::PeerStats() {
  AssertSingleThread();
  return core_->PeerStatsAsync().Take();
}

Status PlasmaClient::Disconnect() { return core_->Disconnect(); }

uint32_t PlasmaClient::node_id() const { return core_->node_id(); }

const std::string& PlasmaClient::store_name() const {
  return core_->store_name();
}

}  // namespace mdos::plasma
