// RpcChannel — client side of the unary sync RPC framework.
//
// A channel owns one TCP connection to a peer RpcServer. Calls are unary
// and synchronous (the paper's gRPC configuration): the caller thread
// serializes the request, blocks for the response, and deserializes it.
// The channel is thread-safe; concurrent callers are serialized by a
// mutex, matching a single HTTP/2 stream being reused sequentially.
//
// Failure handling: a failed call closes the socket but keeps the
// endpoint. The next call transparently redials (bounded attempts per
// call, exponential backoff with jitter between dial failures) instead
// of returning NotConnected forever — a peer restart heals without any
// caller intervention. While the backoff window is closed the call fails
// fast with kNotConnected, so a dead peer costs nanoseconds per call,
// not a connect timeout. Only an explicit Disconnect() retires the
// channel permanently.
//
// `simulated_rtt_ns` injects additional latency per call so loopback TCP
// can model a data-centre LAN round trip (see docs/benchmarks.md, "Scaling
// caveats": simulated RTT);
// it is applied client-side, half before sending and half after receiving.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "net/fault_injector.h"
#include "net/fd.h"
#include "net/frame.h"
#include "rpc/message.h"

namespace mdos::rpc {

struct ChannelOptions {
  // Injected per-call latency modelling the data-centre LAN.
  int64_t simulated_rtt_ns = 0;
  // Reconnect policy. A call finding the channel disconnected makes up
  // to `redial_attempts` dial attempts (only when the backoff window has
  // elapsed); each consecutive dial failure doubles the wait between
  // redials from `redial_backoff_min_ms` up to `redial_backoff_max_ms`,
  // with ±25 % jitter so a mesh of peers does not redial in lockstep.
  uint32_t redial_attempts = 1;
  uint32_t redial_backoff_min_ms = 10;
  uint32_t redial_backoff_max_ms = 1000;
};

struct ChannelStats {
  uint64_t calls = 0;
  uint64_t failures = 0;
  uint64_t reconnects = 0;       // successful redials after a failure
  uint64_t redial_failures = 0;  // dial attempts that failed
  uint64_t fast_failures = 0;    // calls refused inside the backoff window
  uint64_t deadline_exceeded = 0;  // calls that exhausted their budget
  uint64_t injected_faults = 0;    // messages dropped/delayed by injection
  int64_t total_call_ns = 0;     // wall time across all calls
};

class RpcChannel {
 public:
  RpcChannel() = default;
  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  // Connects to `host`:`port`. Channels contain synchronization state,
  // so they live on the heap and are shared by reference.
  static Result<std::shared_ptr<RpcChannel>> Connect(
      const std::string& host, uint16_t port, ChannelOptions options);
  // Back-compat convenience (pre-reconnect signature).
  static Result<std::shared_ptr<RpcChannel>> Connect(
      const std::string& host, uint16_t port,
      int64_t simulated_rtt_ns = 0);

  bool connected() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return fd_.valid();
  }
  // Permanently retires the channel: no redial, every later Call returns
  // kNotConnected. (Failure-triggered disconnects keep the endpoint and
  // heal on the next call instead.)
  void Disconnect() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    fd_.Reset();
    closed_ = true;
  }

  // Performs one unary call. `timeout_ms` (0 = no timeout) bounds the wait
  // for the response. A disconnected (but not retired) channel first
  // redials under the backoff policy above.
  Result<std::vector<uint8_t>> Call(const std::string& method,
                                    const std::vector<uint8_t>& payload,
                                    uint64_t timeout_ms = 0)
      EXCLUDES(mutex_, stats_mutex_);

  // Typed convenience: encodes `request`, decodes the response into
  // `ResponseT`. RequestT must provide EncodeTo, ResponseT DecodeFrom.
  template <typename ResponseT, typename RequestT>
  Result<ResponseT> CallTyped(const std::string& method,
                              const RequestT& request,
                              uint64_t timeout_ms = 0) {
    wire::Writer w;
    request.EncodeTo(w);
    std::vector<uint8_t> bytes(w.data(), w.data() + w.size());
    MDOS_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                          Call(method, bytes, timeout_ms));
    wire::Reader r(reply.data(), reply.size());
    return ResponseT::DecodeFrom(r);
  }

  // Deadline-bounded unary call. Differences from Call():
  //  - an already-expired deadline fails fast with kDeadlineExceeded
  //    before any dial or send;
  //  - connectivity failures (dial refused, send/recv error, timeout)
  //    are retried with the redial backoff schedule, but every wait is
  //    clamped to the remaining budget — the call never outlives its
  //    deadline;
  //  - the *remaining* budget (ms, recomputed per attempt) is stamped
  //    into the request envelope so the server can shed expired work;
  //  - budget exhaustion returns kDeadlineExceeded carrying the last
  //    transport error.
  // An infinite deadline degenerates to Call(timeout=0): one attempt,
  // no retry loop (callers wanting bounded behavior pass a real
  // deadline).
  Result<std::vector<uint8_t>> CallWithDeadline(
      const std::string& method, const std::vector<uint8_t>& payload,
      Deadline deadline) EXCLUDES(mutex_, stats_mutex_);

  template <typename ResponseT, typename RequestT>
  Result<ResponseT> CallTypedDeadline(const std::string& method,
                                      const RequestT& request,
                                      Deadline deadline) {
    wire::Writer w;
    request.EncodeTo(w);
    std::vector<uint8_t> bytes(w.data(), w.data() + w.size());
    MDOS_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                          CallWithDeadline(method, bytes, deadline));
    wire::Reader r(reply.data(), reply.size());
    return ResponseT::DecodeFrom(r);
  }

  // Installs the (cluster-owned) fault injector for this channel's
  // directed link. Requests consult self -> peer, responses peer ->
  // self, so one-way partitions behave asymmetrically. Passing nullptr
  // uninstalls.
  void SetFaultInjector(net::FaultInjector* injector, uint32_t self_node,
                        uint32_t peer_node) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    fault_injector_ = injector;
    self_node_ = self_node;
    peer_node_ = peer_node;
  }

  ChannelStats stats() const EXCLUDES(stats_mutex_);
  int64_t simulated_rtt_ns() const { return options_.simulated_rtt_ns; }

 private:
  // One request/response exchange on the live socket. `timeout_ms`
  // bounds the response wait (0 = none); `stamp_deadline_ms` is what
  // goes into the envelope's deadline field.
  Result<std::vector<uint8_t>> AttemptLocked(
      const std::string& method, const std::vector<uint8_t>& payload,
      uint64_t timeout_ms, uint64_t stamp_deadline_ms)
      REQUIRES(mutex_) EXCLUDES(stats_mutex_);
  // Re-establishes the connection when the endpoint is known and the
  // backoff window has elapsed.
  Status RedialLocked() REQUIRES(mutex_);
  // Jittered exponential backoff for the current failure streak (ns).
  int64_t NextBackoffNs() REQUIRES(mutex_);

  mutable Mutex mutex_;
  net::UniqueFd fd_ GUARDED_BY(mutex_);
  ChannelOptions options_;
  std::string host_;
  uint16_t port_ = 0;
  // Explicit Disconnect(): never redial.
  bool closed_ GUARDED_BY(mutex_) = false;
  // Reconnect state.
  uint32_t dial_failure_streak_ GUARDED_BY(mutex_) = 0;
  // Monotonic deadline gating the next dial.
  int64_t next_redial_ns_ GUARDED_BY(mutex_) = 0;
  uint64_t backoff_seed_ GUARDED_BY(mutex_) = 0x9E3779B97F4A7C15ULL;
  // Receive timeout currently armed on the socket (SO_RCVTIMEO); tracked
  // so untimed calls after a timed one clear it and repeated timed calls
  // skip the setsockopt.
  uint64_t armed_timeout_ms_ GUARDED_BY(mutex_) = 0;
  std::atomic<uint64_t> next_call_id_{1};
  // stats_ has its own mutex so stats() never blocks behind an in-flight
  // call (mutex_ is held for the full RPC round trip). ACQUIRED_AFTER
  // pins the lock order: mutex_ first, stats_mutex_ second, and
  // stats_mutex_ is never held across I/O.
  mutable Mutex stats_mutex_ ACQUIRED_AFTER(mutex_);
  ChannelStats stats_ GUARDED_BY(stats_mutex_);
  // Optional fault injection under the transport (owned by the
  // cluster/test harness, outlives the channel).
  net::FaultInjector* fault_injector_ GUARDED_BY(mutex_) = nullptr;
  uint32_t self_node_ GUARDED_BY(mutex_) = 0;
  uint32_t peer_node_ GUARDED_BY(mutex_) = 0;
  // Per-channel scratch (guarded by mutex_ like the fd): the request
  // encoder and response frame reuse their capacity across calls, so a
  // steady-state channel issues zero allocations for the envelope.
  wire::Writer scratch_writer_ GUARDED_BY(mutex_);
  net::Frame scratch_frame_ GUARDED_BY(mutex_);
};

}  // namespace mdos::rpc
