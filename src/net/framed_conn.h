// FramedConn — one non-blocking framed stream connection, as served by an
// event loop: the store shards' client connections and the RPC server's
// peer connections both sit on it.
//
// It owns the socket, the receive scratch, the egress queue and the
// write-armed flag, and offers the three steps of an event-loop pass:
//
//   Drain          read everything the socket holds, up to EAGAIN;
//   DecodeFrames   view every complete frame in place (zero-copy), then
//   ConsumeFrames  drop that prefix once the views are served;
//   Flush          gather-write queued replies, arming write interest on
//                  the owner's Poller while residue stays queued and
//                  disarming it once the queue drains.
//
// Owner-specific policy (the store's egress cap and stats fold, the RPC
// server's per-batch arrival time) stays with the owner. Single-owner:
// every call runs on the connection's event-loop thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/fd.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/tx_queue.h"

namespace mdos::net {

class FramedConn {
 public:
  // `fd` must be O_NONBLOCK: EAGAIN is the backpressure signal.
  explicit FramedConn(UniqueFd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  TxQueue& tx() { return tx_; }
  bool write_armed() const { return write_armed_; }

  // Appends everything the socket has buffered to the receive scratch
  // (FIONREAD sizes each read so bytes land in place; capacity is reused
  // across batches). Returns false once the peer has closed or the
  // socket failed; bytes read before that stay buffered for
  // DecodeFrames.
  bool Drain();

  // Appends a view of every complete frame buffered so far to *frames.
  // The views alias the receive scratch and stay valid until
  // ConsumeFrames or the next Drain. A corrupt frame ends the batch: the
  // frames before it are still appended, and its error is returned.
  Status DecodeFrames(std::vector<FrameView>* frames);
  // Drops the bytes of the frames the last DecodeFrames returned.
  void ConsumeFrames();

  // Flushes the egress queue and keeps write interest on `poller` armed
  // exactly while residue stays queued. A failed Status means the
  // connection is broken; the owner drops it.
  Result<TxQueue::FlushState> Flush(Poller& poller);

  // Last flush before the owner closes the connection: replies queued
  // earlier in the batch still leave if the socket takes them.
  void FlushBeforeClose();

 private:
  UniqueFd fd_;
  std::vector<uint8_t> inbuf_;
  size_t decoded_ = 0;  // bytes covered by the last DecodeFrames
  TxQueue tx_;
  bool write_armed_ = false;
};

}  // namespace mdos::net
