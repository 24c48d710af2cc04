#include "net/framed_conn.h"

#include <sys/ioctl.h>
#include <sys/socket.h>

#include <cerrno>

namespace mdos::net {

bool FramedConn::Drain() {
  const int fd = fd_.get();
  for (;;) {
    int avail = 0;
    if (::ioctl(fd, FIONREAD, &avail) != 0 || avail <= 0) avail = 4096;
    const size_t base = inbuf_.size();
    inbuf_.resize(base + static_cast<size_t>(avail));
    ssize_t n = ::recv(fd, inbuf_.data() + base, static_cast<size_t>(avail),
                       MSG_DONTWAIT);
    if (n > 0) {
      inbuf_.resize(base + static_cast<size_t>(n));
      if (n < avail) return true;  // drained at this instant
      continue;
    }
    inbuf_.resize(base);
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

Status FramedConn::DecodeFrames(std::vector<FrameView>* frames) {
  decoded_ = 0;
  while (decoded_ < inbuf_.size()) {
    FrameView view;
    size_t consumed = 0;
    MDOS_RETURN_IF_ERROR(DecodeFrameView(inbuf_.data() + decoded_,
                                         inbuf_.size() - decoded_, &view,
                                         &consumed));
    if (consumed == 0) break;  // partial frame: wait for more bytes
    decoded_ += consumed;
    frames->push_back(view);
  }
  return Status::OK();
}

void FramedConn::ConsumeFrames() {
  inbuf_.erase(inbuf_.begin(),
               inbuf_.begin() + static_cast<ptrdiff_t>(decoded_));
  decoded_ = 0;
}

Result<TxQueue::FlushState> FramedConn::Flush(Poller& poller) {
  MDOS_ASSIGN_OR_RETURN(TxQueue::FlushState state, tx_.Flush(fd_.get()));
  const bool want_armed = state == TxQueue::FlushState::kBlocked;
  if (want_armed != write_armed_) {
    poller.SetWriteInterest(fd_.get(), want_armed);
    write_armed_ = want_armed;
  }
  return state;
}

void FramedConn::FlushBeforeClose() {
  // mdos-check: allow-discard(the connection closes next on either outcome; a peer that is already gone simply misses the replies)
  if (!tx_.empty()) (void)tx_.Flush(fd_.get());
}

}  // namespace mdos::net
