#include "net/socket_util.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/serialize.h"

namespace psi {

const char* TransportMsgKindToString(TransportMsgKind kind) {
  switch (kind) {
    case TransportMsgKind::kChallenge: return "challenge";
    case TransportMsgKind::kHello: return "hello";
    case TransportMsgKind::kHelloAck: return "hello-ack";
    case TransportMsgKind::kData: return "data";
    case TransportMsgKind::kHeartbeat: return "heartbeat";
    case TransportMsgKind::kHeartbeatAck: return "heartbeat-ack";
    case TransportMsgKind::kGoodbye: return "goodbye";
    case TransportMsgKind::kExec: return "exec";
    case TransportMsgKind::kExecResult: return "exec-result";
  }
  return "unknown";
}

std::vector<uint8_t> PackTransportMsg(TransportMsgKind kind, uint8_t flags,
                                      const std::vector<uint8_t>& body) {
  BinaryWriter w;
  w.Reserve(kTransportHeaderBytes + body.size());
  w.WriteU32(kTransportMagic);
  w.WriteU8(static_cast<uint8_t>(kind));
  w.WriteU8(flags);
  w.WriteU16(0);  // Reserved.
  w.WriteU32(static_cast<uint32_t>(body.size()));
  w.WriteRaw(body.data(), body.size());
  return w.TakeBuffer();
}

void TransportParser::Append(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void TransportParser::Compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

Result<bool> TransportParser::Next(TransportMsg* out) {
  if (buffered() < kTransportHeaderBytes) return false;
  BinaryReader header(buf_.data() + pos_, kTransportHeaderBytes);
  uint32_t magic = 0;
  uint8_t kind = 0;
  uint8_t flags = 0;
  uint16_t reserved = 0;
  uint32_t body_len = 0;
  PSI_RETURN_NOT_OK(header.ReadU32(&magic));
  PSI_RETURN_NOT_OK(header.ReadU8(&kind));
  PSI_RETURN_NOT_OK(header.ReadU8(&flags));
  PSI_RETURN_NOT_OK(header.ReadU16(&reserved));
  PSI_RETURN_NOT_OK(header.ReadU32(&body_len));
  if (magic != kTransportMagic) {
    return Status::ProtocolError(
        "transport stream lost framing (bad magic 0x" + [](uint32_t v) {
          char hex[16];
          std::snprintf(hex, sizeof(hex), "%08x", v);
          return std::string(hex);
        }(magic) + ")");
  }
  if (kind < static_cast<uint8_t>(TransportMsgKind::kChallenge) ||
      kind > static_cast<uint8_t>(TransportMsgKind::kExecResult)) {
    return Status::ProtocolError("transport message of unknown kind " +
                                 std::to_string(kind));
  }
  if (body_len > kMaxTransportBodyBytes) {
    return Status::ProtocolError("transport body of " +
                                 std::to_string(body_len) +
                                 " bytes exceeds the sanity bound");
  }
  if (buffered() < kTransportHeaderBytes + body_len) return false;
  out->kind = static_cast<TransportMsgKind>(kind);
  out->flags = flags;
  const uint8_t* body = buf_.data() + pos_ + kTransportHeaderBytes;
  out->body.assign(body, body + body_len);
  pos_ += kTransportHeaderBytes + body_len;
  Compact();
  return true;
}

uint64_t MonotonicMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

uint64_t SleepBackoffMs(uint64_t base_ms, uint64_t max_ms, uint32_t step,
                        Rng* rng) {
  const uint64_t delay =
      std::min(base_ms << std::min<uint32_t>(step, 20), max_ms);
  const uint64_t slept = delay + rng->UniformU64(delay > 0 ? delay : 1);
  SleepMs(slept);
  return slept;
}

Status SetNonBlocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl < 0 || fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK): " +
                            std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Status::Internal("setsockopt(TCP_NODELAY): " +
                            std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status FlushSendQueue(int fd, std::deque<std::vector<uint8_t>>* queue) {
  while (!queue->empty()) {
    std::vector<uint8_t>& front = queue->front();
    const ssize_t n =
        send(fd, front.data(), front.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return Status::OK();  // Kernel buffer full; try again next pump.
      }
      return Status::ProtocolError("socket send failed: " +
                                   std::string(std::strerror(errno)));
    }
    if (static_cast<size_t>(n) == front.size()) {
      queue->pop_front();
    } else {
      front.erase(front.begin(), front.begin() + n);
      return Status::OK();  // Partial write; the rest waits its turn.
    }
  }
  return Status::OK();
}

Status ReadAvailable(int fd, TransportParser* parser, bool* closed,
                     size_t* bytes_read) {
  *closed = false;
  uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      parser->Append(chunk, static_cast<size_t>(n));
      if (bytes_read != nullptr) *bytes_read += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      *closed = true;  // Orderly shutdown by the peer.
      return Status::OK();
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return Status::OK();
    }
    return Status::ProtocolError("socket recv failed: " +
                                 std::string(std::strerror(errno)));
  }
}

}  // namespace psi
