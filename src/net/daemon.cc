#include "net/daemon.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace psi {

PsidDaemon::PsidDaemon(PsidConfig config)
    : config_(std::move(config)),
      nonce_rng_(config_.seed ^ 0xdaeb0000beefcafeULL) {}

PsidDaemon::~PsidDaemon() { CloseAll(); }

void PsidDaemon::CloseAll() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
    conn.fd = -1;
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

Result<uint16_t> PsidDaemon::Listen(uint16_t port) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("Listen called twice");
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    close(fd);
    return Status::Internal("setsockopt(SO_REUSEADDR): " +
                            std::string(std::strerror(errno)));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, config_.bind_host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("unparseable bind host '" +
                                   config_.bind_host + "'");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::Internal("bind to " + config_.bind_host + ":" +
                            std::to_string(port) + " failed: " + err);
  }
  if (listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::Internal("listen failed: " + err);
  }
  PSI_RETURN_NOT_OK(SetNonBlocking(fd));
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::Internal("getsockname failed: " + err);
  }
  if (pipe(stop_pipe_) < 0) {
    close(fd);
    return Status::Internal("pipe(): " + std::string(std::strerror(errno)));
  }
  PSI_RETURN_NOT_OK(SetNonBlocking(stop_pipe_[0]));
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return port_;
}

void PsidDaemon::Stop() {
  stop_requested_ = true;
  if (stop_pipe_[1] >= 0) {
    const uint8_t byte = 1;
    // A full pipe already guarantees wake-up; the result is irrelevant.
    (void)!write(stop_pipe_[1], &byte, 1);
  }
}

void PsidDaemon::CloseConn(Conn* conn) {
  if (conn->fd >= 0) {
    close(conn->fd);
    conn->fd = -1;
  }
  ++stats_.connections_closed;
}

void PsidDaemon::AcceptReady() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient; the next Poll retries.
    if (conns_.size() >= config_.max_connections ||
        !SetNonBlocking(fd).ok() || !SetNoDelay(fd).ok()) {
      close(fd);
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conn.nonce.resize(kAuthNonceBytes);
    for (size_t i = 0; i < kAuthNonceBytes; i += 8) {
      const uint64_t word = nonce_rng_.NextU64();
      std::memcpy(conn.nonce.data() + i, &word,
                  std::min<size_t>(8, kAuthNonceBytes - i));
    }
    ++stats_.connections_accepted;
    std::vector<uint8_t> challenge = PackTransportMsg(
        TransportMsgKind::kChallenge, 0, conn.nonce);
    conns_.push_back(std::move(conn));
    if (!QueueOn(&conns_.back(), std::move(challenge))) {
      CloseConn(&conns_.back());
      conns_.pop_back();
    }
  }
}

bool PsidDaemon::QueueOn(Conn* conn, std::vector<uint8_t> packed) {
  if (conn->fd < 0) return false;
  if (conn->send_queue.size() >= config_.max_send_queue_frames) {
    ++stats_.protocol_violations;  // A reader this far behind is gone.
    return false;
  }
  conn->send_queue.push_back(std::move(packed));
  return FlushSendQueue(conn->fd, &conn->send_queue).ok();
}

bool PsidDaemon::HandleHello(Conn* conn, const TransportMsg& msg) {
  BinaryReader r(msg.body);
  std::string session;
  std::vector<uint8_t> digest;
  uint64_t num_parties = 0;
  if (!r.ReadString(&session).ok() || !r.ReadBytes(&digest).ok() ||
      !r.ReadCount(&num_parties, 1).ok()) {
    ++stats_.protocol_violations;
    return false;
  }
  std::vector<uint64_t> parties(num_parties);
  for (uint64_t& party : parties) {
    if (!r.ReadVarU64(&party).ok()) {
      ++stats_.protocol_violations;
      return false;
    }
  }
  Sha256 hasher;
  hasher.Update(config_.auth_token);
  hasher.Update(conn->nonce);
  const auto expected = hasher.Finish();
  const bool authed =
      digest.size() == expected.size() &&
      std::memcmp(digest.data(), expected.data(), expected.size()) == 0;
  if (!authed) {
    ++stats_.auth_failures;
    BinaryWriter nack;
    nack.WriteU8(0);
    nack.WriteString("bad auth token");
    (void)QueueOn(conn, PackTransportMsg(TransportMsgKind::kHelloAck, 0,
                                         nack.TakeBuffer()));
    return false;  // Drop after the nack flush attempt.
  }
  conn->admitted = true;
  conn->session = session;
  conn->parties = std::move(parties);
  if ((msg.flags & kTransportFlagResume) != 0) ++stats_.resumed_hellos;
  BinaryWriter ack;
  ack.WriteU8(1);
  ack.WriteString("ok");
  return QueueOn(conn, PackTransportMsg(TransportMsgKind::kHelloAck, 0,
                                        ack.TakeBuffer()));
}

bool PsidDaemon::HandleData(Conn* conn, const TransportMsg& msg) {
  BinaryReader r(msg.body);
  uint32_t from = 0;
  uint32_t to = 0;
  if (!r.ReadU32(&from).ok() || !r.ReadU32(&to).ok()) {
    ++stats_.protocol_violations;
    return false;
  }
  // Route to another connection of the same session that computes for the
  // receiver; with an SPMD client (one connection computing everything)
  // the frame hairpins back to its origin — the daemon is the wire the
  // frame must survive, not a different computer.
  Conn* target = nullptr;
  for (Conn& other : conns_) {
    if (&other == conn || other.fd < 0 || !other.admitted) continue;
    if (other.session != conn->session) continue;
    if (std::find(other.parties.begin(), other.parties.end(),
                  static_cast<uint64_t>(to)) != other.parties.end()) {
      target = &other;
      break;
    }
  }
  std::vector<uint8_t> packed =
      PackTransportMsg(TransportMsgKind::kData, msg.flags, msg.body);
  if (target != nullptr) {
    ++stats_.frames_forwarded;
    if (!QueueOn(target, std::move(packed))) CloseConn(target);
    return true;  // The sender is fine either way.
  }
  ++stats_.frames_hairpinned;
  return QueueOn(conn, std::move(packed));
}

bool PsidDaemon::HandleExec(Conn* conn, const TransportMsg& msg) {
  ++stats_.exec_requests;
  std::vector<uint8_t> result;
  if (config_.exec_handler) {
    result = config_.exec_handler(msg.body);
  } else {
    // No engine installed: answer with an empty body so the host degrades
    // that stage to local execution instead of waiting out a deadline.
    ++stats_.exec_no_engine;
  }
  ++stats_.exec_replies;
  return QueueOn(conn, PackTransportMsg(TransportMsgKind::kExecResult, 0,
                                        result));
}

bool PsidDaemon::ServiceConn(Conn* conn) {
  bool closed = false;
  if (!ReadAvailable(conn->fd, &conn->parser, &closed).ok()) return false;
  TransportMsg msg;
  for (;;) {
    auto produced = conn->parser.Next(&msg);
    if (!produced.ok()) {
      ++stats_.protocol_violations;
      return false;
    }
    if (!produced.ValueOrDie()) break;
    if (!conn->admitted) {
      if (msg.kind != TransportMsgKind::kHello) {
        ++stats_.protocol_violations;
        return false;
      }
      if (!HandleHello(conn, msg)) return false;
      continue;
    }
    switch (msg.kind) {
      case TransportMsgKind::kData:
        if (!HandleData(conn, msg)) return false;
        break;
      case TransportMsgKind::kHeartbeat:
        ++stats_.heartbeats_answered;
        if (!QueueOn(conn, PackTransportMsg(TransportMsgKind::kHeartbeatAck,
                                            0, {}))) {
          return false;
        }
        break;
      case TransportMsgKind::kHeartbeatAck:
        break;  // Answer to a daemon probe; nothing to do.
      case TransportMsgKind::kExec:
        if (!HandleExec(conn, msg)) return false;
        break;
      case TransportMsgKind::kGoodbye:
        return false;  // Orderly close.
      default:
        ++stats_.protocol_violations;
        return false;
    }
  }
  return !closed;
}

Status PsidDaemon::Poll(uint64_t slice_ms) {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("Poll before Listen");
  }
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 2);
  pollfd lp;
  lp.fd = listen_fd_;
  lp.events = POLLIN;
  lp.revents = 0;
  fds.push_back(lp);
  pollfd sp;
  sp.fd = stop_pipe_[0];
  sp.events = POLLIN;
  sp.revents = 0;
  fds.push_back(sp);
  for (Conn& conn : conns_) {
    pollfd p;
    p.fd = conn.fd;
    p.events = POLLIN;
    if (!conn.send_queue.empty()) p.events |= POLLOUT;
    p.revents = 0;
    fds.push_back(p);
  }
  const int ready =
      poll(fds.data(), fds.size(), static_cast<int>(std::min<uint64_t>(
                                       slice_ms, 1000)));
  if (ready < 0 && errno != EINTR) {
    return Status::Internal("daemon poll failed: " +
                            std::string(std::strerror(errno)));
  }
  // Connections accepted this turn have no pollfd yet; service them next
  // turn, and only walk the ones `fds` was built from.
  const size_t polled = conns_.size();
  if ((fds[0].revents & POLLIN) != 0) AcceptReady();
  for (size_t i = 0; i < polled; ++i) {
    Conn& conn = conns_[i];
    const pollfd& p = fds[i + 2];
    if (conn.fd < 0) continue;
    bool keep = true;
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) keep = false;
    if (keep && (p.revents & POLLOUT) != 0) {
      keep = FlushSendQueue(conn.fd, &conn.send_queue).ok();
    }
    if (keep && (p.revents & (POLLIN | POLLHUP)) != 0) {
      keep = ServiceConn(&conn);
    }
    if (!keep) {
      // Give a pending nack/goodbye one best-effort flush before closing.
      const Status flushed = FlushSendQueue(conn.fd, &conn.send_queue);
      (void)flushed;
      CloseConn(&conn);
    }
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return c.fd < 0; }),
               conns_.end());
  return Status::OK();
}

Status PsidDaemon::Run() {
  while (!stop_requested_) {
    PSI_RETURN_NOT_OK(Poll(100));
    if (stop_pipe_[0] >= 0) {
      uint8_t drain[16];
      while (read(stop_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
  }
  Drain(config_.drain_grace_ms);
  return Status::OK();
}

void PsidDaemon::Drain(uint64_t grace_ms) {
  // Stop admitting anyone new, say goodbye on every live connection, and
  // give the queued frames (goodbyes included) a bounded window to leave.
  // A zero grace is an abrupt stop: no goodbyes, connections just die, so
  // clients see exactly what a crash looks like.
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (grace_ms > 0) {
    for (Conn& conn : conns_) {
      if (conn.fd < 0 || !conn.admitted) continue;
      (void)QueueOn(&conn,
                    PackTransportMsg(TransportMsgKind::kGoodbye, 0, {}));
    }
  }
  const uint64_t deadline = MonotonicMs() + grace_ms;
  for (;;) {
    bool pending = false;
    for (Conn& conn : conns_) {
      if (conn.fd < 0) continue;
      if (!FlushSendQueue(conn.fd, &conn.send_queue).ok()) {
        CloseConn(&conn);
        continue;
      }
      if (!conn.send_queue.empty()) pending = true;
    }
    if (!pending || MonotonicMs() >= deadline) break;
    std::vector<pollfd> fds;
    for (Conn& conn : conns_) {
      if (conn.fd < 0 || conn.send_queue.empty()) continue;
      pollfd p;
      p.fd = conn.fd;
      p.events = POLLOUT;
      p.revents = 0;
      fds.push_back(p);
    }
    if (fds.empty()) break;
    (void)poll(fds.data(), fds.size(), 10);
  }
  for (Conn& conn : conns_) {
    if (conn.fd < 0) continue;
    CloseConn(&conn);
    ++stats_.drained_connections;
  }
  conns_.clear();
}

}  // namespace psi
