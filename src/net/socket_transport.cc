#include "net/socket_transport.h"

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
#include "net/envelope.h"

namespace psi {

namespace {

/// Smallest pump slice: keeps the loop responsive without busy-spinning.
constexpr uint64_t kMaxPollSliceMs = 50;

std::vector<uint8_t> PackHeartbeat() {
  return PackTransportMsg(TransportMsgKind::kHeartbeat, 0, {});
}

}  // namespace

SocketNetwork::SocketNetwork(SocketTransportConfig config)
    : config_(std::move(config)),
      backoff_rng_(config_.seed ^ 0xb0ccf00dcafef00dULL) {}

SocketNetwork::~SocketNetwork() { Shutdown(); }

bool SocketNetwork::LinkAlive(PartyId party) const {
  auto it = route_.find(party);
  return it != route_.end() && links_[it->second].alive;
}

size_t SocketNetwork::LinkFor(PartyId from, PartyId to) const {
  auto it = route_.find(to);  // The receiver's host is the delivery point.
  if (it != route_.end()) return it->second;
  it = route_.find(from);  // Else egress through the sender's host.
  if (it != route_.end()) return it->second;
  return kNoLink;
}

Status SocketNetwork::ConnectDaemon(const std::string& host, uint16_t port,
                                    std::vector<PartyId> parties) {
  for (PartyId p : parties) {
    if (!ValidParty(p)) {
      return Status::InvalidArgument(
          "ConnectDaemon: unknown party id " + std::to_string(p) +
          " (register parties first)");
    }
    if (route_.count(p) != 0) {
      return Status::InvalidArgument("ConnectDaemon: " + party_name(p) +
                                     " is already hosted by another daemon");
    }
  }
  links_.push_back(DaemonLink{});
  DaemonLink& link = links_.back();
  link.host = host;
  link.port = port;
  link.parties = parties;
  Status dialed = DialAndAuth(&link, /*resume=*/false);
  if (!dialed.ok()) {
    links_.pop_back();
    return dialed;
  }
  const size_t index = links_.size() - 1;
  for (PartyId p : parties) route_[p] = index;
  return Status::OK();
}

void SocketNetwork::CloseLink(DaemonLink* link) {
  if (link->fd >= 0) {
    close(link->fd);
    link->fd = -1;
  }
  link->alive = false;
}

void SocketNetwork::MarkDead(DaemonLink* link) {
  if (link->alive) ++stats_.dead_peers_detected;
  CloseLink(link);
  // Frames queued for the dead connection are gone with it; the pristine
  // store serves any that mattered via RequestRetransmit. Exec results
  // of a dead daemon are meaningless — the host re-asks after reconnect.
  link->send_queue.clear();
  link->exec_results.clear();
  link->exec_grace_until_ms = 0;
}

void SocketNetwork::Shutdown() {
  for (DaemonLink& link : links_) {
    if (link.alive && link.fd >= 0) {
      link.send_queue.push_back(
          PackTransportMsg(TransportMsgKind::kGoodbye, 0, {}));
      const Status flushed = FlushSendQueue(link.fd, &link.send_queue);
      (void)flushed;  // Best-effort farewell; the fd closes either way.
    }
    CloseLink(&link);
  }
}

Status SocketNetwork::EnqueueMsg(DaemonLink* link,
                                 std::vector<uint8_t> packed) {
  if (!link->alive) {
    return Status::ProtocolError(
        "daemon link " + link->host + ":" + std::to_string(link->port) +
        " is down in round '" + CurrentRoundLabel() + "'");
  }
  if (link->send_queue.size() >= config_.max_send_queue_frames) {
    MarkDead(link);
    return Status::ProtocolError(
        "send queue overflow (" +
        std::to_string(config_.max_send_queue_frames) + " frames) to " +
        link->host + ":" + std::to_string(link->port) +
        "; declaring the daemon dead");
  }
  stats_.wire_bytes_tx += packed.size();
  link->send_queue.push_back(std::move(packed));
  stats_.send_queue_peak =
      std::max<uint64_t>(stats_.send_queue_peak, link->send_queue.size());
  Status flushed = FlushSendQueue(link->fd, &link->send_queue);
  if (!flushed.ok()) {
    MarkDead(link);
    return Status::ProtocolError("daemon link " + link->host + ":" +
                                 std::to_string(link->port) +
                                 " failed: " + flushed.message());
  }
  return Status::OK();
}

Status SocketNetwork::RelayFrame(DaemonLink* link, PartyId from, PartyId to,
                                 bool front,
                                 const std::vector<uint8_t>& frame) {
  BinaryWriter body;
  body.Reserve(8 + frame.size());
  body.WriteU32(from);
  body.WriteU32(to);
  body.WriteRaw(frame.data(), frame.size());
  ++stats_.frames_relayed;
  return EnqueueMsg(link,
                    PackTransportMsg(TransportMsgKind::kData,
                                     front ? kTransportFlagFront : 0,
                                     body.TakeBuffer()));
}

Status SocketNetwork::Forward(PartyId from, PartyId to,
                              std::vector<uint8_t> frame, bool front) {
  const size_t index = LinkFor(from, to);
  if (index == kNoLink) {
    // Neither endpoint is daemon-hosted: the channel stays in-process.
    return Network::Forward(from, to, std::move(frame), front);
  }
  return RelayFrame(&links_[index], from, to, front, frame);
}

Status SocketNetwork::PumpLink(DaemonLink* link) {
  bool closed = false;
  size_t got = 0;
  Status read = ReadAvailable(link->fd, &link->parser, &closed, &got);
  if (!read.ok()) {
    MarkDead(link);
    return read;
  }
  if (got > 0) {
    stats_.wire_bytes_rx += got;
    link->last_rx_ms = MonotonicMs();
  }
  TransportMsg msg;
  for (;;) {
    auto produced = link->parser.Next(&msg);
    if (!produced.ok()) {
      MarkDead(link);
      return produced.status();
    }
    if (!produced.ValueOrDie()) break;
    switch (msg.kind) {
      case TransportMsgKind::kData: {
        BinaryReader r(msg.body);
        uint32_t from = 0;
        uint32_t to = 0;
        PSI_RETURN_NOT_OK(r.ReadU32(&from));
        PSI_RETURN_NOT_OK(r.ReadU32(&to));
        if (!ValidParty(from) || !ValidParty(to)) {
          MarkDead(link);
          return Status::ProtocolError(
              "daemon echoed a frame for unknown parties " +
              std::to_string(from) + " -> " + std::to_string(to));
        }
        std::vector<uint8_t> frame(msg.body.begin() + 8, msg.body.end());
        ++stats_.frames_echoed;
        Deliver(from, to, std::move(frame),
                (msg.flags & kTransportFlagFront) != 0);
        break;
      }
      case TransportMsgKind::kHeartbeatAck:
        ++stats_.heartbeat_acks;
        break;
      case TransportMsgKind::kExecResult:
        link->exec_results.push_back(std::move(msg.body));
        break;
      case TransportMsgKind::kHeartbeat:
        PSI_RETURN_NOT_OK(EnqueueMsg(
            link, PackTransportMsg(TransportMsgKind::kHeartbeatAck, 0, {})));
        break;
      case TransportMsgKind::kGoodbye:
        CloseLink(link);  // Orderly: not a dead-peer event.
        return Status::OK();
      default:
        MarkDead(link);
        return Status::ProtocolError(
            std::string("unexpected transport message '") +
            TransportMsgKindToString(msg.kind) +
            "' outside the handshake");
    }
  }
  if (closed) MarkDead(link);
  return Status::OK();
}

Status SocketNetwork::PumpAll(uint64_t slice_ms) {
  std::vector<pollfd> fds;
  std::vector<size_t> owner;
  const uint64_t now = MonotonicMs();
  for (size_t i = 0; i < links_.size(); ++i) {
    DaemonLink& link = links_[i];
    if (!link.alive) continue;
    // Silence only counts while the loop is actually listening: after a
    // compute phase longer than the timeout, nothing was pumped, so the
    // accumulated quiet proves nothing about the peer — restart the
    // liveness window instead of declaring a spurious death.
    if (now - link.last_pump_ms >= config_.heartbeat_timeout_ms) {
      link.last_rx_ms = now;
    }
    link.last_pump_ms = now;
    // A remote stage program is running on this daemon: rx-silence is the
    // expected shape of a long Paillier loop, so keep the liveness window
    // pinned open until the call's own deadline. Actual death (SIGKILL)
    // still surfaces instantly below via POLLERR/POLLHUP or a read error.
    if (link.exec_grace_until_ms != 0) {
      if (now < link.exec_grace_until_ms) {
        link.last_rx_ms = now;
      } else {
        link.exec_grace_until_ms = 0;
      }
    }
    // Probe liveness while blocked; silence past the timeout is a death.
    if (now - link.last_heartbeat_ms >= config_.heartbeat_interval_ms) {
      link.last_heartbeat_ms = now;
      ++stats_.heartbeats_sent;
      Status sent = EnqueueMsg(&link, PackHeartbeat());
      if (!sent.ok()) continue;  // MarkDead already ran.
    }
    if (now - link.last_rx_ms >= config_.heartbeat_timeout_ms) {
      MarkDead(&link);
      continue;
    }
    pollfd p;
    p.fd = link.fd;
    p.events = POLLIN;
    if (!link.send_queue.empty()) p.events |= POLLOUT;
    p.revents = 0;
    fds.push_back(p);
    owner.push_back(i);
  }
  if (fds.empty()) return Status::OK();
  const int timeout =
      static_cast<int>(std::min<uint64_t>(slice_ms, kMaxPollSliceMs));
  const int ready = poll(fds.data(), fds.size(), timeout);
  if (ready < 0 && errno != EINTR) {
    return Status::Internal("poll failed: " +
                            std::string(std::strerror(errno)));
  }
  for (size_t k = 0; k < fds.size(); ++k) {
    DaemonLink& link = links_[owner[k]];
    if (!link.alive) continue;
    if ((fds[k].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (fds[k].revents & POLLIN) == 0) {
      MarkDead(&link);
      continue;
    }
    if ((fds[k].revents & POLLOUT) != 0) {
      Status flushed = FlushSendQueue(link.fd, &link.send_queue);
      if (!flushed.ok()) {
        MarkDead(&link);
        continue;
      }
    }
    if ((fds[k].revents & (POLLIN | POLLHUP)) != 0) {
      const Status pumped = PumpLink(&link);
      (void)pumped;  // Failures mark the link dead; callers observe the
                     // aliveness, WaitForPending reports the status.
    }
  }
  return Status::OK();
}

Status SocketNetwork::WaitForPending(PartyId to, PartyId from,
                                     uint64_t budget_ms) {
  const size_t index = LinkFor(from, to);
  if (index == kNoLink) return Status::OK();  // Local channel: no wire.
  const uint64_t deadline = MonotonicMs() + budget_ms;
  for (;;) {
    if (HasPending(to, from)) return Status::OK();
    if (!links_[index].alive) {
      return Status::ProtocolError(
          "daemon link " + links_[index].host + ":" +
          std::to_string(links_[index].port) + " carrying " +
          DescribeChannel(from, to) + " is down");
    }
    const uint64_t now = MonotonicMs();
    if (budget_ms == 0 || now >= deadline) return Status::OK();
    PSI_RETURN_NOT_OK(PumpAll(deadline - now));
  }
}

Result<std::vector<uint8_t>> SocketNetwork::RequestRetransmit(PartyId to,
                                                              PartyId from,
                                                              uint64_t seq) {
  const size_t index = LinkFor(from, to);
  if (index != kNoLink && !links_[index].alive) {
    return Status::FailedPrecondition(
        "retransmit refused: daemon link " + links_[index].host + ":" +
        std::to_string(links_[index].port) + " carrying " +
        DescribeChannel(from, to) + " is down; reestablish first");
  }
  return Network::RequestRetransmit(to, from, seq);
}

Status SocketNetwork::DialAndAuth(DaemonLink* link, bool resume) {
  CloseLink(link);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket(): " + std::string(std::strerror(errno)));
  }
  Status setup = SetNonBlocking(fd);
  if (!setup.ok()) {
    close(fd);
    return setup;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(link->port);
  if (inet_pton(AF_INET, link->host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("unparseable daemon host '" + link->host +
                                   "' (numeric IPv4 expected)");
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::ProtocolError("connect to " + link->host + ":" +
                                 std::to_string(link->port) +
                                 " failed: " + err);
  }
  pollfd p;
  p.fd = fd;
  p.events = POLLOUT;
  p.revents = 0;
  if (poll(&p, 1, static_cast<int>(config_.connect_timeout_ms)) <= 0) {
    close(fd);
    return Status::ProtocolError(
        "connect to " + link->host + ":" + std::to_string(link->port) +
        " timed out after " + std::to_string(config_.connect_timeout_ms) +
        " ms");
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
      so_error != 0) {
    close(fd);
    return Status::ProtocolError(
        "connect to " + link->host + ":" + std::to_string(link->port) +
        " failed: " + std::strerror(so_error != 0 ? so_error : errno));
  }
  Status nodelay = SetNoDelay(fd);
  if (!nodelay.ok()) {
    close(fd);
    return nodelay;
  }

  // --- Challenge/response admission under the handshake budget. ---
  TransportParser parser;
  const uint64_t deadline = MonotonicMs() + config_.handshake_timeout_ms;
  auto await = [&](TransportMsgKind want, TransportMsg* msg) -> Status {
    for (;;) {
      auto produced = parser.Next(msg);
      PSI_RETURN_NOT_OK(produced.status());
      if (produced.ValueOrDie()) {
        if (msg->kind != want) {
          return Status::ProtocolError(
              std::string("handshake expected '") +
              TransportMsgKindToString(want) + "' but daemon sent '" +
              TransportMsgKindToString(msg->kind) + "'");
        }
        return Status::OK();
      }
      const uint64_t now = MonotonicMs();
      if (now >= deadline) {
        return Status::ProtocolError(
            "handshake with " + link->host + ":" +
            std::to_string(link->port) + " timed out after " +
            std::to_string(config_.handshake_timeout_ms) + " ms");
      }
      pollfd hp;
      hp.fd = fd;
      hp.events = POLLIN;
      hp.revents = 0;
      (void)poll(&hp, 1, static_cast<int>(deadline - now));
      bool closed = false;
      size_t got = 0;
      PSI_RETURN_NOT_OK(ReadAvailable(fd, &parser, &closed, &got));
      stats_.wire_bytes_rx += got;
      if (closed && parser.buffered() < kTransportHeaderBytes) {
        return Status::ProtocolError("daemon " + link->host + ":" +
                                     std::to_string(link->port) +
                                     " hung up during the handshake");
      }
    }
  };
  auto send_msg = [&](std::vector<uint8_t> packed) -> Status {
    stats_.wire_bytes_tx += packed.size();
    std::deque<std::vector<uint8_t>> q;
    q.push_back(std::move(packed));
    while (!q.empty()) {
      PSI_RETURN_NOT_OK(FlushSendQueue(fd, &q));
      if (q.empty()) break;
      if (MonotonicMs() >= deadline) {
        return Status::ProtocolError("handshake send stalled");
      }
      pollfd wp;
      wp.fd = fd;
      wp.events = POLLOUT;
      wp.revents = 0;
      (void)poll(&wp, 1, 10);
    }
    return Status::OK();
  };

  TransportMsg msg;
  Status handshake = await(TransportMsgKind::kChallenge, &msg);
  if (handshake.ok() && msg.body.size() != kAuthNonceBytes) {
    handshake = Status::ProtocolError("malformed challenge nonce of " +
                                      std::to_string(msg.body.size()) +
                                      " bytes");
  }
  if (handshake.ok()) {
    // The token itself never crosses the wire: prove possession with
    // sha256(token || nonce) against the daemon's fresh nonce.
    Sha256 hasher;
    hasher.Update(config_.auth_token);
    hasher.Update(msg.body);
    const auto digest = hasher.Finish();
    BinaryWriter hello;
    hello.WriteString(config_.session_name);
    hello.WriteBytes(std::vector<uint8_t>(digest.begin(), digest.end()));
    hello.WriteVarU64(link->parties.size());
    for (PartyId party : link->parties) hello.WriteVarU64(party);
    handshake = send_msg(PackTransportMsg(TransportMsgKind::kHello,
                                          resume ? kTransportFlagResume : 0,
                                          hello.TakeBuffer()));
  }
  if (handshake.ok()) {
    handshake = await(TransportMsgKind::kHelloAck, &msg);
  }
  if (handshake.ok()) {
    BinaryReader ack(msg.body);
    uint8_t accepted = 0;
    std::string reason;
    handshake = ack.ReadU8(&accepted);
    if (handshake.ok()) handshake = ack.ReadString(&reason);
    if (handshake.ok() && accepted == 0) {
      handshake = Status::ProtocolError("daemon " + link->host + ":" +
                                        std::to_string(link->port) +
                                        " rejected the session: " + reason);
    }
  }
  if (!handshake.ok()) {
    close(fd);
    return handshake;
  }

  link->fd = fd;
  link->alive = true;
  link->ever_connected = true;
  link->parser = TransportParser();  // Fresh stream, fresh framing.
  link->send_queue.clear();
  link->last_rx_ms = MonotonicMs();
  link->last_heartbeat_ms = link->last_rx_ms;
  link->last_pump_ms = link->last_rx_ms;
  link->exec_results.clear();
  link->exec_grace_until_ms = 0;
  ++stats_.connects;
  return Status::OK();
}

bool SocketNetwork::RemoteExecAvailable(PartyId party) const {
  return route_.count(party) != 0;
}

Result<std::vector<uint8_t>> SocketNetwork::RemoteCall(
    PartyId party, const std::vector<uint8_t>& request_frame,
    uint64_t deadline_ms, uint64_t expected_seq) {
  auto it = route_.find(party);
  if (it == route_.end()) {
    return Status::FailedPrecondition("RemoteCall: " + party_name(party) +
                                      " is not daemon-hosted");
  }
  DaemonLink& link = links_[it->second];
  if (!link.alive) {
    return Status::ProtocolError(
        "RemoteCall: daemon link " + link.host + ":" +
        std::to_string(link.port) + " hosting " + party_name(party) +
        " is down; reestablish first");
  }
  ++stats_.exec_calls;
  stats_.exec_bytes_tx += request_frame.size();
  const uint64_t deadline = MonotonicMs() + deadline_ms;
  link.exec_grace_until_ms = deadline;
  Status sent = EnqueueMsg(
      &link, PackTransportMsg(TransportMsgKind::kExec, 0, request_frame));
  if (!sent.ok()) {
    link.exec_grace_until_ms = 0;
    return sent;
  }
  for (;;) {
    while (!link.exec_results.empty()) {
      std::vector<uint8_t> body = std::move(link.exec_results.front());
      link.exec_results.pop_front();
      stats_.exec_bytes_rx += body.size();
      if (body.empty()) {
        // The daemon has no execution engine; the caller degrades.
        link.exec_grace_until_ms = 0;
        return body;
      }
      auto seq = PeekEnvelopeSeq(body);
      if (!seq.ok() || seq.ValueOrDie() != expected_seq) {
        // A late answer to a call we already abandoned. Dropping it here —
        // instead of letting it masquerade as this stage's result — is
        // what makes retry-after-timeout safe.
        ++stats_.exec_stale_dropped;
        continue;
      }
      link.exec_grace_until_ms = 0;
      return body;
    }
    if (!link.alive) {
      return Status::ProtocolError(
          "daemon link " + link.host + ":" + std::to_string(link.port) +
          " hosting " + party_name(party) +
          " died during remote stage execution");
    }
    const uint64_t now = MonotonicMs();
    if (now >= deadline) {
      ++stats_.exec_timeouts;
      link.exec_grace_until_ms = 0;
      return Status::ProtocolError(
          "remote stage call to " + party_name(party) + " via " + link.host +
          ":" + std::to_string(link.port) + " timed out after " +
          std::to_string(deadline_ms) + " ms");
    }
    PSI_RETURN_NOT_OK(PumpAll(deadline - now));
  }
}

Status SocketNetwork::Reestablish() {
  for (DaemonLink& link : links_) {
    if (link.alive) continue;
    Status last = Status::ProtocolError("no attempt made");
    bool restored = false;
    for (int attempt = 0; attempt < config_.max_reconnect_attempts;
         ++attempt) {
      if (attempt > 0) {
        stats_.backoff_sleep_ms +=
            SleepBackoffMs(config_.backoff_base_ms, config_.backoff_max_ms,
                           static_cast<uint32_t>(attempt), &backoff_rng_);
      }
      ++stats_.reconnect_attempts;
      last = DialAndAuth(&link, /*resume=*/link.ever_connected);
      if (last.ok()) {
        restored = true;
        ++stats_.reconnects;
        break;
      }
    }
    if (!restored) {
      return Status::ProtocolError(
          "Reestablish: daemon " + link.host + ":" +
          std::to_string(link.port) + " unreachable after " +
          std::to_string(config_.max_reconnect_attempts) +
          " attempt(s); last error: " + last.message());
    }
  }
  return Status::OK();
}

}  // namespace psi
