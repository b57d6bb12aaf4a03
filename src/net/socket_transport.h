// Socket-backed transport: the Network interface over real TCP loopback.
//
// The repo's protocol drivers are SPMD — one process executes every
// party's code in lockstep — so SocketNetwork does not split computation
// across hosts. What it moves onto the wire is each remote party's
// *transport presence*: a psid daemon (net/daemon.h) owns the TCP endpoint
// for the parties it hosts, and every frame on a channel that touches a
// hosted party is relayed through that daemon and only enters the local
// mailbox when the daemon's echo arrives back over the socket. Kill the
// daemon and those channels genuinely stop: sends fail or time out,
// RecvValidated surfaces a clean ProtocolError, SessionOrchestrator's
// retry loop calls Reestablish() — seeded exponential backoff with jitter,
// re-dial, re-authenticate — and the PR-5 resume handshake then replays
// over the new connection. Channels between unhosted parties stay
// in-process, exactly like the simulator.
//
// Robustness machinery, all deterministic where it matters:
//   - length-prefixed framing (net/socket_util.h) over the existing CRC32
//     envelopes; a framing violation kills the connection, never the
//     process;
//   - per-daemon bounded send queues: kernel backpressure queues frames up
//     to a cap, beyond which the send fails cleanly;
//   - recv deadlines: WaitForPending pumps the event loop under the
//     RecvOptions deadline (default SocketTransportConfig::recv_timeout_ms);
//   - heartbeat probes with a dead-peer timeout while waiting;
//   - the base Network's pristine per-channel store, kept on every send
//     here because a killed daemon loses frames: RequestRetransmit serves
//     them the same way the simulator serves dropped frames, and refuses
//     while the carrying link is dead;
//   - the base Network's fault path: a FaultInjector attached with
//     AttachFaultInjector decides each frame's fate before Forward relays
//     it, so one chaos plan produces one fault schedule on either backend
//     (docs/FAULTS.md).
//
// Metering note: RoundStats/TrafficReport count protocol messages only
// (SendFramed/Send and served retransmissions), identically to the
// simulator — transport chatter (hello, heartbeats, acks) is tallied
// separately in TransportStats. This is what keeps socket-run transcripts
// bitwise-comparable with simulator runs.

#ifndef PSI_NET_SOCKET_TRANSPORT_H_
#define PSI_NET_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"
#include "net/network.h"
#include "net/socket_util.h"

namespace psi {

/// \brief Tuning knobs for SocketNetwork. Defaults suit loopback tests;
/// a real deployment would stretch every timeout.
struct SocketTransportConfig {
  /// Seeds the backoff-jitter RNG: a given config and failure sequence
  /// reconnects on one deterministic schedule.
  uint64_t seed = 1;
  /// Default RecvValidated deadline when RecvOptions::deadline_ms == 0.
  uint64_t recv_timeout_ms = 2000;
  /// Bound on one TCP connect attempt.
  uint64_t connect_timeout_ms = 1000;
  /// Bound on one auth round trip (challenge -> hello -> ack).
  uint64_t handshake_timeout_ms = 1000;
  /// Heartbeat probe cadence while blocked in WaitForPending.
  uint64_t heartbeat_interval_ms = 100;
  /// Silence on a connection for this long while waiting declares the
  /// daemon dead (surfaced as a clean ProtocolError, never a hang).
  uint64_t heartbeat_timeout_ms = 1500;
  /// Reconnect attempts per Reestablish() call.
  int max_reconnect_attempts = 6;
  /// Backoff before reconnect attempt k sleeps
  /// min(backoff_base_ms << k, backoff_max_ms) plus seeded jitter drawn
  /// uniformly from that same range.
  uint64_t backoff_base_ms = 2;
  uint64_t backoff_max_ms = 250;
  /// Per-daemon bounded send queue: frames the kernel would not take yet.
  /// Overflow fails the send cleanly (graceful degradation, not OOM).
  size_t max_send_queue_frames = 256;
  /// Shared secret proving admission to a daemon. Never crosses the wire:
  /// the client answers a nonce challenge with sha256(token || nonce).
  PSI_SECRET std::string auth_token = "psid-dev-token";
  /// Session name declared in the hello; daemons key routing state by it.
  std::string session_name = "default";
};

/// \brief Transport-level counters (protocol traffic is metered by the
/// base Network exactly as on the simulator; these count the plumbing).
struct TransportStats {
  uint64_t connects = 0;           ///< Successful dial+auth handshakes.
  uint64_t reconnects = 0;         ///< Connects that replaced a dead link.
  uint64_t reconnect_attempts = 0; ///< Dial attempts including failures.
  uint64_t backoff_sleep_ms = 0;   ///< Total backoff slept, jitter included.
  uint64_t frames_relayed = 0;     ///< kData messages sent to daemons.
  uint64_t frames_echoed = 0;      ///< kData deliveries received back.
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeat_acks = 0;
  uint64_t dead_peers_detected = 0;
  uint64_t send_queue_peak = 0;    ///< High-water mark across all links.
  uint64_t wire_bytes_tx = 0;      ///< All transport bytes written.
  uint64_t wire_bytes_rx = 0;      ///< All transport bytes read.
  uint64_t exec_calls = 0;         ///< kExec requests sent to daemons.
  uint64_t exec_timeouts = 0;      ///< Calls abandoned at their deadline.
  uint64_t exec_stale_dropped = 0; ///< Late results of abandoned calls.
  uint64_t exec_bytes_tx = 0;      ///< Exec request bodies (pre-framing).
  uint64_t exec_bytes_rx = 0;      ///< Exec result bodies (pre-framing).
};

/// \brief Network implementation whose remote channels cross TCP loopback
/// through psid daemons. See the file comment for the model.
class SocketNetwork : public Network, public RemoteExecTransport {
 public:
  explicit SocketNetwork(SocketTransportConfig config);
  ~SocketNetwork() override;

  /// \brief Dials and authenticates to the daemon at `host:port`, which
  /// provides the wire presence of `parties`. Call after RegisterParty and
  /// before the first send. A party may be assigned to at most one daemon.
  [[nodiscard]] Status ConnectDaemon(const std::string& host, uint16_t port,
                                     std::vector<PartyId> parties);

  /// \brief Network::RequestRetransmit, refused while the link carrying the
  /// channel is dead: a dead wire cannot retransmit — Reestablish() first.
  [[nodiscard]] Result<std::vector<uint8_t>> RequestRetransmit(
      PartyId to, PartyId from, uint64_t seq) override;

  /// \brief Repairs dead daemon links: seeded exponential backoff with
  /// jitter, bounded attempts, full re-authentication, resume-flagged
  /// hello. OK when every configured link is live again.
  [[nodiscard]] Status Reestablish() override;

  /// \brief Sends goodbyes and closes every link (idempotent; the
  /// destructor calls it too).
  void Shutdown();

  const TransportStats& transport_stats() const { return stats_; }

  /// \brief True when the link carrying `party` is currently usable.
  bool LinkAlive(PartyId party) const;

  /// \brief True when `party` is daemon-hosted (its daemon can be asked to
  /// run stage programs, live or not — a dead link reestablishes first).
  bool RemoteExecAvailable(PartyId party) const override;

  /// \brief Sends one kExec request to `party`'s daemon and pumps the
  /// event loop until the matching kExecResult arrives (envelope seq ==
  /// `expected_seq`), the link dies, or `deadline_ms` elapses. While the
  /// call is in flight the link's heartbeat dead-peer timer is suspended —
  /// a daemon busy inside a Paillier loop is slow, not dead; actual death
  /// still surfaces immediately through the socket (POLLHUP/ECONNRESET).
  /// Late results of abandoned calls are recognized by their stale seq and
  /// dropped, never misdelivered. An empty result body means the daemon
  /// has no execution engine. Exec traffic is transport-metered only; the
  /// protocol TrafficReport stays bitwise-identical to the simulator.
  [[nodiscard]] Result<std::vector<uint8_t>> RemoteCall(
      PartyId party, const std::vector<uint8_t>& request_frame,
      uint64_t deadline_ms, uint64_t expected_seq) override;

 protected:
  /// \brief Relays the frame through the daemon hosting the channel; a
  /// channel between unhosted parties stays in-process.
  [[nodiscard]] Status Forward(PartyId from, PartyId to,
                               std::vector<uint8_t> frame,
                               bool front) override;
  /// \brief Always: a frame in flight dies with a killed daemon.
  bool CanLoseFrames() const override { return true; }
  [[nodiscard]] Status WaitForPending(PartyId to, PartyId from,
                                      uint64_t budget_ms) override;
  uint64_t DefaultRecvDeadlineMs() const override {
    return config_.recv_timeout_ms;
  }

 private:
  struct DaemonLink {
    std::string host;
    uint16_t port = 0;
    std::vector<PartyId> parties;
    int fd = -1;
    bool alive = false;
    bool ever_connected = false;
    TransportParser parser;
    std::deque<std::vector<uint8_t>> send_queue;
    uint64_t last_rx_ms = 0;
    uint64_t last_heartbeat_ms = 0;
    uint64_t last_pump_ms = 0;
    /// Result bodies of kExecResult messages awaiting pickup by RemoteCall.
    std::deque<std::vector<uint8_t>> exec_results;
    /// While MonotonicMs() is below this, rx-silence is expected (a stage
    /// program is running daemon-side) and must not trip dead-peer
    /// detection.
    uint64_t exec_grace_until_ms = 0;
  };

  static constexpr size_t kNoLink = static_cast<size_t>(-1);

  /// Link that must carry (from -> to): receiver's host wins, then
  /// sender's, else kNoLink (purely local channel).
  size_t LinkFor(PartyId from, PartyId to) const;

  /// Queues one transport message on a live link and flushes what the
  /// kernel will take. Fails cleanly on a dead link or queue overflow.
  [[nodiscard]] Status EnqueueMsg(DaemonLink* link,
                                  std::vector<uint8_t> packed);

  /// Relays one envelope frame as kData through `link`.
  [[nodiscard]] Status RelayFrame(DaemonLink* link, PartyId from, PartyId to,
                                  bool front,
                                  const std::vector<uint8_t>& frame);

  /// Drains readable transport messages on one link into the mailboxes,
  /// answering heartbeats and honoring goodbyes.
  [[nodiscard]] Status PumpLink(DaemonLink* link);

  /// One event-loop turn across all live links: flush queues, poll up to
  /// `slice_ms`, read, dispatch, heartbeat, declare dead peers.
  [[nodiscard]] Status PumpAll(uint64_t slice_ms);

  /// Dial + challenge/response auth + hello. On success the link is live.
  [[nodiscard]] Status DialAndAuth(DaemonLink* link, bool resume);

  void CloseLink(DaemonLink* link);
  void MarkDead(DaemonLink* link);

  SocketTransportConfig config_;
  Rng backoff_rng_;
  TransportStats stats_;
  std::vector<DaemonLink> links_;
  std::map<PartyId, size_t> route_;  // Hosted party -> links_ index.
};

}  // namespace psi

#endif  // PSI_NET_SOCKET_TRANSPORT_H_
