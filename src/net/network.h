// In-process simulation of the multiparty setting.
//
// The paper's parties (the host H and the service providers P_1..P_m) are
// separate organizations; here they are objects exchanging byte buffers
// through this Network. The simulator enforces mailbox discipline (a party
// can only read messages addressed to it) and meters every transfer, which
// is what reproduces the paper's communication-cost evaluation:
//   NR = communication rounds, NM = total messages, MS = total bytes.
//
// Every message travels one way: SendFramed seals it in a typed envelope
// (net/envelope.h) with a per-channel sequence number and a CRC, and
// RecvValidated opens it. RecvValidated never hands a corrupt, truncated,
// duplicated, reordered or mistagged frame to a protocol decoder: it
// discards stale duplicates, stashes early frames, requests bounded
// retransmission of missing/damaged ones, and returns a clean ProtocolError
// when the channel cannot be repaired.
//
// Frames are lost and re-served in one place, here: an attached
// FaultInjector (net/fault_injector.h) decides each frame's fate in
// Transmit, and wherever a frame can be lost the network keeps a pristine
// per-channel copy that serves RequestRetransmit. Transport backends
// override the protected delivery hooks beneath it.

#ifndef PSI_NET_NETWORK_H_
#define PSI_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/envelope.h"
#include "net/fault_injector.h"

namespace psi {

/// \brief Traffic recorded for one communication round.
struct RoundStats {
  std::string label;       ///< e.g. "P4.step2: H sends Omega_E'".
  uint64_t num_messages = 0;
  uint64_t num_bytes = 0;          ///< Wire bytes (framing included).
  uint64_t num_payload_bytes = 0;  ///< Application payload bytes only.
};

/// \brief Aggregate traffic report (the NR/NM/MS of Section 7.1).
struct TrafficReport {
  uint64_t num_rounds = 0;
  uint64_t num_messages = 0;
  uint64_t num_bytes = 0;          ///< Wire bytes (framing included).
  uint64_t num_payload_bytes = 0;  ///< Raw payload bytes (pre-envelope MS).
  std::vector<RoundStats> rounds;

  /// \brief Multi-line rendering shaped like the paper's Tables 1-2.
  std::string ToString() const;
};

/// \brief Upper bound on frames stashed ahead-of-sequence per channel.
///
/// RecvValidated keeps early frames (seq > expected) so a later call can
/// consume them without retransmission. The stash persists across calls, so
/// without a cap a peer that floods one channel with far-future sequence
/// numbers would grow it without limit. At the cap the receiver reports a
/// clean ProtocolError instead of buffering further.
inline constexpr size_t kMaxStashedFramesPerChannel = 64;

/// \brief Bounds for one RecvValidated call.
struct RecvOptions {
  /// Maximum transport attempts (initial receive plus retransmission
  /// requests plus damaged-frame retries) before giving up with a
  /// ProtocolError. This is the per-message attempt counter: a protocol
  /// driver can never hang waiting for a frame that will not arrive.
  int max_attempts = 6;
  /// Cap on RequestRetransmit calls within those attempts. Retransmission
  /// is the expensive repair path (a full extra transit of the frame), so
  /// it gets its own configurable budget instead of riding the fixed
  /// attempt constant; once spent, the call keeps draining pending frames
  /// but no longer asks the transport to re-deliver anything.
  int max_retransmits = 4;
  /// Free discards (stale duplicates, early-frame stashes) tolerated before
  /// giving up, so a flooded mailbox still terminates.
  int max_discards = 64;
  /// Wall-clock bound on the whole call, in milliseconds. 0 means "backend
  /// default": unbounded on the simulated Network (attempts alone bound the
  /// call), the configured receive timeout on the socket transport. A
  /// wedged peer that never sends therefore surfaces as a clean
  /// ProtocolError naming the deadline, never as a hang.
  uint64_t deadline_ms = 0;
};

/// \brief Simulated message-passing network with exact byte metering.
class Network {
 public:
  Network() = default;
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// \brief Adds a party; returns its id. Names are for reports only.
  PartyId RegisterParty(std::string name);

  size_t num_parties() const { return names_.size(); }
  const std::string& party_name(PartyId id) const { return names_[id]; }

  /// \brief Observer invoked at every BeginRound with the round's label and
  /// index. Chaos harnesses use it to act at exact protocol positions (kill
  /// a peer daemon at round k); operational backends use it for tracing.
  using RoundObserver = std::function<void(const std::string&, uint64_t)>;

  /// \brief Installs (or clears, with nullptr) the round observer.
  void SetRoundObserver(RoundObserver observer);

  /// \brief Opens a new communication round. All sends until the next
  /// BeginRound are accounted to this round. Rounds model the paper's
  /// definition: a stage where players send messages and the protocol
  /// proceeds only once all are delivered. Frames a fault rule delayed are
  /// released into their mailboxes first, before the round's own traffic.
  void BeginRound(std::string label);

  /// \brief Runs every later transmission through the seeded fault
  /// pipeline of `plan`: frames are dropped, duplicated, reordered,
  /// corrupted, truncated or delayed, and a crashed party is silenced.
  /// FaultyNetwork attaches one at construction; a chaos harness attaches
  /// the same plan to the socket transport to get the same schedule there.
  void AttachFaultInjector(FaultPlan plan);

  /// \brief Counters of the attached injector, or nullptr without one.
  const FaultStats* fault_stats() const;

  /// \brief Seals `payload` in a typed envelope (protocol id, step tag,
  /// sender, per-channel sequence number, CRC) and sends it. Wire bytes are
  /// payload size plus the fixed kEnvelopeOverheadBytes.
  [[nodiscard]] Status SendFramed(PartyId from, PartyId to, ProtocolId protocol_id,
                    uint16_t step, const std::vector<uint8_t>& payload);

  /// \brief Receives the next in-sequence framed message on (from -> to),
  /// validating magic, checksum, sender, protocol id and step tag before
  /// returning the payload. Damaged or missing frames trigger bounded
  /// retransmission requests (served only where frames can be lost, from
  /// the pristine store); stale duplicates are discarded; early frames are
  /// stashed for later calls. Exhausting `opts.max_attempts` yields a
  /// ProtocolError — never a hang and never a corrupt payload.
  [[nodiscard]] Result<std::vector<uint8_t>> RecvValidated(PartyId to, PartyId from,
                                             ProtocolId protocol_id,
                                             uint16_t step,
                                             const RecvOptions& opts = {});

  /// \brief Asks the transport to re-deliver the framed message with
  /// sequence number `seq` on channel (from -> to). Served from the
  /// pristine store, metered as a fresh send and, with an injector attached,
  /// faulted again (a retransmission travels the same unreliable wire).
  /// FailedPrecondition when the sender is crashed or no such frame awaits
  /// delivery. The lossless network keeps no store (nothing is ever lost),
  /// so there it always reports FailedPrecondition.
  [[nodiscard]] virtual Result<std::vector<uint8_t>> RequestRetransmit(PartyId to,
                                                         PartyId from,
                                                         uint64_t seq);

  /// \brief Repairs the transport's own plumbing after a failure: a socket
  /// backend re-dials and re-authenticates every dead peer connection
  /// (seeded exponential backoff with jitter, bounded attempts) before the
  /// session layer replays protocol traffic. The in-process simulator has
  /// no plumbing to repair, so the base implementation is a no-op.
  /// SessionOrchestrator calls this before every resume handshake.
  [[nodiscard]] virtual Status Reestablish() { return Status::OK(); }

  /// \brief True if a message from `from` to `to` is pending.
  bool HasPending(PartyId to, PartyId from) const;

  /// \brief Total number of undelivered messages (0 after a clean protocol).
  size_t PendingCount() const;

  /// \brief Discards every undelivered message addressed to `to` and returns
  /// a human-readable summary of what was dropped ("2 message(s) from P1
  /// (sizes: 34, 12 bytes)"), or the empty string if the mailboxes were
  /// already clean. Tests assert `Drain(id) == ""` to get a useful diff.
  std::string Drain(PartyId to);

  /// \brief Drains every party's mailbox (see Drain). Drivers call this on
  /// their error paths so a failed run never leaves frames behind for an
  /// unrelated successor to misread; the chaos harness asserts
  /// `PendingCount() == 0` after every outcome.
  std::string DrainAll();

  /// \brief Re-synchronizes the framed channel (from -> to) after a session
  /// resume: the receiver's expected sequence number jumps to the sender's
  /// next unsent one and the early-frame stash is dropped. Any frame still
  /// in flight from before the resume becomes a stale duplicate (seq <
  /// expected), which RecvValidated already discards for free.
  void ResyncChannel(PartyId from, PartyId to);

  /// \brief Frames currently stashed ahead-of-sequence on (from -> to).
  size_t StashedCount(PartyId from, PartyId to) const;

  /// \brief Frames held for retransmission across all channels: only those
  /// sent but not yet accepted, plus each channel's latest frame until the
  /// channel's next send prunes it. Always 0 on the lossless network.
  size_t SentLogFrames() const;

  /// \brief Traffic so far.
  TrafficReport Report() const;

  /// \brief Bytes sent by one party across all rounds (wire bytes).
  uint64_t BytesSentBy(PartyId id) const;

  /// \brief Resets all metering (mailboxes must be empty). Sequence
  /// counters survive: they are transport state shared with the peers, not
  /// metering.
  [[nodiscard]] Status ResetMetering();

 protected:
  using ChannelKey = std::pair<PartyId, PartyId>;  // (from, to).

  /// \brief Accounts one transmission to the current round.
  void MeterSend(PartyId from, size_t wire_bytes, size_t payload_bytes);

  /// \brief Takes the oldest pending frame sent by `from` to `to` out of
  /// the mailbox, unvalidated: the hook RecvValidated reads through.
  /// Returns FailedPrecondition (naming both parties and the current round)
  /// if none is pending.
  [[nodiscard]] virtual Result<std::vector<uint8_t>> Recv(PartyId to,
                                                          PartyId from);

  /// \brief Enqueues a frame in the mailbox of (from -> to) without
  /// metering. `front` models reordering.
  void Deliver(PartyId from, PartyId to, std::vector<uint8_t> frame,
               bool front = false);

  /// \brief The hook SendFramed funnels through after validation and
  /// metering: keeps the pristine copy where frames can be lost, applies
  /// the injector's verdict, and hands whatever survives to Forward.
  [[nodiscard]] virtual Status Transmit(PartyId from, PartyId to,
                          std::vector<uint8_t> frame);

  /// \brief One delivery hop for a frame that survived the fault pipeline.
  /// The simulator enqueues it in the mailbox; the socket transport relays
  /// it through the daemon hosting the channel.
  [[nodiscard]] virtual Status Forward(PartyId from, PartyId to,
                                       std::vector<uint8_t> frame,
                                       bool front);

  /// \brief True when a frame can be lost on the way, so Transmit keeps a
  /// pristine copy for RequestRetransmit: with an injector attached, or on
  /// a backend whose wire can fail. The lossless simulator keeps nothing.
  virtual bool CanLoseFrames() const { return injector_.has_value(); }

  /// \brief Blocks (up to `budget_ms`) until a message from `from` to `to`
  /// is pending, for backends where frames arrive asynchronously: the
  /// socket transport pumps its event loop here (reads, heartbeats,
  /// dead-peer detection). The simulator's mailboxes are synchronous, so
  /// the base implementation returns immediately. A non-OK return means the
  /// channel is known-unrepairable right now (peer declared dead), not
  /// merely empty.
  [[nodiscard]] virtual Status WaitForPending(PartyId to, PartyId from,
                                              uint64_t budget_ms);

  /// \brief Backend default for RecvOptions::deadline_ms == 0. The
  /// simulator returns 0 (no wall-clock bound); the socket transport
  /// returns its configured receive timeout.
  virtual uint64_t DefaultRecvDeadlineMs() const { return 0; }

  bool ValidParty(PartyId id) const { return id < names_.size(); }

  /// \brief Index of the current round (0 before any BeginRound).
  uint64_t RoundIndex() const {
    return rounds_.empty() ? 0 : rounds_.size() - 1;
  }

  /// \brief Next sequence number RecvValidated accepts on (from -> to).
  /// Frames below it were accepted or skipped by a resync; it never moves
  /// back, so they can never be requested again.
  uint64_t ExpectedRecvSeq(PartyId from, PartyId to) const;

  /// \brief Label of the current round, or "<no round>" before the first.
  const std::string& CurrentRoundLabel() const;

  /// \brief "P1 -> H" with names when known, ids otherwise.
  std::string DescribeChannel(PartyId from, PartyId to) const;

 private:
  RoundObserver round_observer_;
  std::vector<std::string> names_;
  // (from, to) -> FIFO of payloads.
  std::map<ChannelKey, std::deque<std::vector<uint8_t>>> mailboxes_;
  std::vector<RoundStats> rounds_;
  std::vector<uint64_t> bytes_sent_by_;
  // Framed-transport state: next sequence number to assign / to accept,
  // plus frames that arrived ahead of sequence.
  std::map<ChannelKey, uint64_t> send_seq_;
  std::map<ChannelKey, uint64_t> recv_seq_;
  std::map<ChannelKey, std::map<uint64_t, std::vector<uint8_t>>> stash_;
  std::optional<FaultInjector> injector_;
  // Pristine frames for retransmission, per channel and keyed by envelope
  // seq. Each send prunes its channel below ExpectedRecvSeq, so the store
  // holds only frames in flight.
  std::map<ChannelKey, std::map<uint64_t, std::vector<uint8_t>>> sent_log_;
  // Frames a delay rule holds until the next BeginRound, in send order.
  std::vector<std::pair<ChannelKey, std::vector<uint8_t>>> delayed_;
};

/// \brief Optional capability of a transport backend: executing a stage
/// program on the daemon that hosts a party (mpc/remote_exec builds the
/// request/response payloads; this interface only moves bytes).
///
/// A backend implementing this carries ProtocolId::kExec envelopes to the
/// daemon as transport messages (TransportMsgKind::kExec), NOT as protocol
/// traffic: exec round trips are tallied in transport counters and never
/// touch the TrafficReport, which is what keeps a remote-executed run's
/// protocol metering bitwise-identical to the simulator's. The in-process
/// simulator does not implement it, so every stage simply runs locally.
class RemoteExecTransport {
 public:
  virtual ~RemoteExecTransport() = default;

  /// \brief True when `party` has a daemon-hosted wire presence that exec
  /// requests can be routed to (regardless of current link health —
  /// Reestablish may repair a dead link between attempts).
  virtual bool RemoteExecAvailable(PartyId party) const = 0;

  /// \brief Ships `request_frame` (a sealed ProtocolId::kExec envelope) to
  /// the daemon hosting `party` and blocks — pumping the event loop — until
  /// a result envelope whose sequence field equals `expected_seq` arrives,
  /// the link dies, or `deadline_ms` expires. Results with a different
  /// sequence are stale leftovers of a timed-out earlier call and are
  /// discarded. While the call is in flight the busy daemon is exempt from
  /// heartbeat dead-peer detection (a computing daemon is silent, not
  /// dead); a killed daemon still fails fast through the socket error.
  [[nodiscard]] virtual Result<std::vector<uint8_t>> RemoteCall(
      PartyId party, const std::vector<uint8_t>& request_frame,
      uint64_t deadline_ms, uint64_t expected_seq) = 0;
};

/// \brief Returns `result` unchanged on success; on error, drains every
/// mailbox first and appends the per-channel discard summary ("2 message(s)
/// from P1 ...") to the error's context. Protocol drivers route their
/// public entry points through this so a failed run never leaves
/// half-consumed frames behind for an unrelated successor protocol to
/// misread — and so a chaos-run error names exactly what it threw away;
/// the chaos harness asserts `PendingCount() == 0` after every outcome.
template <typename T>
[[nodiscard]] Result<T> DrainOnError(Network* network, Result<T> result) {
  if (!result.ok()) {
    std::string drained = network->DrainAll();
    if (!drained.empty()) {
      return Status(result.status().code(),
                    result.status().message() + " [drained: " + drained + "]");
    }
  }
  return result;
}

/// \brief DrainOnError for a driver's outermost entry: drains on success
/// too, because fault layers can leave stale duplicates or released delayed
/// frames behind even then. SessionOrchestrator does the same for session
/// drivers, so no completed run leaks frames into whatever runs next.
template <typename T>
[[nodiscard]] Result<T> DrainAfterRun(Network* network, Result<T> result) {
  if (!result.ok()) return DrainOnError(network, std::move(result));
  (void)network->DrainAll();
  return result;
}

}  // namespace psi

#endif  // PSI_NET_NETWORK_H_
