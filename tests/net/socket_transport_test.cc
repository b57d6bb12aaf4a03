// Socket transport unit tests: framing, admission, the daemon-relayed data
// path, deadlines, dead-peer detection and reconnection — all over real TCP
// loopback against an in-process PsidDaemon served from a background
// thread. The fork-based SIGKILL recovery sweeps live in
// tests/integration/socket_daemon_test.cc; this file exercises the
// transport machinery piece by piece.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/daemon.h"
#include "net/envelope.h"
#include "net/fault.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/socket_transport.h"
#include "net/socket_util.h"

namespace psi {
namespace {

// ---------------------------------------------------------------------------
// TransportParser / PackTransportMsg.

TEST(SocketUtilTest, ParserRoundTripsOneMessage) {
  std::vector<uint8_t> body = {1, 2, 3, 4, 5};
  auto packed = PackTransportMsg(TransportMsgKind::kData, kTransportFlagFront,
                                 body);
  ASSERT_EQ(packed.size(), kTransportHeaderBytes + body.size());

  TransportParser parser;
  parser.Append(packed.data(), packed.size());
  TransportMsg msg;
  ASSERT_TRUE(parser.Next(&msg).ValueOrDie());
  EXPECT_EQ(msg.kind, TransportMsgKind::kData);
  EXPECT_EQ(msg.flags, kTransportFlagFront);
  EXPECT_EQ(msg.body, body);
  EXPECT_FALSE(parser.Next(&msg).ValueOrDie());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(SocketUtilTest, ParserReframesAcrossArbitraryFragmentation) {
  // Three messages of different kinds and sizes, delivered one byte at a
  // time: TCP guarantees order, not boundaries, and the parser must
  // reconstruct every frame exactly.
  std::vector<std::vector<uint8_t>> bodies = {
      {}, {42}, std::vector<uint8_t>(1000, 7)};
  std::vector<TransportMsgKind> kinds = {TransportMsgKind::kHeartbeat,
                                         TransportMsgKind::kHelloAck,
                                         TransportMsgKind::kData};
  std::vector<uint8_t> stream;
  for (size_t i = 0; i < bodies.size(); ++i) {
    auto packed = PackTransportMsg(kinds[i], 0, bodies[i]);
    stream.insert(stream.end(), packed.begin(), packed.end());
  }

  TransportParser parser;
  std::vector<TransportMsg> got;
  for (uint8_t byte : stream) {
    parser.Append(&byte, 1);
    TransportMsg msg;
    while (parser.Next(&msg).ValueOrDie()) got.push_back(std::move(msg));
  }
  ASSERT_EQ(got.size(), bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(got[i].kind, kinds[i]) << "message " << i;
    EXPECT_EQ(got[i].body, bodies[i]) << "message " << i;
  }
}

TEST(SocketUtilTest, ParserRejectsBadMagicPermanently) {
  std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0, 0, 0, 0, 0};
  TransportParser parser;
  parser.Append(junk.data(), junk.size());
  TransportMsg msg;
  auto produced = parser.Next(&msg);
  ASSERT_FALSE(produced.ok());
  EXPECT_NE(produced.status().message().find("magic"), std::string::npos);
}

TEST(SocketUtilTest, ParserRejectsOversizedBody) {
  // A header that announces a body beyond kMaxTransportBodyBytes is a
  // framing violation, not a request for a giant allocation.
  auto packed = PackTransportMsg(TransportMsgKind::kData, 0, {1, 2, 3});
  const uint32_t huge = kMaxTransportBodyBytes + 1;
  packed[8] = static_cast<uint8_t>(huge);
  packed[9] = static_cast<uint8_t>(huge >> 8);
  packed[10] = static_cast<uint8_t>(huge >> 16);
  packed[11] = static_cast<uint8_t>(huge >> 24);
  TransportParser parser;
  parser.Append(packed.data(), packed.size());
  TransportMsg msg;
  EXPECT_FALSE(parser.Next(&msg).ok());
}

// ---------------------------------------------------------------------------
// In-process daemon harness: a PsidDaemon served by a background thread, so
// the single-threaded client transport can block against a live peer.

class DaemonThread {
 public:
  explicit DaemonThread(PsidConfig config = {}) : daemon_(std::move(config)) {
    port_ = daemon_.Listen(0).ValueOrDie();
    thread_ = std::thread([this] {
      const Status served = daemon_.Run();
      (void)served;  // Exits when Stop() is called; errors end the test via
                     // the client-side assertions.
    });
  }

  ~DaemonThread() { StopAndJoin(); }

  void StopAndJoin() {
    if (thread_.joinable()) {
      daemon_.Stop();
      thread_.join();
    }
  }

  uint16_t port() const { return port_; }

  /// Only meaningful after StopAndJoin(): the daemon is single-threaded.
  const PsidStats& stats() const { return daemon_.stats(); }

 private:
  PsidDaemon daemon_;
  uint16_t port_ = 0;
  std::thread thread_;
};

SocketTransportConfig FastConfig() {
  SocketTransportConfig config;
  config.seed = 11;
  config.recv_timeout_ms = 1000;
  config.connect_timeout_ms = 500;
  config.handshake_timeout_ms = 500;
  config.heartbeat_interval_ms = 20;
  config.heartbeat_timeout_ms = 250;
  config.max_reconnect_attempts = 4;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 20;
  return config;
}

// ---------------------------------------------------------------------------
// Admission.

TEST(SocketTransportTest, ConnectDaemonAuthenticatesWithSharedToken) {
  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  (void)h;
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());
  EXPECT_TRUE(net.LinkAlive(p1));
  EXPECT_EQ(net.transport_stats().connects, 1u);
  net.Shutdown();
  daemon.StopAndJoin();
  EXPECT_EQ(daemon.stats().connections_accepted, 1u);
  EXPECT_EQ(daemon.stats().auth_failures, 0u);
}

TEST(SocketTransportTest, ConnectDaemonRejectsWrongToken) {
  DaemonThread daemon;
  SocketTransportConfig config = FastConfig();
  config.auth_token = "not-the-token";
  SocketNetwork net(config);
  PartyId p1 = net.RegisterParty("P1");
  Status connected = net.ConnectDaemon("127.0.0.1", daemon.port(), {p1});
  ASSERT_FALSE(connected.ok());
  EXPECT_NE(connected.message().find("rejected"), std::string::npos);
  EXPECT_FALSE(net.LinkAlive(p1));
  daemon.StopAndJoin();
  EXPECT_EQ(daemon.stats().auth_failures, 1u);
}

TEST(SocketTransportTest, ConnectDaemonValidatesPartyAssignments) {
  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  PartyId p1 = net.RegisterParty("P1");
  // Unknown party id.
  EXPECT_FALSE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1 + 7}).ok());
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());
  // A party may be hosted by at most one daemon.
  Status twice = net.ConnectDaemon("127.0.0.1", daemon.port(), {p1});
  ASSERT_FALSE(twice.ok());
  EXPECT_NE(twice.message().find("already hosted"), std::string::npos);
}

TEST(SocketTransportTest, ConnectToClosedPortFailsCleanly) {
  // Grab an ephemeral port, close the daemon, and dial the corpse: the
  // connect must fail with a described error inside its timeout.
  uint16_t dead_port = 0;
  {
    DaemonThread daemon;
    dead_port = daemon.port();
  }
  SocketNetwork net(FastConfig());
  PartyId p1 = net.RegisterParty("P1");
  Status connected = net.ConnectDaemon("127.0.0.1", dead_port, {p1});
  ASSERT_FALSE(connected.ok());
  EXPECT_FALSE(connected.message().empty());
}

// ---------------------------------------------------------------------------
// The relayed data path.

TEST(SocketTransportTest, FramedTrafficHairpinsThroughDaemon) {
  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());

  net.BeginRound("socket.roundtrip");
  std::vector<uint8_t> payload = {10, 20, 30, 40};
  ASSERT_TRUE(
      net.SendFramed(h, p1, ProtocolId::kSecureSum, /*step=*/3, payload).ok());
  auto got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, /*step=*/3);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.ValueOrDie(), payload);

  // Protocol metering is identical to the simulator: one message, envelope
  // overhead on the wire, payload bytes underneath. Transport framing is
  // tallied separately.
  auto report = net.Report();
  EXPECT_EQ(report.num_messages, 1u);
  EXPECT_EQ(report.num_payload_bytes, payload.size());
  EXPECT_EQ(report.num_bytes, payload.size() + kEnvelopeOverheadBytes);
  EXPECT_EQ(net.transport_stats().frames_relayed, 1u);
  EXPECT_EQ(net.transport_stats().frames_echoed, 1u);
  EXPECT_GT(net.transport_stats().wire_bytes_tx, report.num_bytes);

  EXPECT_EQ(net.PendingCount(), 0u);
  net.Shutdown();
  daemon.StopAndJoin();
  EXPECT_EQ(daemon.stats().frames_hairpinned, 1u);
}

TEST(SocketTransportTest, LocalChannelsStayInProcess) {
  // A channel between two unhosted parties never touches the wire.
  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  PartyId a = net.RegisterParty("A");
  PartyId b = net.RegisterParty("B");
  PartyId hosted = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {hosted}).ok());

  net.BeginRound("socket.local");
  ASSERT_TRUE(net.SendFramed(a, b, ProtocolId::kSecureSum, 1, {5, 6}).ok());
  auto got = net.RecvValidated(b, a, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(net.transport_stats().frames_relayed, 0u);
  EXPECT_EQ(net.transport_stats().frames_echoed, 0u);
}

TEST(SocketTransportTest, RecvDeadlineExpiresAsCleanProtocolError) {
  DaemonThread daemon;
  SocketTransportConfig config = FastConfig();
  config.recv_timeout_ms = 150;  // Backend default deadline under test.
  SocketNetwork net(config);
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());

  net.BeginRound("socket.deadline");
  // Nothing was ever sent: the call must give up within the deadline with
  // an error naming it — never hang on the silent wire.
  const uint64_t before = MonotonicMs();
  auto got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1);
  const uint64_t waited = MonotonicMs() - before;
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("deadline"), std::string::npos)
      << got.status().message();
  EXPECT_GE(waited, 100u);
  EXPECT_LT(waited, 5000u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// Dead peers, retransmission, reconnection.

TEST(SocketTransportTest, DeadDaemonIsDetectedAndRefusesRetransmits) {
  auto daemon = std::make_unique<DaemonThread>();
  SocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon->port(), {p1}).ok());

  net.BeginRound("socket.dead");
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 1, {1}).ok());
  auto first = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(first.ok()) << first.status().message();

  // Stop the daemon: the next receive must fail cleanly (connection reset
  // or heartbeat silence), not hang.
  daemon->StopAndJoin();
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 2, {2}).ok());
  auto got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 2);
  ASSERT_FALSE(got.ok());
  EXPECT_FALSE(got.status().message().empty());
  EXPECT_FALSE(net.LinkAlive(p1));
  EXPECT_EQ(net.PendingCount(), 0u);

  // A dead wire cannot retransmit: the pristine log must not silently heal
  // the channel without a reconnect.
  auto retransmit = net.RequestRetransmit(p1, h, /*seq=*/1);
  ASSERT_FALSE(retransmit.ok());
  EXPECT_NE(retransmit.status().message().find("reestablish"),
            std::string::npos)
      << retransmit.status().message();
}

TEST(SocketTransportTest, ReestablishReconnectsToRestartedDaemon) {
  PsidConfig daemon_config;
  auto daemon = std::make_unique<DaemonThread>(daemon_config);
  const uint16_t port = daemon->port();

  SocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", port, {p1}).ok());

  net.BeginRound("socket.restart");
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 1, {1}).ok());
  ASSERT_TRUE(net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1).ok());

  // Kill the daemon and release its listener (a live process would have
  // died with its fds), then restart on the same port (SO_REUSEADDR).
  daemon->StopAndJoin();
  daemon.reset();
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 2, {2}).ok());
  ASSERT_FALSE(net.RecvValidated(p1, h, ProtocolId::kSecureSum, 2).ok());
  ASSERT_FALSE(net.LinkAlive(p1));

  PsidDaemon restarted(daemon_config);
  ASSERT_EQ(restarted.Listen(port).ValueOrDie(), port);
  std::thread serve([&restarted] {
    const Status served = restarted.Run();
    (void)served;
  });

  Status repaired = net.Reestablish();
  ASSERT_TRUE(repaired.ok()) << repaired.message();
  EXPECT_TRUE(net.LinkAlive(p1));
  EXPECT_GE(net.transport_stats().reconnects, 1u);
  EXPECT_GE(net.transport_stats().reconnect_attempts, 1u);

  // The repaired link carries traffic again; the receiver resyncs the
  // channel exactly as a session resume would, so the lost in-flight frame
  // becomes a stale sequence number instead of a wedge.
  net.ResyncChannel(h, p1);
  net.BeginRound("socket.after-restart");
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 3, {3}).ok());
  auto got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 3);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.ValueOrDie(), std::vector<uint8_t>({3}));

  net.Shutdown();
  restarted.Stop();
  serve.join();
  EXPECT_GE(restarted.stats().resumed_hellos, 1u);
}

TEST(SocketTransportTest, ReestablishGivesUpAfterBoundedBackoff) {
  SocketTransportConfig config = FastConfig();
  config.max_reconnect_attempts = 3;
  SocketNetwork net(config);
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  // Stage the link through a live daemon, then take the daemon away for
  // good: its port stays dead, so every reconnect attempt must fail.
  {
    auto daemon = std::make_unique<DaemonThread>();
    ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon->port(), {p1}).ok());
    daemon->StopAndJoin();
  }

  net.BeginRound("socket.unreachable");
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 1, {1}).ok());
  ASSERT_FALSE(net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1).ok());
  ASSERT_FALSE(net.LinkAlive(p1));

  Status repaired = net.Reestablish();
  ASSERT_FALSE(repaired.ok());
  EXPECT_NE(repaired.message().find("unreachable after 3 attempt"),
            std::string::npos)
      << repaired.message();
  // Backoff actually slept between attempts (seeded, deterministic).
  EXPECT_GT(net.transport_stats().backoff_sleep_ms, 0u);
  EXPECT_EQ(net.transport_stats().reconnect_attempts, 3u);
}

TEST(SocketTransportTest, RetransmitServedFromPristineLogOverLiveLink) {
  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());

  net.BeginRound("socket.retransmit");
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 1, {1, 2}).ok());
  ASSERT_TRUE(net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1).ok());

  // The pristine log serves a re-request for the already-delivered frame
  // (sequence numbers start at 0) and refuses unknown sequences.
  auto served = net.RequestRetransmit(p1, h, /*seq=*/0);
  ASSERT_TRUE(served.ok()) << served.status().message();
  EXPECT_EQ(PeekEnvelopeSeq(served.ValueOrDie()).ValueOrDie(), 0u);
  auto unknown = net.RequestRetransmit(p1, h, /*seq=*/999);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("no frame with seq"),
            std::string::npos);
}

// A socket backend that can lose the next frame of a channel: the frame is
// taken out of the mailbox unvalidated, as a fault on the wire would.
class LossySocketNetwork : public SocketNetwork {
 public:
  using SocketNetwork::SocketNetwork;

  Status LoseNextFrame(PartyId to, PartyId from) {
    PSI_RETURN_NOT_OK(WaitForPending(to, from, /*budget_ms=*/1000));
    return Recv(to, from).status();
  }
};

TEST(SocketTransportTest, SentLogStaysBoundedAndServesFramesInFlight) {
  DaemonThread daemon;
  LossySocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());

  // Many sessions' worth of round trips in both directions: each send
  // prunes the frames its channel already accepted, so the log holds at
  // most the latest frame per channel instead of every frame ever sent.
  for (uint8_t session = 0; session < 200; ++session) {
    net.BeginRound("socket.session");
    ASSERT_TRUE(
        net.SendFramed(h, p1, ProtocolId::kSecureSum, 1, {session}).ok());
    ASSERT_TRUE(net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1).ok());
    ASSERT_TRUE(
        net.SendFramed(p1, h, ProtocolId::kSecureSum, 2, {session}).ok());
    ASSERT_TRUE(net.RecvValidated(h, p1, ProtocolId::kSecureSum, 2).ok());
  }
  EXPECT_LE(net.SentLogFrames(), 2u);

  // A frame lost before it was accepted is still served, even after a
  // later send on its channel pruned the log: the first of two frames is
  // lost, so RecvValidated stashes the second and asks for the first again.
  net.BeginRound("socket.lost");
  const std::vector<uint8_t> first = {7, 7, 7};
  const std::vector<uint8_t> second = {8};
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 3, first).ok());
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 3, second).ok());
  ASSERT_TRUE(net.LoseNextFrame(p1, h).ok());
  RecvOptions opts;
  opts.deadline_ms = 200;
  auto got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 3, opts);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.ValueOrDie(), first);
  got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 3, opts);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.ValueOrDie(), second);
  EXPECT_EQ(net.Report().rounds.back().num_messages, 3u);  // Two + a resend.
  EXPECT_LE(net.SentLogFrames(), 3u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// The shared fault decorator over sockets.

TEST(SocketTransportTest, AttachedInjectorExposesFaultStats) {
  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());
  EXPECT_EQ(net.fault_stats(), nullptr);  // No injector attached yet.

  net.AttachFaultInjector(FaultPlan::None());
  ASSERT_NE(net.fault_stats(), nullptr);

  net.BeginRound("socket.faultless");
  ASSERT_TRUE(net.SendFramed(h, p1, ProtocolId::kSecureSum, 1, {4}).ok());
  auto got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(net.fault_stats()->injected(), 0u);
}

TEST(SocketTransportTest, DroppedFrameIsRepairedByRetransmissionOverWire) {
  // One deterministic drop rule on the (H -> P1) channel: the first
  // delivery is swallowed, RecvValidated requests a retransmission, the
  // injector serves the pristine copy, and the payload arrives intact.
  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {p1}).ok());

  FaultPlan plan;
  plan.seed = 5;
  FaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.from = h;
  rule.to = p1;
  rule.probability = 1.0;
  rule.max_triggers = 1;
  plan.rules.push_back(rule);
  net.AttachFaultInjector(plan);

  net.BeginRound("socket.drop");
  std::vector<uint8_t> payload = {6, 6, 6};
  ASSERT_TRUE(
      net.SendFramed(h, p1, ProtocolId::kSecureSum, 1, payload).ok());
  auto got = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.ValueOrDie(), payload);
  ASSERT_NE(net.fault_stats(), nullptr);
  EXPECT_EQ(net.fault_stats()->dropped, 1u);
  EXPECT_EQ(net.fault_stats()->retransmits_served, 1u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

// What one fault plan did to one run: the payloads received, every fault
// counter and the traffic report.
struct FaultedRun {
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint64_t> stats;
  std::string report;
};

// Five rounds over H, P1 and P2, every channel carrying one frame per
// round, received in a fixed order. Parties must be registered.
FaultedRun RunFaultedRounds(Network* net) {
  const std::vector<std::pair<PartyId, PartyId>> channels = {
      {0, 1}, {1, 0}, {0, 2}, {2, 0}, {2, 1}, {1, 2}};
  RecvOptions opts;
  opts.deadline_ms = 400;  // A lost relayed frame waits this out once.
  FaultedRun run;
  for (uint8_t round = 0; round < 5; ++round) {
    net->BeginRound("faulted");
    for (uint8_t c = 0; c < channels.size(); ++c) {
      const std::vector<uint8_t> payload(8 + c, static_cast<uint8_t>(round));
      EXPECT_TRUE(net->SendFramed(channels[c].first, channels[c].second,
                                  ProtocolId::kSecureSum, c, payload)
                      .ok());
    }
    for (uint8_t c = 0; c < channels.size(); ++c) {
      auto got = net->RecvValidated(channels[c].second, channels[c].first,
                                    ProtocolId::kSecureSum, c, opts);
      EXPECT_TRUE(got.ok()) << got.status().message();
      run.payloads.push_back(got.ok() ? got.ValueOrDie()
                                      : std::vector<uint8_t>{});
    }
  }
  const FaultStats& s = *net->fault_stats();
  run.stats = {s.transmitted, s.dropped,      s.duplicated,
               s.reordered,   s.corrupted,    s.truncated,
               s.delayed,     s.crash_dropped, s.retransmits_served,
               s.retransmits_refused};
  run.report = net->Report().ToString();
  EXPECT_EQ(net->PendingCount(), 0u);
  return run;
}

TEST(SocketTransportTest, OneFaultPlanGivesTheSimulatorsStatsAndMetering) {
  // One rule per kind, each pinned to one channel and one round, on relayed
  // channels (touching the hosted P1) and on a local one (H -> P2).
  auto rule = [](FaultKind kind, PartyId from, PartyId to, uint64_t round) {
    FaultRule r;
    r.kind = kind;
    r.from = from;
    r.to = to;
    r.round_min = round;
    r.round_max = round;
    r.max_triggers = 1;
    return r;
  };
  FaultPlan plan;
  plan.seed = 9;
  plan.rules = {rule(FaultKind::kDrop, 0, 1, 0),
                rule(FaultKind::kCorrupt, 1, 0, 1),
                rule(FaultKind::kTruncate, 0, 2, 2),
                rule(FaultKind::kDuplicate, 2, 1, 3)};

  FaultyNetwork sim(plan);
  for (const char* name : {"H", "P1", "P2"}) sim.RegisterParty(name);
  const FaultedRun expected = RunFaultedRounds(&sim);
  EXPECT_EQ(sim.fault_stats()->injected(), 4u);
  EXPECT_EQ(sim.fault_stats()->retransmits_served, 3u);

  DaemonThread daemon;
  SocketNetwork net(FastConfig());
  for (const char* name : {"H", "P1", "P2"}) net.RegisterParty(name);
  ASSERT_TRUE(net.ConnectDaemon("127.0.0.1", daemon.port(), {1}).ok());
  net.AttachFaultInjector(plan);
  const FaultedRun got = RunFaultedRounds(&net);
  EXPECT_EQ(got.payloads, expected.payloads);
  EXPECT_EQ(got.stats, expected.stats);
  EXPECT_EQ(got.report, expected.report);
}

}  // namespace
}  // namespace psi
