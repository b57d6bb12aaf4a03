// Transport bench: what the socket backend costs over the in-process
// simulator, and what a dead-daemon recovery costs end to end.
//
// Prints one JSON document (google-benchmark layout, so
// `tools/check_bench.py transport` can index the rows by name):
//
//   transport/simulator_roundtrip — K framed ping-pong round trips on the
//                                   in-process simulator: the latency and
//                                   metering control.
//   transport/socket_roundtrip    — the identical traffic through a psid
//                                   daemon over TCP loopback. Protocol
//                                   metering must match the simulator to
//                                   the byte; the relay framing the wire
//                                   pays on top is checked against the
//                                   analytic TransportOverheadCosts model.
//   transport/reconnect_resume    — the daemon dies (listener destroyed)
//                                   and is restarted on the same port; the
//                                   row times dead-wire detection +
//                                   Reestablish + resync + first payload.
//
// Every counter except the real_time_ns / *_ns fields is a deterministic
// meter (protocol traffic, relay frame counts, reconnect attempts), so the
// committed BENCH_transport.json baseline gates regressions machine
// independently. Wall-clock latencies are reported for eyeballing only:
// loopback scheduling is not reproducible across machines.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.h"
#include "net/cost_model.h"
#include "net/daemon.h"
#include "net/network.h"
#include "net/socket_transport.h"

namespace psi {
namespace bench {
namespace {

constexpr size_t kRoundTrips = 200;
constexpr size_t kPayloadBytes = 64;

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

SocketTransportConfig BenchTransportConfig() {
  SocketTransportConfig config;
  config.seed = 31;
  config.session_name = "bench-transport";
  config.recv_timeout_ms = 2000;
  config.connect_timeout_ms = 1000;
  config.handshake_timeout_ms = 1000;
  // Long heartbeat spacing: probe counts depend on wall-clock timing, so
  // the bench keeps probes out of the measured window entirely.
  config.heartbeat_interval_ms = 500;
  config.heartbeat_timeout_ms = 5000;
  config.max_reconnect_attempts = 4;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 20;
  return config;
}

/// An in-process psid daemon on its own serving thread. `abrupt_stop`
/// zeroes the drain grace so StopAndJoin() drops connections without a
/// goodbye — the client observes a dead peer, exactly like a crash.
class DaemonThread {
 public:
  explicit DaemonThread(uint16_t port = 0, bool abrupt_stop = false) {
    PsidConfig config;
    config.hosted_parties = {"P1"};
    if (abrupt_stop) config.drain_grace_ms = 0;
    daemon_ = std::make_unique<PsidDaemon>(config);
    port_ = daemon_->Listen(port).ValueOrDie();
    thread_ = std::thread([this] {
      const Status served = daemon_->Run();
      (void)served;
    });
  }
  ~DaemonThread() { StopAndJoin(); }

  uint16_t port() const { return port_; }

  PsidStats StopAndJoin() {
    if (daemon_ == nullptr) return last_stats_;
    daemon_->Stop();
    thread_.join();
    last_stats_ = daemon_->stats();
    // Destroying the daemon releases the listener so a successor can bind
    // the same port (a stopped daemon object still holds the fd).
    daemon_.reset();
    return last_stats_;
  }

 private:
  std::unique_ptr<PsidDaemon> daemon_;
  std::thread thread_;
  uint16_t port_ = 0;
  PsidStats last_stats_;
};

struct RoundTripOutcome {
  bool ok = false;
  TrafficReport traffic;
  double real_time_ns = 0.0;
};

/// K framed H->P1->H round trips on any backend; both directions touch P1,
/// so over sockets every frame relays through the daemon.
RoundTripOutcome PingPong(Network* net, PartyId h, PartyId p1) {
  RoundTripOutcome out;
  net->BeginRound("bench.roundtrip");
  std::vector<uint8_t> ping(kPayloadBytes, 0xa5);
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kRoundTrips; ++i) {
    if (!net->SendFramed(h, p1, ProtocolId::kSecureSum, 1, ping).ok()) {
      return out;
    }
    auto got = net->RecvValidated(p1, h, ProtocolId::kSecureSum, 1);
    if (!got.ok()) return out;
    if (!net->SendFramed(p1, h, ProtocolId::kSecureSum, 2, got.ValueOrDie())
             .ok()) {
      return out;
    }
    if (!net->RecvValidated(h, p1, ProtocolId::kSecureSum, 2).ok()) return out;
  }
  out.real_time_ns = ElapsedNs(start);
  out.ok = true;
  out.traffic = net->Report();
  return out;
}

int Run() {
  // --- Control: the in-process simulator. ---------------------------------
  Network sim;
  PartyId sim_h = sim.RegisterParty("H");
  PartyId sim_p1 = sim.RegisterParty("P1");
  RoundTripOutcome control = PingPong(&sim, sim_h, sim_p1);
  if (!control.ok) {
    std::fprintf(stderr, "FAIL: simulator round trips\n");
    return 1;
  }

  // --- The same traffic over TCP loopback through a daemon. ---------------
  auto daemon = std::make_unique<DaemonThread>(0, /*abrupt_stop=*/true);
  const uint16_t port = daemon->port();
  SocketNetwork net(BenchTransportConfig());
  PartyId h = net.RegisterParty("H");
  PartyId p1 = net.RegisterParty("P1");
  Status connected = net.ConnectDaemon("127.0.0.1", port, {p1});
  if (!connected.ok()) {
    std::fprintf(stderr, "FAIL: connect: %s\n", connected.message().c_str());
    return 1;
  }
  RoundTripOutcome socket_run = PingPong(&net, h, p1);
  if (!socket_run.ok) {
    std::fprintf(stderr, "FAIL: socket round trips\n");
    return 1;
  }
  const TransportStats after_pingpong = net.transport_stats();

  const bool metering_matches =
      socket_run.traffic.num_messages == control.traffic.num_messages &&
      socket_run.traffic.num_bytes == control.traffic.num_bytes &&
      socket_run.traffic.num_payload_bytes ==
          control.traffic.num_payload_bytes;

  // Analytic relay overhead for exactly the frames that crossed the wire.
  TransportOverheadCostParams overhead_params;
  overhead_params.relayed_messages = after_pingpong.frames_relayed;
  auto overhead = TransportOverheadCosts(overhead_params);
  if (!overhead.ok()) {
    std::fprintf(stderr, "FAIL: overhead model: %s\n",
                 overhead.status().message().c_str());
    return 1;
  }

  // --- Reconnect-to-resume: kill the daemon, restart, repair the link. ----
  const PsidStats first_daemon = daemon->StopAndJoin();
  daemon.reset();  // Port is genuinely dead now.
  const Status reset = net.ResetMetering();
  if (!reset.ok()) {
    std::fprintf(stderr, "FAIL: reset metering: %s\n",
                 reset.message().c_str());
    return 1;
  }
  net.BeginRound("bench.outage");
  // The send lands in the client queue; the receive detects the dead wire.
  if (!net.SendFramed(h, p1, ProtocolId::kSecureSum, 3, {1}).ok()) {
    std::fprintf(stderr, "FAIL: post-kill send\n");
    return 1;
  }
  auto dead = net.RecvValidated(p1, h, ProtocolId::kSecureSum, 3);
  if (dead.ok() || net.LinkAlive(p1)) {
    std::fprintf(stderr, "FAIL: dead daemon went undetected\n");
    return 1;
  }

  DaemonThread restarted(port);
  auto reconnect_start = std::chrono::steady_clock::now();
  Status repaired = net.Reestablish();
  if (!repaired.ok()) {
    std::fprintf(stderr, "FAIL: reestablish: %s\n",
                 repaired.message().c_str());
    return 1;
  }
  // Resync exactly as a session resume would: the frame lost inside the
  // killed daemon becomes a stale sequence number, not a wedge.
  net.ResyncChannel(h, p1);
  net.BeginRound("bench.resume");
  if (!net.SendFramed(h, p1, ProtocolId::kSecureSum, 4, {2}).ok() ||
      !net.RecvValidated(p1, h, ProtocolId::kSecureSum, 4).ok()) {
    std::fprintf(stderr, "FAIL: post-reconnect round trip\n");
    return 1;
  }
  const double reconnect_ns = ElapsedNs(reconnect_start);
  const TransportStats final_stats = net.transport_stats();
  net.Shutdown();
  const PsidStats second_daemon = restarted.StopAndJoin();

  // --- Report. ------------------------------------------------------------
  JsonReport report("bench_transport");
  report.context().Count("round_trips", kRoundTrips);
  report.context().Count("payload_bytes", kPayloadBytes);
  report.context().Count("transport_seed", 31);

  JsonFields& sim_row =
      report.AddRow("transport/simulator_roundtrip", control.real_time_ns);
  sim_row.Nanos("roundtrip_ns", control.real_time_ns / kRoundTrips);
  sim_row.Count("ok", 1);
  sim_row.Count("wire_messages", control.traffic.num_messages);
  sim_row.Count("wire_bytes", control.traffic.num_bytes);
  sim_row.Count("wire_payload_bytes", control.traffic.num_payload_bytes);

  JsonFields& sock_row =
      report.AddRow("transport/socket_roundtrip", socket_run.real_time_ns);
  sock_row.Nanos("roundtrip_ns", socket_run.real_time_ns / kRoundTrips);
  sock_row.Count("ok", 1);
  sock_row.Count("metering_matches_simulator", metering_matches ? 1 : 0);
  sock_row.Count("wire_messages", socket_run.traffic.num_messages);
  sock_row.Count("wire_bytes", socket_run.traffic.num_bytes);
  sock_row.Count("wire_payload_bytes", socket_run.traffic.num_payload_bytes);
  sock_row.Count("frames_relayed", after_pingpong.frames_relayed);
  sock_row.Count("frames_echoed", after_pingpong.frames_echoed);
  sock_row.Count("frames_hairpinned", first_daemon.frames_hairpinned);
  sock_row.Count("relay_overhead_bytes", overhead.ValueOrDie().relay_overhead_bytes);
  sock_row.Count("daemon_protocol_violations", first_daemon.protocol_violations);

  JsonFields& reconnect_row = report.AddRow("transport/reconnect_resume", reconnect_ns);
  reconnect_row.Count("ok", 1);
  reconnect_row.Count("reconnects", final_stats.reconnects);
  reconnect_row.Count("reconnect_attempts", final_stats.reconnect_attempts);
  reconnect_row.Count("backoff_sleep_ms", final_stats.backoff_sleep_ms);
  reconnect_row.Count("dead_peers_detected", final_stats.dead_peers_detected);
  reconnect_row.Count("resumed_hellos", second_daemon.resumed_hellos);
  report.Print();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace psi

int main() { return psi::bench::Run(); }
