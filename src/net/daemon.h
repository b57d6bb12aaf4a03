// psid: the party-hosting daemon of the socket transport.
//
// A PsidDaemon owns the TCP endpoint for one side of the wire: it accepts
// client connections, admits them with a nonce challenge (the shared token
// never crosses the wire; the client answers sha256(token || nonce)), and
// then routes kData frames between the connections of each named session.
// The repo's drivers are SPMD, so the common shape is one client
// connection per session whose frames hairpin through the daemon — the
// daemon is the hosted parties' transport presence, and SIGKILLing it
// genuinely severs those channels mid-protocol, which is exactly what the
// recovery tests exercise (tests/integration/socket_daemon_test.cc). It
// serves any number of concurrent sessions, keyed by the session name
// declared in the hello.
//
// The daemon is single-threaded: one poll() loop services the listener,
// the stop pipe, and every connection, with per-connection parsers and
// bounded send queues. Run() blocks until Stop() (thread-safe via the
// self-pipe) — the psid binary (tools/psid.cc) and forked test daemons
// use it; in-process tests drive Poll() directly. Lifecycle:
//
//   PsidDaemon d(config);
//   auto port = d.Listen(0);          // 0 = pick an ephemeral port
//   d.Run();                          // serve until Stop() or fatal error
//
// A restarted daemon (same port, fresh process) accepts resume-flagged
// hellos from clients whose previous connection died with the old
// process; it holds no protocol state, so nothing needs recovering on its
// side — clients resynchronize channels through the PR-5 session resume
// handshake.

#ifndef PSI_NET_DAEMON_H_
#define PSI_NET_DAEMON_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"
#include "net/socket_util.h"

namespace psi {

/// \brief Stage-execution hook: input is the body of one kExec transport
/// message (a sealed ProtocolId::kExec request envelope), the return value
/// is the full kExecResult body (a sealed result envelope). The daemon
/// stays codec-agnostic — it shuttles bytes; mpc/remote_exec builds the
/// real engine and tools/psid.cc installs it.
using PsidExecHandler =
    std::function<std::vector<uint8_t>(const std::vector<uint8_t>& request)>;

/// \brief Daemon configuration.
struct PsidConfig {
  /// Seeds challenge-nonce generation (deterministic for tests).
  uint64_t seed = 7;
  /// Shared admission secret; must match the clients' token.
  PSI_SECRET std::string auth_token = "psid-dev-token";
  /// Numeric IPv4 address to bind (loopback by default).
  std::string bind_host = "127.0.0.1";
  /// Hard cap on simultaneously-open client connections.
  size_t max_connections = 32;
  /// Per-connection bounded send queue; overflow drops the connection.
  size_t max_send_queue_frames = 1024;
  /// Names of the parties this daemon hosts (informational, for logs and
  /// the psid binary's status output).
  std::vector<std::string> hosted_parties;
  /// Stage-execution engine. When unset, kExec requests are answered with
  /// an empty kExecResult body ("no engine here"), which the host treats as
  /// a signal to degrade that stage to local execution — never a violation,
  /// never silence.
  PsidExecHandler exec_handler;
  /// Bound on the graceful-shutdown drain: how long Run() keeps flushing
  /// queued frames and goodbyes after Stop() before closing everything.
  /// Zero disables the drain entirely — connections are dropped without a
  /// goodbye, so clients observe a dead peer, exactly like a crash (the
  /// recovery benches use this to stage a daemon death in-process).
  uint64_t drain_grace_ms = 200;
};

/// \brief Observable daemon counters (single-threaded; read between
/// Poll() calls or after Stop()).
struct PsidStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t auth_failures = 0;
  uint64_t resumed_hellos = 0;      ///< Reconnects after a died connection.
  uint64_t frames_hairpinned = 0;   ///< kData echoed to its origin.
  uint64_t frames_forwarded = 0;    ///< kData routed to a peer connection.
  uint64_t heartbeats_answered = 0;
  uint64_t protocol_violations = 0; ///< Connections dropped for bad frames.
  uint64_t exec_requests = 0;       ///< kExec messages received.
  uint64_t exec_replies = 0;        ///< kExecResult messages produced.
  uint64_t exec_no_engine = 0;      ///< Requests answered without a handler.
  uint64_t drained_connections = 0; ///< Connections closed by a drain.
};

/// \brief Single-threaded party-hosting daemon. See the file comment.
class PsidDaemon {
 public:
  explicit PsidDaemon(PsidConfig config);
  ~PsidDaemon();
  PsidDaemon(const PsidDaemon&) = delete;
  PsidDaemon& operator=(const PsidDaemon&) = delete;

  /// \brief Binds and listens on `port` (0 picks an ephemeral port).
  /// Returns the bound port. SO_REUSEADDR is set so a restarted daemon can
  /// reclaim the port its killed predecessor held.
  [[nodiscard]] Result<uint16_t> Listen(uint16_t port);

  /// \brief The bound port (0 before Listen succeeds).
  uint16_t port() const { return port_; }

  /// \brief One event-loop turn, blocking at most `slice_ms`: accept,
  /// read, route, flush, reap. In-process tests pump this directly.
  [[nodiscard]] Status Poll(uint64_t slice_ms);

  /// \brief Serves until Stop() is called or the listener dies. The psid
  /// binary and forked test daemons live here.
  [[nodiscard]] Status Run();

  /// \brief Requests Run() to return; safe from another thread (and from
  /// the same thread between Poll() calls).
  void Stop();

  /// \brief Graceful shutdown: sends a goodbye on every admitted
  /// connection, flushes queued frames for up to `grace_ms`, then closes
  /// everything. Run() calls this (with the configured grace) after Stop()
  /// so a SIGTERM'd psid says farewell instead of vanishing mid-frame.
  void Drain(uint64_t grace_ms);

  /// \brief Closes every fd the daemon holds. The parent side of a fork
  /// calls this so only the child owns the sockets.
  void CloseAll();

  /// \brief Number of currently-open client connections.
  size_t num_connections() const { return conns_.size(); }

  const PsidStats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd = -1;
    bool admitted = false;
    std::vector<uint8_t> nonce;
    std::string session;
    std::vector<uint64_t> parties;  ///< Party ids the client computes for.
    TransportParser parser;
    std::deque<std::vector<uint8_t>> send_queue;
  };

  void AcceptReady();
  /// Handles every parsed message on `conn`; false means drop it.
  [[nodiscard]] bool ServiceConn(Conn* conn);
  [[nodiscard]] bool HandleHello(Conn* conn, const TransportMsg& msg);
  [[nodiscard]] bool HandleData(Conn* conn, const TransportMsg& msg);
  [[nodiscard]] bool HandleExec(Conn* conn, const TransportMsg& msg);
  /// Queues a packed message; false when the connection must drop.
  [[nodiscard]] bool QueueOn(Conn* conn, std::vector<uint8_t> packed);
  void CloseConn(Conn* conn);

  PsidConfig config_;
  Rng nonce_rng_;
  PsidStats stats_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int stop_pipe_[2] = {-1, -1};
  bool stop_requested_ = false;
  std::vector<Conn> conns_;
};

}  // namespace psi

#endif  // PSI_NET_DAEMON_H_
