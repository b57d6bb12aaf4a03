// Remote stage execution: psid daemons run their hosted party's stage
// programs, and the host orchestrates over the wire.
//
// Two halves, both built on the stage-program abstraction in mpc/session.h:
//
//   * StageExecutor is the daemon-side engine. tools/psid.cc installs its
//     Handler() as the PsidConfig::exec_handler; each kExec transport
//     message carries one sealed ProtocolId::kExec request envelope, the
//     executor runs the named registered program against its cached
//     (session, party) state with the streams keyed by the request's stage
//     keys, and the response envelope ships back the entries the stage
//     wrote, which the host Puts into the party's state exactly as if the
//     stage had run in-process. A fresh daemon (restarted after SIGKILL)
//     holds no state and answers kNeedState; the host re-ships the party's
//     whole state, the same restore the local resume path performs.
//     Completed results are cached per slot, so a retry of a call whose
//     answer was lost in flight (SIGSTOP, timeout) is served without
//     recomputing a single Paillier operation.
//
//   * RemoteSessionOrchestrator extends SessionOrchestrator: stages added
//     with AddRemoteStage are dispatched to the daemon hosting the
//     executing party whenever the session's Network implements
//     RemoteExecTransport (SocketNetwork does). Per stage it runs a bounded
//     retry loop — wall-clock deadline per attempt, seeded backoff,
//     Reestablish() between attempts — and when the budget is exhausted it
//     degrades to local (hairpin) execution: metered, logged at Warning,
//     never silent, and bitwise-identical because a stage program is a pure
//     function of (state, stream keys). With allow_local_fallback off,
//     exhaustion is a clean ProtocolError naming the stage, program, party
//     and attempt count. Checkpointing, resume handshakes, and
//     session-level retries are inherited unchanged from the base
//     orchestrator.
//
// Secrecy: exec request/response blobs contain one party's durable state
// (or the entries a stage wrote) and the stage's stream keys — key material
// included — and travel only on the link to that party's own daemon, which
// is that party's execution environment (the same trust domain that would
// hold the state in a real deployment). They never transit a peer party.
// The exec channel is transport traffic: it is counted in TransportStats,
// never in the protocol TrafficReport, so remote-executed transcripts stay
// bitwise-comparable with simulator runs (docs/TRANSPORT.md, "Remote
// execution").

#ifndef PSI_MPC_REMOTE_EXEC_H_
#define PSI_MPC_REMOTE_EXEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"
#include "mpc/session.h"
#include "mpc/wire.h"
#include "net/daemon.h"
#include "net/network.h"

namespace psi {

/// \brief Counters of the daemon-side execution engine.
struct StageExecutorStats {
  uint64_t requests = 0;          ///< kExec envelopes received.
  uint64_t executed = 0;          ///< Programs actually run.
  uint64_t cache_hits = 0;        ///< Duplicate requests served cached.
  uint64_t need_state = 0;        ///< Answered kNeedState (no local slot).
  uint64_t states_loaded = 0;     ///< Full state blobs installed.
  uint64_t unsupported = 0;       ///< Unknown program names.
  uint64_t program_errors = 0;    ///< Programs that ran and failed.
  uint64_t malformed = 0;         ///< Undecodable request frames.
  uint64_t crypto_ops = 0;        ///< Total ops metered by run programs.
};

/// \brief Daemon-side stage-program engine. Single-threaded, like the
/// PsidDaemon event loop that drives it.
class StageExecutor {
 public:
  /// \brief Handles one kExec request frame (a sealed ProtocolId::kExec
  /// envelope) and returns the sealed result envelope. Never throws, never
  /// crashes the daemon: malformed input and failed programs become kError
  /// responses with context.
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request_frame);

  /// \brief Adapter for PsidConfig::exec_handler.
  PsidExecHandler Handler();

  const StageExecutorStats& stats() const { return stats_; }

  /// \brief Number of live (session, party) state slots.
  size_t num_slots() const { return slots_.size(); }

 private:
  struct Slot {
    /// Stages of the session completed up to and including the last run;
    /// a request for stage i is serviceable iff this equals i (fresh run)
    /// or i + 1 (duplicate of the run just completed -> cached response).
    uint32_t stages_completed = 0;
    SessionState state;
    bool has_cached = false;
    uint32_t cached_stage = 0;
    /// The response of the last completed run, re-served (flagged
    /// from_cache) when the host retries a call whose answer it never saw.
    PSI_SECRET wire::ExecResponse cached;
  };

  wire::ExecResponse Dispatch(const wire::ExecRequest& req);

  std::map<std::string, Slot> slots_;  ///< Key: session + "#" + party.
  StageExecutorStats stats_;
};

/// \brief Retry budget of the host-side remote dispatch. Distinct from the
/// session-level RetryPolicy: this governs one stage's remote attempts;
/// the session policy governs whole-attempt replays after checkpoints.
struct RemoteExecPolicy {
  /// Remote tries per stage before degrading (or failing).
  uint32_t max_attempts_per_stage = 3;
  /// Wall-clock bound on one remote call.
  uint64_t stage_deadline_ms = 2000;
  /// Backoff before remote attempt k sleeps min(base << (k-2), max) plus
  /// seeded jitter drawn uniformly from that same range.
  uint64_t backoff_base_ms = 2;
  uint64_t backoff_max_ms = 250;
  uint64_t seed = 0xd15ba7c4u;
  /// When true, an exhausted retry budget degrades the stage to local
  /// (hairpin) execution — metered and logged, bitwise-identical output.
  /// When false, exhaustion is a clean ProtocolError.
  bool allow_local_fallback = true;
};

/// \brief What the remote dispatch did across a session run.
struct RemoteExecStats {
  uint64_t remote_stages = 0;      ///< Stages committed from daemon results.
  uint64_t remote_calls = 0;       ///< kExec round trips attempted.
  uint64_t cache_hits = 0;         ///< Results the daemon served cached.
  uint64_t timeouts = 0;           ///< Calls that hit their deadline.
  uint64_t link_failures = 0;      ///< Calls that died with the link.
  uint64_t need_state_roundtrips = 0;  ///< kNeedState answers seen.
  uint64_t restores_shipped = 0;   ///< Requests that carried full state.
  uint64_t reestablishes = 0;      ///< Link repairs between attempts.
  uint64_t backoff_sleep_ms = 0;   ///< Total backoff slept, jitter included.
  uint64_t degraded_to_local = 0;  ///< Stages that fell back to hairpin.
  uint64_t unsupported = 0;        ///< kUnsupported / no-engine answers.
  uint64_t remote_crypto_ops = 0;  ///< Ops metered from daemon results.
};

/// \brief SessionOrchestrator that dispatches remote-placed stages to the
/// daemons hosting their executing parties. See the file comment.
class RemoteSessionOrchestrator : public SessionOrchestrator {
 public:
  RemoteSessionOrchestrator(RetryPolicy retry, RemoteExecPolicy exec)
      : SessionOrchestrator(retry),
        exec_policy_(exec),
        exec_backoff_rng_(exec.seed ^ 0x7e30c0ffee5eedULL) {}

  const RemoteExecStats& exec_stats() const { return exec_stats_; }

 protected:
  [[nodiscard]] Status RunStage(ProtocolSession* session,
                                size_t index) override;

 private:
  /// One sealed request -> decoded response round trip. `no_engine` is set
  /// (with an OK status) when the daemon answered with an empty body.
  [[nodiscard]] Result<wire::ExecResponse> CallOnce(
      ProtocolSession* session, RemoteExecTransport* net,
      const RemoteStageSpec& spec, size_t index, uint32_t attempt,
      bool include_state, uint64_t deadline_ms, bool* no_engine);

  /// Commits a kOk response: Puts the entries the stage wrote into the
  /// party's state and meters the stage's crypto ops.
  [[nodiscard]] Status ApplyResult(ProtocolSession* session,
                                   const RemoteStageSpec& spec, size_t index,
                                   const wire::ExecResponse& resp);

  RemoteExecPolicy exec_policy_;
  RemoteExecStats exec_stats_;
  Rng exec_backoff_rng_;
  /// Next stage index the party's daemon holds post-state for; a request
  /// for any other index must ship the state. Cleared on link trouble —
  /// the daemon answering after a reconnect may be a fresh process.
  std::map<PartyId, uint32_t> daemon_next_stage_;
};

}  // namespace psi

#endif  // PSI_MPC_REMOTE_EXEC_H_
