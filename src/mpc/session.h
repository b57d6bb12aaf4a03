// Checkpointed protocol sessions: crash-restart recovery for long MPC runs.
//
// A ProtocolSession runs a protocol driver as a sequence of named stages.
// After every completed stage the SessionOrchestrator captures a checkpoint:
// each party's durable key/value SessionState. When a stage fails (a party
// crashed mid-round, the channel could not be repaired, a peer sent
// garbage), the orchestrator backs off a bounded, seeded number of rounds,
// restores every party from the last checkpoint, performs a resume
// handshake — re-synchronizing the per-channel envelope sequence counters
// and draining stale mailboxes — and replays only the failed stage.
//
// Randomness is a pure function of its coordinates. Registering a party's
// Rng draws one 256-bit session key from it; a stage then draws from the
// stream keyed by (session key, stage name, label). Every run of a stage —
// the first try, a replay after a crash, a run on the party's psid daemon —
// re-derives that stream from its start, so a replayed stage re-derives
// bitwise the same masks, shares and ciphertexts and a recovered run
// converges to the exact fault-free transcript (the chaos harness pins
// this). Nothing about randomness is checkpointed or rewound.
//
// Secrecy: checkpoints hold exactly what the parties already hold — key
// material, masks, shares. They are process-local durable storage and
// NEVER cross the wire; the only session traffic is the resume handshake,
// whose payload is two public counters (attempt, next stage).
// Checkpoint buffers are PSI_SECRET-annotated and psi_lint-audited
// (docs/FAULTS.md has the full secrecy argument).

#ifndef PSI_MPC_SESSION_H_
#define PSI_MPC_SESSION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"
#include "net/network.h"

namespace psi {

/// \brief Version tag of the SessionState wire format.
inline constexpr uint32_t kSessionStateVersion = 1;

/// \brief Step tag of the resume-handshake sync frame (ProtocolId::kSession).
inline constexpr uint16_t kSessionStepResumeSync = 1;

/// \brief One party's durable per-session store: named byte blobs written by
/// stage bodies and restored verbatim on recovery.
///
/// Values are opaque to the session layer; stages encode them with the
/// hardened mpc/wire.h codecs. Stage bodies routinely stash wire payloads
/// (ciphertexts, masked shares) here and re-send them on resume, so the
/// store itself is not PSI_SECRET — the taint engine tracks the underlying
/// plaintexts at their source instead. The durable serialized form IS
/// sensitive (it can embed private keys and masks): Checkpoint's
/// party_blobs carry the PSI_SECRET annotation and must only ever travel to
/// durable storage, never to a peer.
class SessionState {
 public:
  /// \brief Inserts or overwrites the blob under `key`.
  void Put(const std::string& key, std::vector<uint8_t> value);

  /// \brief True if a blob is stored under `key`.
  bool Has(const std::string& key) const;

  /// \brief The blob under `key`, or FailedPrecondition if absent (a stage
  /// reading state its predecessors never wrote is a driver bug).
  [[nodiscard]] Result<std::vector<uint8_t>> Get(const std::string& key) const;

  /// \brief Total stored bytes (keys + values).
  uint64_t ByteSize() const;

  /// \brief Versioned serialization: u32 version, varint entry count, then
  /// (string key, bytes value) pairs in key order.
  [[nodiscard]] std::vector<uint8_t> Serialize() const;

  /// \brief Parses a Serialize() buffer. Returns SerializationError on a
  /// version mismatch, truncation, an oversized count, duplicate keys, or
  /// trailing bytes — a damaged checkpoint is rejected, never half-loaded.
  [[nodiscard]] static Result<SessionState> Deserialize(
      const std::vector<uint8_t>& buf);

 private:
  std::map<std::string, std::vector<uint8_t>> entries_;
};

/// \brief Deterministic retry schedule for a session run.
struct RetryPolicy {
  /// Total tries of the stage sequence (1 = no recovery, fail fast).
  uint32_t max_attempts = 3;
  /// Rounds waited before retry r is base << (r-2), capped below. Each
  /// waited round is a real BeginRound, so crash-restart windows measured
  /// in rounds (net/fault.h) make progress while the session waits.
  uint64_t backoff_rounds_base = 1;
  uint64_t backoff_rounds_cap = 8;
  /// Extra rounds drawn uniformly from [0, jitter] per retry, from a stream
  /// seeded by `seed` (deterministic, independent of protocol randomness).
  uint64_t backoff_jitter_rounds = 1;
  uint64_t seed = 0x5e5510u;
  /// When false, every retry restarts from the initial checkpoint instead
  /// of the latest one — the "no recovery layer" baseline the recovery
  /// bench compares against. Completed crypto work is then redone and shows
  /// up in SessionStats::crypto_ops_recomputed.
  bool resume_from_checkpoint = true;
};

/// \brief What a session run did: attempts, checkpoint volume, handshake
/// traffic, and the crypto-op ledger proving checkpointed work is not
/// redone.
struct SessionStats {
  uint32_t attempts = 0;         ///< Tries of the stage sequence (>= 1).
  uint32_t resumes = 0;          ///< Successful resume handshakes.
  uint64_t stages_run = 0;       ///< Stage executions, including replays.
  uint64_t stages_resumed = 0;   ///< Stage executions skipped via resume.
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;  ///< Serialized bytes across all writes.
  uint64_t backoff_rounds = 0;    ///< Rounds spent waiting before retries.
  uint64_t handshake_messages = 0;  ///< Resume sync frames (incl. repairs).
  uint64_t handshake_bytes = 0;     ///< Wire bytes of the above.
  /// Crypto operations metered by stage bodies (MeterCryptoOps), total
  /// across all executions.
  uint64_t crypto_ops_total = 0;
  /// Ops of completed stages skipped by resuming (work recovery saved).
  uint64_t crypto_ops_saved = 0;
  /// Ops re-executed for a stage that had already completed in an earlier
  /// attempt. Zero whenever resume_from_checkpoint is true: a checkpointed
  /// ciphertext is never produced twice.
  uint64_t crypto_ops_recomputed = 0;
};

/// \brief Execution context a stage program runs against: one party's
/// durable state plus the stage's RNG streams (in the order the
/// RemoteStageSpec lists their labels).
///
/// A stage program is a pure function of (state, stream keys): no wire
/// access, no driver locals. That is what makes it location-transparent —
/// the same program run locally, on a psid daemon, or replayed after a
/// crash produces bitwise-identical state.
struct StageProgramContext {
  SessionState* state = nullptr;
  std::vector<Rng*> rngs;
  uint64_t crypto_ops = 0;  ///< Program-metered expensive operations.
};

/// \brief A registered, location-transparent stage computation.
using StageProgramFn = std::function<Status(StageProgramContext*)>;

/// \brief Process-wide registry of stage programs, keyed by name
/// ("p6/encrypt"). Protocol drivers register their programs once (idempotent
/// re-registration overwrites); the session layer runs them locally and the
/// psid execution engine (mpc/remote_exec) runs them daemon-side.
class StageProgramRegistry {
 public:
  static StageProgramRegistry& Global();

  void Register(const std::string& name, StageProgramFn fn);
  bool Contains(const std::string& name) const;

  /// \brief Runs the named program, or FailedPrecondition if unregistered.
  [[nodiscard]] Status Run(const std::string& name,
                           StageProgramContext* ctx) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, StageProgramFn> programs_;
};

/// \brief Placement of one remote-executable stage: which party computes,
/// which registered program, and which of the session's RNG streams the
/// program consumes (by registration label, in StageProgramContext order).
struct RemoteStageSpec {
  PartyId party = 0;
  std::string program;
  std::vector<std::string> rng_labels;
  /// Per-stage wall-clock deadline of one remote attempt; 0 defers to the
  /// orchestrator's policy default.
  uint64_t deadline_ms = 0;
};

/// \brief A protocol run decomposed into named, checkpointable stages.
///
/// Stage bodies are closures over the driver. They communicate through the
/// Network exactly as before, persist their outputs into the parties'
/// SessionStates, and report expensive public-key operations via
/// MeterCryptoOps. A body must be replayable: reading its inputs from
/// SessionState (not from driver locals of an earlier stage) and drawing
/// randomness only from StageRng.
class ProtocolSession {
 public:
  using StageBody = std::function<Status()>;

  /// \brief `parties` are the session members (host first by convention);
  /// the resume handshake runs over every ordered pair of them.
  ProtocolSession(std::string name, Network* network,
                  std::vector<PartyId> parties);

  /// \brief Appends a stage. Stages run in registration order. A stage's
  /// name keys its random streams, so names must be unique within the
  /// session; SessionOrchestrator::Run rejects duplicates.
  void AddStage(std::string stage_name, StageBody body);

  /// \brief Appends a stage bound to a registered stage program. The base
  /// orchestrator (and the simulator) runs the program in-process against
  /// the party's state — bitwise-identical to a remote run. A
  /// RemoteSessionOrchestrator (mpc/remote_exec) instead dispatches it to
  /// the daemon hosting `spec.party` when the transport supports that.
  void AddRemoteStage(std::string stage_name, RemoteStageSpec spec);

  /// \brief Registers a party's randomness under `label`: draws the
  /// session's 256-bit key for `label` from `rng`. That is the only draw
  /// the session takes from `rng`, so back-to-back sessions on the same
  /// generator get fresh randomness. Stages draw from StageRng(label).
  void RegisterRng(const std::string& label, Rng* rng);

  /// \brief The running stage's stream for `label`, or nullptr if `label`
  /// was never registered. Its key is StageRngKey(label); the stream starts
  /// afresh each time the stage runs, so a replay draws the same values.
  Rng* StageRng(const std::string& label);

  /// \brief Key of the running stage's stream for `label`: the first 32
  /// bytes of ChaCha20Block(session key, 0, SHA-256(stage name, label)).
  /// FailedPrecondition if `label` was never registered.
  [[nodiscard]] Result<std::array<uint32_t, 8>> StageRngKey(
      const std::string& label) const;

  /// \brief The durable store of `party` (created on first use).
  SessionState& PartyState(PartyId party);

  /// \brief Accounts `ops` expensive crypto operations (encryptions,
  /// decryptions, homomorphic additions, key generations) to the currently
  /// running stage.
  void MeterCryptoOps(uint64_t ops);

  const std::string& name() const { return name_; }
  Network* network() const { return network_; }
  const std::vector<PartyId>& parties() const { return parties_; }
  size_t num_stages() const { return stage_names_.size(); }
  const std::string& stage_name(size_t index) const {
    return stage_names_[index];
  }

  /// \brief The placement spec of stage `index`, or nullptr for stages
  /// added with AddStage (wire stages and host-private closures).
  const RemoteStageSpec* remote_spec(size_t index) const;

 private:
  friend class SessionOrchestrator;

  /// Makes stage `index` the running one: its streams start afresh and its
  /// op meter at zero.
  void EnterStage(size_t index);

  /// Runs `spec`'s program in-process against this session (the body
  /// AddRemoteStage installs, hence also the degrade-to-local path).
  [[nodiscard]] Status RunStageProgramLocally(const RemoteStageSpec& spec);

  std::string name_;
  Network* network_;
  std::vector<PartyId> parties_;
  std::vector<std::string> stage_names_;
  std::vector<StageBody> stage_bodies_;
  std::map<size_t, RemoteStageSpec> remote_specs_;
  PSI_SECRET std::map<std::string, std::array<uint32_t, 8>> rng_keys_;
  std::map<std::string, Rng> stage_rngs_;  ///< The running stage's streams.
  size_t current_stage_ = 0;
  std::map<PartyId, SessionState> states_;
  uint64_t current_stage_ops_ = 0;
};

/// \brief Drives a ProtocolSession under a RetryPolicy: run stages in order,
/// checkpoint after each, and on failure restore + handshake + replay.
class SessionOrchestrator {
 public:
  explicit SessionOrchestrator(RetryPolicy policy) : policy_(policy) {}
  virtual ~SessionOrchestrator() = default;

  /// \brief Runs the session to completion. InvalidArgument if two stages
  /// share a name. OK only if every stage succeeded in some attempt;
  /// otherwise the last stage error wrapped in a ProtocolError naming the
  /// attempt budget. Mailboxes of all parties are drained on every outcome,
  /// so a failed session never leaks frames into a successor protocol.
  [[nodiscard]] Status Run(ProtocolSession* session);

  const SessionStats& stats() const { return stats_; }

  /// \brief Observer invoked immediately before each stage executes, with
  /// the stage index and name. The chaos harness uses it to act at exact
  /// stage boundaries (SIGKILL/SIGSTOP the remote executor before stage k),
  /// the way SetRoundObserver pins exact round positions.
  using StageObserver =
      std::function<void(uint32_t stage_index, const std::string& name)>;

  /// \brief Installs (or clears, with nullptr) the stage observer.
  void SetStageObserver(StageObserver observer) {
    stage_observer_ = std::move(observer);
  }

 protected:
  /// One full checkpoint: serialized party states + the
  /// per-completed-stage crypto-op ledger. Holds key material and masks —
  /// PSI_SECRET, durable-storage only.
  struct Checkpoint {
    uint32_t stages_completed = 0;
    PSI_SECRET std::vector<std::pair<PartyId, std::vector<uint8_t>>>
        party_blobs;
    std::vector<uint64_t> stage_ops;  ///< Ops metered per completed stage.
  };

  /// \brief Executes stage `index`. The base implementation runs the
  /// registered body in-process; RemoteSessionOrchestrator (mpc/remote_exec)
  /// overrides it to dispatch remote-placed stages to the daemon hosting
  /// the executing party, falling back to this implementation to degrade.
  [[nodiscard]] virtual Status RunStage(ProtocolSession* session,
                                        size_t index);

  [[nodiscard]] Checkpoint Capture(ProtocolSession& session,
                                   uint32_t stages_completed,
                                   std::vector<uint64_t> stage_ops);
  [[nodiscard]] Status Restore(ProtocolSession& session,
                               const Checkpoint& checkpoint);
  [[nodiscard]] Status ResumeHandshake(ProtocolSession& session,
                                       uint32_t attempt, uint32_t next_stage);

  RetryPolicy policy_;
  SessionStats stats_;
  /// Highest stage index ever completed across attempts; re-running below
  /// it is recomputation (only possible with resume_from_checkpoint off).
  uint32_t completed_high_water_ = 0;
  /// Name of the stage whose failure ended the most recent attempt; gives
  /// the final ProtocolError its "last stage" context.
  std::string last_failed_stage_;
  StageObserver stage_observer_;
};

}  // namespace psi

#endif  // PSI_MPC_SESSION_H_
