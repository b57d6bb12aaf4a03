#include "mpc/session.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/chacha_core.h"
#include "common/serialize.h"
#include "crypto/sha256.h"

namespace psi {

// -- SessionState -----------------------------------------------------------

void SessionState::Put(const std::string& key, std::vector<uint8_t> value) {
  entries_[key] = std::move(value);
}

bool SessionState::Has(const std::string& key) const {
  return entries_.find(key) != entries_.end();
}

Result<std::vector<uint8_t>> SessionState::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::FailedPrecondition("SessionState: no entry under key '" +
                                      key + "'");
  }
  return it->second;
}

uint64_t SessionState::ByteSize() const {
  uint64_t total = 0;
  for (const auto& [key, value] : entries_) {
    total += key.size() + value.size();
  }
  return total;
}

std::vector<uint8_t> SessionState::Serialize() const {
  BinaryWriter w;
  w.Reserve(16 + ByteSize());
  w.WriteU32(kSessionStateVersion);
  w.WriteVarU64(entries_.size());
  for (const auto& [key, value] : entries_) {
    w.WriteString(key);
    w.WriteBytes(value);
  }
  return w.TakeBuffer();
}

Result<SessionState> SessionState::Deserialize(
    const std::vector<uint8_t>& buf) {
  BinaryReader r(buf);
  uint32_t version = 0;
  PSI_RETURN_NOT_OK(r.ReadU32(&version));
  if (version != kSessionStateVersion) {
    return Status::SerializationError(
        "SessionState: unsupported version " + std::to_string(version) +
        " (want " + std::to_string(kSessionStateVersion) + ")");
  }
  uint64_t count = 0;
  // An entry is at least a 1-byte key length plus a 1-byte value length.
  PSI_RETURN_NOT_OK(r.ReadCount(&count, /*min_bytes_per_element=*/2));
  SessionState state;
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    std::vector<uint8_t> value;
    PSI_RETURN_NOT_OK(r.ReadString(&key));
    PSI_RETURN_NOT_OK(r.ReadBytes(&value));
    const bool inserted =
        state.entries_.emplace(std::move(key), std::move(value)).second;
    if (!inserted) {
      return Status::SerializationError("SessionState: duplicate key");
    }
  }
  if (!r.AtEnd()) {
    return Status::SerializationError("SessionState: trailing bytes");
  }
  return state;
}

// -- StageProgramRegistry ---------------------------------------------------

StageProgramRegistry& StageProgramRegistry::Global() {
  static StageProgramRegistry* registry = new StageProgramRegistry();
  return *registry;
}

void StageProgramRegistry::Register(const std::string& name,
                                    StageProgramFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  programs_[name] = std::move(fn);
}

bool StageProgramRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return programs_.find(name) != programs_.end();
}

Status StageProgramRegistry::Run(const std::string& name,
                                 StageProgramContext* ctx) const {
  StageProgramFn fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = programs_.find(name);
    if (it == programs_.end()) {
      return Status::FailedPrecondition("stage program '" + name +
                                        "' is not registered");
    }
    fn = it->second;
  }
  return fn(ctx);
}

// -- ProtocolSession --------------------------------------------------------

ProtocolSession::ProtocolSession(std::string name, Network* network,
                                 std::vector<PartyId> parties)
    : name_(std::move(name)),
      network_(network),
      parties_(std::move(parties)) {}

void ProtocolSession::AddStage(std::string stage_name, StageBody body) {
  stage_names_.push_back(std::move(stage_name));
  stage_bodies_.push_back(std::move(body));
}

void ProtocolSession::AddRemoteStage(std::string stage_name,
                                     RemoteStageSpec spec) {
  const size_t index = stage_names_.size();
  remote_specs_[index] = spec;
  // The installed body is the local path: the base orchestrator and the
  // simulator run the program in-process, and the remote orchestrator's
  // degrade-to-local falls back to exactly this.
  AddStage(std::move(stage_name), [this, spec = std::move(spec)]() -> Status {
    return RunStageProgramLocally(spec);
  });
}

void ProtocolSession::RegisterRng(const std::string& label, Rng* rng) {
  std::array<uint32_t, 8>& key = rng_keys_[label];
  for (uint32_t& word : key) word = rng->NextU32();
}

Result<std::array<uint32_t, 8>> ProtocolSession::StageRngKey(
    const std::string& label) const {
  auto it = rng_keys_.find(label);
  // psi-lint: allow(secret-flow) the branch tests whether the public label is registered; no key bit reaches it
  if (it == rng_keys_.end()) {
    return Status::FailedPrecondition("session '" + name_ +
                                      "' has no RNG registered as '" + label +
                                      "'");
  }
  if (current_stage_ >= stage_names_.size()) {
    return Status::FailedPrecondition("session '" + name_ +
                                      "' has no stage to key a stream for");
  }
  // Length-prefixed, so distinct (stage, label) pairs hash apart.
  BinaryWriter coords;
  coords.WriteString(stage_names_[current_stage_]);
  coords.WriteString(label);
  const auto digest = Sha256::Hash(coords.TakeBuffer());
  std::array<uint32_t, 3> nonce;
  std::memcpy(nonce.data(), digest.data(), sizeof(nonce));
  PSI_SECRET std::array<uint8_t, 64> block;
  internal::ChaCha20Block(it->second, 0, nonce, &block);
  PSI_SECRET std::array<uint32_t, 8> stage_key;
  std::memcpy(stage_key.data(), block.data(), sizeof(stage_key));
  return stage_key;
}

Rng* ProtocolSession::StageRng(const std::string& label) {
  auto it = stage_rngs_.find(label);
  if (it == stage_rngs_.end()) {
    auto key = StageRngKey(label);
    if (!key.ok()) return nullptr;
    it = stage_rngs_.emplace(label, Rng(key.ValueOrDie())).first;
  }
  return &it->second;
}

void ProtocolSession::EnterStage(size_t index) {
  current_stage_ = index;
  stage_rngs_.clear();
  current_stage_ops_ = 0;
}

const RemoteStageSpec* ProtocolSession::remote_spec(size_t index) const {
  auto it = remote_specs_.find(index);
  return it == remote_specs_.end() ? nullptr : &it->second;
}

Status ProtocolSession::RunStageProgramLocally(const RemoteStageSpec& spec) {
  StageProgramContext ctx;
  ctx.state = &PartyState(spec.party);
  for (const std::string& label : spec.rng_labels) {
    Rng* rng = StageRng(label);
    if (rng == nullptr) {
      return Status::FailedPrecondition(
          "stage program '" + spec.program + "' wants RNG '" + label +
          "' but the session never registered it");
    }
    ctx.rngs.push_back(rng);
  }
  PSI_RETURN_NOT_OK(StageProgramRegistry::Global().Run(spec.program, &ctx));
  MeterCryptoOps(ctx.crypto_ops);
  return Status::OK();
}

SessionState& ProtocolSession::PartyState(PartyId party) {
  return states_[party];
}

void ProtocolSession::MeterCryptoOps(uint64_t ops) {
  current_stage_ops_ += ops;
}

// -- SessionOrchestrator ----------------------------------------------------

SessionOrchestrator::Checkpoint SessionOrchestrator::Capture(
    ProtocolSession& session, uint32_t stages_completed,
    std::vector<uint64_t> stage_ops) {
  Checkpoint cp;
  cp.stages_completed = stages_completed;
  cp.stage_ops = std::move(stage_ops);
  for (PartyId party : session.parties_) {
    cp.party_blobs.emplace_back(party, session.PartyState(party).Serialize());
  }
  return cp;
}

Status SessionOrchestrator::Restore(ProtocolSession& session,
                                    const Checkpoint& checkpoint) {
  for (const auto& [party, blob] : checkpoint.party_blobs) {
    PSI_ASSIGN_OR_RETURN(session.states_[party],
                         SessionState::Deserialize(blob));
  }
  return Status::OK();
}

Status SessionOrchestrator::ResumeHandshake(ProtocolSession& session,
                                            uint32_t attempt,
                                            uint32_t next_stage) {
  Network* net = session.network_;
  net->BeginRound("session." + session.name_ + ".resume (attempt " +
                  std::to_string(attempt) + ")");
  // Every frame still in a mailbox belongs to the failed attempt (including
  // fault-delayed frames the BeginRound above just flushed): drop them all,
  // then jump each channel's expected sequence number past anything the
  // failed attempt ever sent. Replayed stages then start on clean channels,
  // and any straggler that surfaces later is a stale duplicate RecvValidated
  // discards for free.
  for (PartyId party : session.parties_) {
    (void)net->Drain(party);
  }
  const std::vector<PartyId>& members = session.parties_;
  for (PartyId from : members) {
    for (PartyId to : members) {
      if (from != to) net->ResyncChannel(from, to);
    }
  }
  const TrafficReport before = net->Report();
  BinaryWriter w;
  w.WriteU32(attempt);
  w.WriteU32(next_stage);
  const std::vector<uint8_t> sync = w.TakeBuffer();
  for (PartyId from : members) {
    for (PartyId to : members) {
      if (from == to) continue;
      PSI_RETURN_NOT_OK(net->SendFramed(from, to, ProtocolId::kSession,
                                        kSessionStepResumeSync, sync));
    }
  }
  for (PartyId from : members) {
    for (PartyId to : members) {
      if (from == to) continue;
      PSI_ASSIGN_OR_RETURN(
          const std::vector<uint8_t> echo,
          net->RecvValidated(to, from, ProtocolId::kSession,
                             kSessionStepResumeSync));
      BinaryReader r(echo);
      uint32_t peer_attempt = 0;
      uint32_t peer_stage = 0;
      PSI_RETURN_NOT_OK(r.ReadU32(&peer_attempt));
      PSI_RETURN_NOT_OK(r.ReadU32(&peer_stage));
      if (!r.AtEnd()) {
        return Status::SerializationError(
            "resume sync frame has trailing bytes");
      }
      if (peer_attempt != attempt || peer_stage != next_stage) {
        return Status::ProtocolError(
            "resume handshake mismatch on " + net->party_name(from) + " -> " +
            net->party_name(to) + ": peer is at attempt " +
            std::to_string(peer_attempt) + " stage " +
            std::to_string(peer_stage) + ", expected attempt " +
            std::to_string(attempt) + " stage " + std::to_string(next_stage));
      }
    }
  }
  const TrafficReport after = net->Report();
  stats_.handshake_messages += after.num_messages - before.num_messages;
  stats_.handshake_bytes += after.num_bytes - before.num_bytes;
  return Status::OK();
}

Status SessionOrchestrator::Run(ProtocolSession* session) {
  if (session == nullptr || session->network_ == nullptr) {
    return Status::InvalidArgument(
        "SessionOrchestrator: session and network must be non-null");
  }
  if (session->stage_bodies_.empty()) {
    return Status::InvalidArgument("SessionOrchestrator: session '" +
                                   session->name_ + "' has no stages");
  }
  if (session->parties_.size() < 2) {
    return Status::InvalidArgument(
        "SessionOrchestrator: a session needs at least 2 parties");
  }
  if (policy_.max_attempts == 0) {
    return Status::InvalidArgument("RetryPolicy: max_attempts must be >= 1");
  }
  std::set<std::string> names;
  for (const std::string& stage : session->stage_names_) {
    if (!names.insert(stage).second) {
      // Both would derive the same streams and reuse masks.
      return Status::InvalidArgument(
          "SessionOrchestrator: session '" + session->name_ +
          "' has two stages named '" + stage + "'");
    }
  }
  stats_ = SessionStats{};
  completed_high_water_ = 0;
  last_failed_stage_.clear();
  Rng backoff_rng(policy_.seed);
  Network* net = session->network_;

  const Checkpoint initial = Capture(*session, 0, {});
  Checkpoint latest = initial;
  Status last_error = Status::OK();
  for (uint32_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    ++stats_.attempts;
    uint32_t start_stage = 0;
    std::vector<uint64_t> ledger;
    if (attempt > 1) {
      // Deterministic backoff measured in rounds: each waited round is a
      // real BeginRound, so fault windows defined in rounds (a crashed
      // party's restart_round) make progress while the session waits.
      const uint32_t shift = std::min<uint32_t>(attempt - 2, 20);
      uint64_t wait = policy_.backoff_rounds_base == 0
                          ? 0
                          : std::min(policy_.backoff_rounds_base << shift,
                                     policy_.backoff_rounds_cap);
      if (policy_.backoff_jitter_rounds > 0) {
        wait += backoff_rng.UniformU64(policy_.backoff_jitter_rounds + 1);
      }
      for (uint64_t i = 0; i < wait; ++i) {
        net->BeginRound("session." + session->name_ + ".backoff (attempt " +
                        std::to_string(attempt) + ")");
      }
      stats_.backoff_rounds += wait;

      const Checkpoint& source =
          policy_.resume_from_checkpoint ? latest : initial;
      // A checkpoint that fails to restore is terminal: retrying cannot
      // repair durable storage.
      PSI_RETURN_NOT_OK(Restore(*session, source));
      start_stage = source.stages_completed;
      ledger = source.stage_ops;
      // Repair the transport's own plumbing first: on a socket backend this
      // re-dials and re-authenticates dead daemon links (seeded backoff
      // with jitter); on the simulator it is a no-op. Only then can the
      // resume handshake's frames travel.
      Status repaired = net->Reestablish();
      if (!repaired.ok()) {
        last_error = std::move(repaired);
        continue;  // The peer may come back; this consumed an attempt.
      }
      Status handshake = ResumeHandshake(*session, attempt, start_stage);
      if (!handshake.ok()) {
        // The handshake travels the same faulty wire as everything else;
        // its failure consumes this attempt.
        last_error = std::move(handshake);
        continue;
      }
      ++stats_.resumes;
      stats_.stages_resumed += start_stage;
      for (uint32_t i = 0; i < start_stage; ++i) {
        stats_.crypto_ops_saved += source.stage_ops[i];
      }
    }

    Status stage_error = Status::OK();
    for (size_t i = start_stage; i < session->num_stages(); ++i) {
      session->EnterStage(i);
      ++stats_.stages_run;
      if (stage_observer_) {
        stage_observer_(static_cast<uint32_t>(i), session->stage_name(i));
      }
      Status body = RunStage(session, i);
      stats_.crypto_ops_total += session->current_stage_ops_;
      if (i < completed_high_water_) {
        // Only reachable with resume_from_checkpoint off: the full-restart
        // baseline redoes work a checkpoint already holds.
        stats_.crypto_ops_recomputed += session->current_stage_ops_;
      }
      if (!body.ok()) {
        last_failed_stage_ = session->stage_name(i);
        stage_error = std::move(body);
        break;
      }
      ledger.push_back(session->current_stage_ops_);
      latest = Capture(*session, static_cast<uint32_t>(i) + 1, ledger);
      completed_high_water_ =
          std::max<uint32_t>(completed_high_water_, static_cast<uint32_t>(i) + 1);
      ++stats_.checkpoints_written;
      for (const auto& [party, blob] : latest.party_blobs) {
        (void)party;
        stats_.checkpoint_bytes += blob.size();
      }
    }
    if (stage_error.ok()) {
      // Fault layers can leave stale duplicates or just-released delayed
      // frames behind even on success; a clean session never leaks frames
      // into whatever runs next on this network.
      (void)net->DrainAll();
      return Status::OK();
    }
    last_error = std::move(stage_error);
  }
  (void)net->DrainAll();
  const std::string where = last_failed_stage_.empty()
                                ? std::string("resume handshake")
                                : "stage '" + last_failed_stage_ + "'";
  return Status::ProtocolError(
      "session '" + session->name_ + "' failed after " +
      std::to_string(stats_.attempts) + " attempt(s) in " + where +
      "; last error: " + last_error.message());
}

Status SessionOrchestrator::RunStage(ProtocolSession* session, size_t index) {
  return session->stage_bodies_[index]();
}

}  // namespace psi
