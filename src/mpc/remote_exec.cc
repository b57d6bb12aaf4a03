#include "mpc/remote_exec.h"

#include <utility>

#include "common/logging.h"
#include "net/envelope.h"
#include "net/socket_util.h"

namespace psi {

namespace {

std::string SlotKey(const std::string& session, uint32_t party) {
  return session + "#" + std::to_string(party);
}

std::vector<uint8_t> SealResponse(uint32_t party, uint32_t stage_index,
                                  const wire::ExecResponse& resp) {
  return SealEnvelope(ProtocolId::kExec, wire::kExecStepResult, party,
                      stage_index, wire::PackExecResponse(resp));
}

}  // namespace

// -- StageExecutor ----------------------------------------------------------

PsidExecHandler StageExecutor::Handler() {
  return [this](const std::vector<uint8_t>& request) {
    return Handle(request);
  };
}

std::vector<uint8_t> StageExecutor::Handle(
    const std::vector<uint8_t>& request_frame) {
  ++stats_.requests;
  auto opened = OpenEnvelope(request_frame);
  wire::ExecRequest req;
  Status decoded = opened.status();
  if (decoded.ok()) {
    const Envelope& env = opened.ValueOrDie();
    if (env.protocol_id != ProtocolId::kExec ||
        env.step != wire::kExecStepRequest) {
      decoded = Status::SerializationError(
          "exec handler: frame is not a kExec request");
    } else {
      decoded = wire::UnpackExecRequest(env.payload, &req);
    }
  }
  if (!decoded.ok()) {
    // A malformed request still gets a well-formed answer: the host sees a
    // clean kError instead of a timeout. Seal under seq 0 — without a
    // decodable stage index there is nothing better, and the host drops
    // mismatched seqs as stale, which is the correct fate for this reply
    // to a frame the host cannot have sent.
    ++stats_.malformed;
    wire::ExecResponse resp;
    resp.outcome = wire::ExecOutcome::kError;
    resp.message = "malformed exec request: " + decoded.message();
    return SealResponse(0, 0, resp);
  }
  wire::ExecResponse resp = Dispatch(req);
  return SealResponse(req.party, req.stage_index, resp);
}

wire::ExecResponse StageExecutor::Dispatch(const wire::ExecRequest& req) {
  wire::ExecResponse resp;
  Slot& slot = slots_[SlotKey(req.session, req.party)];
  if (req.includes_state) {
    auto state = SessionState::Deserialize(req.state_blob);
    if (!state.ok()) {
      resp.outcome = wire::ExecOutcome::kError;
      resp.message =
          "shipped state rejected: " + state.status().message();
      return resp;
    }
    slot.state = std::move(state).ValueOrDie();
    slot.stages_completed = req.stage_index;
    slot.has_cached = false;
    ++stats_.states_loaded;
  } else if (slot.has_cached && slot.cached_stage == req.stage_index &&
             slot.stages_completed == req.stage_index + 1) {
    // The host is retrying a call whose answer it never saw (timeout,
    // SIGSTOP, dropped link). The program already ran from exactly this
    // request's pre-state: re-serve its result, recompute nothing.
    ++stats_.cache_hits;
    wire::ExecResponse cached = slot.cached;
    cached.from_cache = true;
    return cached;
  } else if (slot.stages_completed != req.stage_index) {
    // Fresh daemon, or the host rewound past us: ask for the checkpoint.
    ++stats_.need_state;
    resp.outcome = wire::ExecOutcome::kNeedState;
    resp.message = "daemon holds " + std::to_string(slot.stages_completed) +
                   " completed stage(s), request is for stage " +
                   std::to_string(req.stage_index);
    return resp;
  }
  if (!StageProgramRegistry::Global().Contains(req.program)) {
    ++stats_.unsupported;
    resp.outcome = wire::ExecOutcome::kUnsupported;
    resp.message = "stage program '" + req.program + "' is not registered";
    return resp;
  }
  // The request's keys start the stage's streams afresh, so a replayed
  // request re-derives bitwise the same draws no matter what ran here before.
  std::vector<Rng> rngs(req.rng_keys.begin(), req.rng_keys.end());
  const SessionState pre = slot.state;
  StageProgramContext ctx;
  ctx.state = &slot.state;
  for (Rng& rng : rngs) ctx.rngs.push_back(&rng);
  ++stats_.executed;
  Status ran = StageProgramRegistry::Global().Run(req.program, &ctx);
  if (!ran.ok()) {
    ++stats_.program_errors;
    resp.outcome = wire::ExecOutcome::kError;
    resp.message = "program '" + req.program + "' failed: " + ran.message();
    return resp;
  }
  stats_.crypto_ops += ctx.crypto_ops;
  resp.outcome = wire::ExecOutcome::kOk;
  resp.crypto_ops = ctx.crypto_ops;
  resp.state_blob = slot.state.ChangedSince(pre).Serialize();
  slot.stages_completed = req.stage_index + 1;
  slot.has_cached = true;
  slot.cached_stage = req.stage_index;
  slot.cached = resp;
  return resp;
}

// -- RemoteSessionOrchestrator ----------------------------------------------

Result<wire::ExecResponse> RemoteSessionOrchestrator::CallOnce(
    ProtocolSession* session, RemoteExecTransport* net,
    const RemoteStageSpec& spec, size_t index, uint32_t attempt,
    bool include_state, uint64_t deadline_ms, bool* no_engine) {
  *no_engine = false;
  wire::ExecRequest req;
  req.session = session->name();
  req.program = spec.program;
  req.stage_index = static_cast<uint32_t>(index);
  req.attempt = attempt;
  req.party = spec.party;
  req.includes_state = include_state;
  if (include_state) {
    req.state_blob = session->PartyState(spec.party).Serialize();
    ++exec_stats_.restores_shipped;
  }
  for (const std::string& label : spec.rng_labels) {
    PSI_ASSIGN_OR_RETURN(wire::ExecRngKey key, session->StageRngKey(label));
    req.rng_keys.push_back(key);
  }
  const std::vector<uint8_t> frame =
      SealEnvelope(ProtocolId::kExec, wire::kExecStepRequest, spec.party,
                   index, wire::PackExecRequest(req));
  ++exec_stats_.remote_calls;
  PSI_ASSIGN_OR_RETURN(const std::vector<uint8_t> answer,
                       net->RemoteCall(spec.party, frame, deadline_ms, index));
  if (answer.empty()) {
    *no_engine = true;
    return wire::ExecResponse{};
  }
  PSI_ASSIGN_OR_RETURN(const Envelope env, OpenEnvelope(answer));
  if (env.protocol_id != ProtocolId::kExec ||
      env.step != wire::kExecStepResult || env.seq != index) {
    return Status::ProtocolError(
        "daemon answered stage " + std::to_string(index) +
        " with a mistagged frame (protocol " +
        ProtocolIdToString(env.protocol_id) + ", step " +
        std::to_string(env.step) + ", seq " + std::to_string(env.seq) + ")");
  }
  wire::ExecResponse resp;
  PSI_RETURN_NOT_OK(wire::UnpackExecResponse(env.payload, &resp));
  return resp;
}

Status RemoteSessionOrchestrator::ApplyResult(ProtocolSession* session,
                                              const RemoteStageSpec& spec,
                                              size_t index,
                                              const wire::ExecResponse& resp) {
  // What the stage wrote; a rejected blob leaves the session untouched.
  PSI_ASSIGN_OR_RETURN(const SessionState written,
                       SessionState::Deserialize(resp.state_blob));
  session->PartyState(spec.party).PutAll(written);
  session->MeterCryptoOps(resp.crypto_ops);
  if (resp.from_cache) ++exec_stats_.cache_hits;
  exec_stats_.remote_crypto_ops += resp.crypto_ops;
  ++exec_stats_.remote_stages;
  daemon_next_stage_[spec.party] = static_cast<uint32_t>(index) + 1;
  return Status::OK();
}

Status RemoteSessionOrchestrator::RunStage(ProtocolSession* session,
                                           size_t index) {
  const RemoteStageSpec* spec = session->remote_spec(index);
  auto* net = dynamic_cast<RemoteExecTransport*>(session->network());
  if (spec == nullptr || net == nullptr ||
      !net->RemoteExecAvailable(spec->party)) {
    // Wire stages, host-private closures, and parties without a daemon all
    // run in-process, exactly as under the base orchestrator.
    return SessionOrchestrator::RunStage(session, index);
  }
  Status last = Status::OK();
  bool give_up_remote = false;
  for (uint32_t attempt = 1;
       attempt <= exec_policy_.max_attempts_per_stage && !give_up_remote;
       ++attempt) {
    if (attempt > 1) {
      exec_stats_.backoff_sleep_ms +=
          SleepBackoffMs(exec_policy_.backoff_base_ms,
                         exec_policy_.backoff_max_ms, attempt - 2,
                         &exec_backoff_rng_);
      // Whatever ended the previous attempt may have killed the link; a
      // reconnected daemon might be a fresh process, so forget what it
      // held and let kNeedState (or the proactive include below) restore.
      ++exec_stats_.reestablishes;
      Status repaired = session->network()->Reestablish();
      if (!repaired.ok()) {
        last = std::move(repaired);
        continue;
      }
      daemon_next_stage_.erase(spec->party);
    }
    auto synced = daemon_next_stage_.find(spec->party);
    bool include_state =
        synced == daemon_next_stage_.end() || synced->second != index;
    for (int ship = 0; ship < 2; ++ship) {
      bool no_engine = false;
      auto result = CallOnce(session, net, *spec, index, attempt,
                             include_state, exec_policy_.stage_deadline_ms,
                             &no_engine);
      if (!result.ok()) {
        last = result.status();
        if (last.message().find("timed out") != std::string::npos) {
          ++exec_stats_.timeouts;
        } else {
          ++exec_stats_.link_failures;
        }
        daemon_next_stage_.erase(spec->party);
        break;  // Next attempt (backoff + reestablish).
      }
      if (no_engine) {
        // The daemon hosts the party's wire presence but has no execution
        // engine: burning the retry budget cannot change that.
        ++exec_stats_.unsupported;
        last = Status::FailedPrecondition(
            "daemon hosting " + session->network()->party_name(spec->party) +
            " has no execution engine");
        give_up_remote = true;
        break;
      }
      const wire::ExecResponse& resp = result.ValueOrDie();
      if (resp.outcome == wire::ExecOutcome::kOk) {
        return ApplyResult(session, *spec, index, resp);
      }
      if (resp.outcome == wire::ExecOutcome::kNeedState && !include_state) {
        // Fresh daemon (restarted under us): re-ship the party's current
        // state — exactly the last committed checkpoint — and re-ask
        // within the same attempt.
        ++exec_stats_.need_state_roundtrips;
        include_state = true;
        continue;
      }
      if (resp.outcome == wire::ExecOutcome::kUnsupported) {
        ++exec_stats_.unsupported;
        last = Status::FailedPrecondition("daemon: " + resp.message);
        give_up_remote = true;
        break;
      }
      // kError, or kNeedState straight after a state ship: the program
      // failed deterministically (or the daemon is incoherent). A local
      // run of the same pure program would fail identically, so surface
      // the error as the stage's result instead of degrading.
      return Status::ProtocolError(
          "remote stage '" + session->stage_name(index) + "' (program '" +
          spec->program + "', " +
          session->network()->party_name(spec->party) + "): " + resp.message);
    }
  }
  if (exec_policy_.allow_local_fallback) {
    ++exec_stats_.degraded_to_local;
    PSI_LOG(Warning) << "remote execution of stage '"
                     << session->stage_name(index) << "' (program '"
                     << spec->program << "', "
                     << session->network()->party_name(spec->party)
                     << ") degraded to local after "
                     << (give_up_remote ? std::string("engine refusal")
                                        : std::to_string(
                                              exec_policy_
                                                  .max_attempts_per_stage) +
                                              " attempt(s)")
                     << "; last error: " << last.message();
    return SessionOrchestrator::RunStage(session, index);
  }
  return Status::ProtocolError(
      "remote execution of stage '" + session->stage_name(index) +
      "' (program '" + spec->program + "', " +
      session->network()->party_name(spec->party) + ") failed after " +
      std::to_string(exec_policy_.max_attempts_per_stage) +
      " attempt(s) with local fallback disabled; last error: " +
      last.message());
}

}  // namespace psi
