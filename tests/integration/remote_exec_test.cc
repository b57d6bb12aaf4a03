// Remote stage execution through forked psid daemons, and every way of
// killing them.
//
// The acceptance invariants (docs/TRANSPORT.md, "Remote execution"):
//   1. A clean remote run — every provider stage executed by the daemon
//      hosting that provider — produces output bitwise identical to the
//      in-process simulator, and a protocol TrafficReport identical byte
//      for byte: exec traffic is transport metering, never protocol
//      metering.
//   2. SIGKILLing the daemon before *every* stage still converges to the
//      bitwise baseline: the host reconnects, re-ships the last committed
//      checkpoint (kNeedState), and recomputes zero checkpointed crypto
//      operations from its own ledger.
//   3. SIGSTOP is slowness, not death: a stalled daemon trips the per-call
//      deadline (remote stages) or the receive deadline (wire stages) and
//      recovery after SIGCONT needs no reconnect at all.
//   4. When remote execution is impossible the ladder is explicit: degrade
//      to local (hairpin) execution — metered, logged, bitwise-identical —
//      or, with fallback disabled, a clean ProtocolError naming the stage
//      and the spent attempt budget. Never a hang, never a wrong answer,
//      never a leaked frame.
//
// The daemon runs in a forked child so the signals genuinely hit a separate
// process owning separate state, exactly like a crashed or wedged host.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "common/serialize.h"
#include "graph/generators.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"
#include "mpc/remote_exec.h"
#include "mpc/session.h"
#include "mpc/wire.h"
#include "net/daemon.h"
#include "net/envelope.h"
#include "net/socket_transport.h"
#include "net/socket_util.h"

namespace psi {
namespace {

// ---------------------------------------------------------------------------
// ExecDaemon: a psid process with the execution engine wired in, which the
// test can SIGKILL, SIGSTOP/SIGCONT, or SIGTERM.

PsidDaemon* g_child_daemon = nullptr;

void ChildSignalHandler(int /*sig*/) {
  if (g_child_daemon != nullptr) g_child_daemon->Stop();
}

class ExecDaemon {
 public:
  explicit ExecDaemon(bool with_engine = true, uint16_t port = 0) {
    Spawn(port, with_engine);
  }
  ~ExecDaemon() { Kill(); }
  ExecDaemon(const ExecDaemon&) = delete;
  ExecDaemon& operator=(const ExecDaemon&) = delete;

  uint16_t port() const { return port_; }

  /// SIGKILL: no goodbye, no drain — the kernel resets its connections.
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  /// Kill (if needed) and start a fresh process on the same port. The
  /// replacement holds no executor slots: the host must restore state.
  void Restart(bool with_engine = true) {
    Kill();
    Spawn(port_, with_engine);
  }

  /// SIGSTOP: the daemon is alive but wedged — sockets stay open, frames
  /// queue in the kernel, nothing is processed until Cont().
  void Stop() {
    if (pid_ > 0) kill(pid_, SIGSTOP);
  }

  void Cont() {
    if (pid_ > 0) kill(pid_, SIGCONT);
  }

  /// SIGTERM and reap: returns the raw waitpid status so the caller can
  /// assert an orderly drain (exit code 0), not a signal death.
  int TermAndWait() {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  void Spawn(uint16_t port, bool with_engine) {
    // Register before forking so the child's registry can run the
    // protocols' stage programs without ever driving a session.
    RegisterLinkInfluenceStagePrograms();
    RegisterPropagationStagePrograms();
    // The engine must exist before the daemon: PsidConfig::exec_handler is
    // fixed at construction. The executor lives in this frame; the child
    // never returns from Run() (_exit skips unwinding), so it stays alive
    // for the daemon's whole life there, while the parent's copy is inert.
    StageExecutor executor;
    PsidConfig config;
    config.hosted_parties = {"P1", "P2", "P3"};
    if (with_engine) config.exec_handler = executor.Handler();
    PsidDaemon daemon(config);
    auto bound = daemon.Listen(port);
    ASSERT_TRUE(bound.ok()) << bound.status().message();
    port_ = bound.ValueOrDie();
    pid_ = fork();
    ASSERT_NE(pid_, -1);
    if (pid_ == 0) {
      // Child: serve until a signal. SIGTERM routes through Stop() so
      // Run() returns via the drain path and the exit code distinguishes
      // graceful shutdown (0) from a serve error (1).
      g_child_daemon = &daemon;
      signal(SIGTERM, ChildSignalHandler);
      signal(SIGINT, ChildSignalHandler);
      const Status served = daemon.Run();
      _exit(served.ok() ? 0 : 1);
    }
    daemon.CloseAll();
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Shared world and runners; seeds mirror socket_daemon_test.cc and
// chaos_test.cc so transcripts stay comparable across the whole suite.

struct WorldData {
  size_t m = 0;
  size_t n = 0;
  size_t actions = 0;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
};

WorldData MakeWorldData(size_t m, size_t n, size_t arcs, size_t actions,
                        uint64_t seed) {
  WorldData w;
  w.m = m;
  w.n = n;
  w.actions = actions;
  Rng rng(seed);
  w.graph = std::make_unique<SocialGraph>(
      ErdosRenyiArcs(&rng, n, arcs).ValueOrDie());
  auto truth = GroundTruthInfluence::Random(&rng, *w.graph, 0.1, 0.7);
  CascadeParams params;
  params.num_actions = actions;
  params.seeds_per_action = 2;
  w.log = GenerateCascades(&rng, *w.graph, truth, params).ValueOrDie();
  w.provider_logs = ExclusivePartition(&rng, w.log, m).ValueOrDie();
  return w;
}

struct Parties {
  PartyId host;
  std::vector<PartyId> providers;
};

Parties RegisterParties(Network* net, size_t m) {
  Parties p;
  p.host = net->RegisterParty("H");
  for (size_t k = 0; k < m; ++k) {
    p.providers.push_back(net->RegisterParty("P" + std::to_string(k + 1)));
  }
  return p;
}

SocketTransportConfig FastConfig(const std::string& session) {
  SocketTransportConfig config;
  config.seed = 21;
  config.session_name = session;
  config.recv_timeout_ms = 2000;
  config.connect_timeout_ms = 1000;
  config.handshake_timeout_ms = 1000;
  config.heartbeat_interval_ms = 20;
  config.heartbeat_timeout_ms = 300;
  config.max_reconnect_attempts = 8;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 30;
  return config;
}

// A SIGSTOPped daemon must read as slow, never as dead: the heartbeat
// dead-peer window comfortably outlasts the longest stall the tests inject.
SocketTransportConfig StallTolerantConfig(const std::string& session) {
  SocketTransportConfig config = FastConfig(session);
  config.heartbeat_timeout_ms = 1500;
  return config;
}

// Connects every provider to the daemon: all provider channels cross the
// wire and every provider stage is eligible for remote execution.
void ConnectAll(SocketNetwork* net, const Parties& parties,
                const ExecDaemon& daemon) {
  Status connected =
      net->ConnectDaemon("127.0.0.1", daemon.port(), parties.providers);
  ASSERT_TRUE(connected.ok()) << connected.message();
}

// The runners fix every RNG seed: any two completed runs, on any backend,
// local or remote or degraded, must agree bitwise. A null orchestrator
// means the plain single-attempt local path.
Result<LinkInfluence> RunP4(const WorldData& w, Network* net,
                            const Parties& parties,
                            SessionOrchestrator* orchestrator = nullptr,
                            SessionStats* stats = nullptr) {
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.paillier_bits = 384;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(1000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(501), pair_secret(502);
  LinkInfluenceProtocol proto(net, parties.host, parties.providers, cfg);
  if (orchestrator == nullptr && stats == nullptr) {
    return proto.Run(*w.graph, w.actions, w.provider_logs, &host_rng,
                     rng_ptrs, &pair_secret);
  }
  RetryPolicy retry;  // Ignored when an orchestrator is injected.
  return proto.RunSession(*w.graph, w.actions, w.provider_logs, &host_rng,
                          rng_ptrs, &pair_secret, retry, stats, {},
                          orchestrator);
}

Result<Protocol6Output> RunP6(const WorldData& w, Network* net,
                              const Parties& parties,
                              SessionOrchestrator* orchestrator = nullptr,
                              SessionStats* stats = nullptr) {
  Protocol6Config cfg;
  cfg.rsa_bits = 384;
  cfg.encryption = Protocol6Config::EncryptionMode::kHybrid;
  cfg.obfuscation_factor = 1.5;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < w.m; ++k) {
    rngs.push_back(std::make_unique<Rng>(2000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(601);
  PropagationGraphProtocol proto(net, parties.host, parties.providers, cfg);
  if (orchestrator == nullptr && stats == nullptr) {
    return proto.Run(*w.graph, w.actions, w.provider_logs, &host_rng,
                     rng_ptrs);
  }
  RetryPolicy retry;  // Ignored when an orchestrator is injected.
  return proto.RunSession(*w.graph, w.actions, w.provider_logs, &host_rng,
                          rng_ptrs, retry, stats, orchestrator);
}

std::vector<std::array<uint64_t, 4>> CanonicalArcs(const Protocol6Output& out) {
  std::vector<std::array<uint64_t, 4>> arcs;
  for (size_t a = 0; a < out.graphs.size(); ++a) {
    for (NodeId v = 0; v < out.graphs[a].num_nodes(); ++v) {
      for (const auto& arc : out.graphs[a].OutArcs(v)) {
        arcs.push_back({a, static_cast<uint64_t>(v),
                        static_cast<uint64_t>(arc.to), arc.delta_t});
      }
    }
  }
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

void ExpectSameInfluence(const LinkInfluence& got,
                         const LinkInfluence& baseline,
                         const std::string& context) {
  ASSERT_EQ(got.p.size(), baseline.p.size()) << context;
  for (size_t e = 0; e < got.p.size(); ++e) {
    ASSERT_EQ(got.p[e], baseline.p[e]) << context << " arc=" << e;
  }
}

RemoteExecPolicy FastExecPolicy() {
  RemoteExecPolicy exec;
  exec.stage_deadline_ms = 2000;
  exec.backoff_base_ms = 1;
  exec.backoff_max_ms = 30;
  return exec;
}

// Counts the session's stages with a clean remote run (discarding the
// result), so the sweeps can aim a signal at every stage boundary.
uint32_t CountStages(const WorldData& w, bool p6) {
  ExecDaemon daemon;
  SocketNetwork net(FastConfig(p6 ? "stage-count-p6" : "stage-count-p4"));
  Parties parties = RegisterParties(&net, w.m);
  ConnectAll(&net, parties, daemon);
  RemoteSessionOrchestrator orch(RetryPolicy{}, FastExecPolicy());
  uint32_t stages = 0;
  orch.SetStageObserver([&stages](uint32_t index, const std::string&) {
    stages = index + 1;
  });
  if (p6) {
    if (!RunP6(w, &net, parties, &orch).ok()) return 0;
  } else {
    if (!RunP4(w, &net, parties, &orch).ok()) return 0;
  }
  return stages;
}

// ---------------------------------------------------------------------------
// Exec wire format: round trips and hardened-decode rejections.

TEST(ExecWireTest, RequestRoundTripsWithAndWithoutState) {
  wire::ExecRequest req;
  req.session = "s-1";
  req.program = "p6/encrypt";
  req.stage_index = 3;
  req.attempt = 2;
  req.party = 7;
  req.includes_state = true;
  req.state_blob = {1, 2, 3, 4, 5};
  req.rng_keys.push_back({1, 2, 3, 4, 5, 6, 7, 8});
  req.rng_keys.push_back({0xffffffffu, 0, 0, 0, 0, 0, 0, 0x80000000u});

  wire::ExecRequest back;
  ASSERT_TRUE(wire::UnpackExecRequest(wire::PackExecRequest(req), &back).ok());
  EXPECT_EQ(back.session, req.session);
  EXPECT_EQ(back.program, req.program);
  EXPECT_EQ(back.stage_index, req.stage_index);
  EXPECT_EQ(back.attempt, req.attempt);
  EXPECT_EQ(back.party, req.party);
  EXPECT_TRUE(back.includes_state);
  EXPECT_EQ(back.state_blob, req.state_blob);
  EXPECT_EQ(back.rng_keys, req.rng_keys);

  // Stage keys ride even when the state stays home.
  req.includes_state = false;
  req.state_blob.clear();
  ASSERT_TRUE(wire::UnpackExecRequest(wire::PackExecRequest(req), &back).ok());
  EXPECT_FALSE(back.includes_state);
  EXPECT_TRUE(back.state_blob.empty());
  EXPECT_EQ(back.rng_keys, req.rng_keys);

  // A stage that draws nothing ships no keys.
  req.rng_keys.clear();
  ASSERT_TRUE(wire::UnpackExecRequest(wire::PackExecRequest(req), &back).ok());
  EXPECT_TRUE(back.rng_keys.empty());
}

TEST(ExecWireTest, ResponseRoundTripsCheckpointOnlyOnOk) {
  SessionState state;
  state.Put("k", {9, 9, 9});
  wire::ExecResponse ok;
  ok.outcome = wire::ExecOutcome::kOk;
  ok.crypto_ops = 42;
  ok.state_blob = state.Serialize();

  wire::ExecResponse back;
  ASSERT_TRUE(wire::UnpackExecResponse(wire::PackExecResponse(ok), &back).ok());
  EXPECT_EQ(back.outcome, wire::ExecOutcome::kOk);
  EXPECT_EQ(back.crypto_ops, 42u);
  EXPECT_EQ(back.state_blob, ok.state_blob);

  wire::ExecResponse err;
  err.outcome = wire::ExecOutcome::kNeedState;
  err.message = "daemon holds 0 completed stage(s)";
  ASSERT_TRUE(
      wire::UnpackExecResponse(wire::PackExecResponse(err), &back).ok());
  EXPECT_EQ(back.outcome, wire::ExecOutcome::kNeedState);
  EXPECT_EQ(back.message, err.message);
  EXPECT_TRUE(back.state_blob.empty());
}

TEST(ExecWireTest, DecodersRejectMalformedFrames) {
  wire::ExecRequest req;
  req.session = "s";
  req.program = "p";
  req.rng_keys.push_back({1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<uint8_t> req_buf = wire::PackExecRequest(req);
  wire::ExecResponse resp;
  resp.outcome = wire::ExecOutcome::kOk;
  resp.state_blob = {1};
  std::vector<uint8_t> resp_buf = wire::PackExecResponse(resp);

  wire::ExecRequest rq;
  wire::ExecResponse rs;
  // Wrong version.
  std::vector<uint8_t> bad = req_buf;
  bad[0] ^= 0xff;
  EXPECT_FALSE(wire::UnpackExecRequest(bad, &rq).ok());
  bad = resp_buf;
  bad[0] ^= 0xff;
  EXPECT_FALSE(wire::UnpackExecResponse(bad, &rs).ok());
  // Truncation.
  bad = req_buf;
  bad.pop_back();
  EXPECT_FALSE(wire::UnpackExecRequest(bad, &rq).ok());
  bad = resp_buf;
  bad.pop_back();
  EXPECT_FALSE(wire::UnpackExecResponse(bad, &rs).ok());
  // Trailing garbage.
  bad = req_buf;
  bad.push_back(0);
  EXPECT_FALSE(wire::UnpackExecRequest(bad, &rq).ok());
  bad = resp_buf;
  bad.push_back(0);
  EXPECT_FALSE(wire::UnpackExecResponse(bad, &rs).ok());
  // Empty.
  EXPECT_FALSE(wire::UnpackExecRequest({}, &rq).ok());
  EXPECT_FALSE(wire::UnpackExecResponse({}, &rs).ok());
  // A key count the buffer cannot hold (32 bytes per key).
  wire::ExecRequest keyless = req;
  keyless.rng_keys.clear();
  bad = wire::PackExecRequest(keyless);
  bad.back() = 2;  // The trailing varint key count.
  bad.resize(bad.size() + 32);
  EXPECT_FALSE(wire::UnpackExecRequest(bad, &rq).ok());
}

// A version-1 request — RNG snapshots where version 2 has stage keys — is
// refused with a clean Status naming both versions, never half-decoded.
TEST(ExecWireTest, RejectsVersionOneRequests) {
  // Version, session, program, stage index, attempt, party, includes_state,
  // then one labelled 120-byte snapshot.
  BinaryWriter w;
  w.WriteU32(1);
  w.WriteString("p4");
  w.WriteString("p6/encrypt");
  w.WriteU32(3);
  w.WriteU32(1);
  w.WriteU32(2);
  w.WriteU8(0);
  w.WriteVarU64(1);
  w.WriteString("provider0");
  w.WriteBytes(std::vector<uint8_t>(120, 0x5a));
  wire::ExecRequest req;
  Status status = wire::UnpackExecRequest(w.TakeBuffer(), &req);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kSerializationError);
  EXPECT_NE(status.message().find("unsupported version 1 (want 2)"),
            std::string::npos)
      << status.message();
}

// ---------------------------------------------------------------------------
// StageExecutor, driven directly with sealed frames: the daemon-side
// checkpoint-and-cache discipline.

constexpr char kTestProgram[] = "test/incr";

void RegisterTestProgram() {
  StageProgramRegistry::Global().Register(
      kTestProgram, [](StageProgramContext* ctx) -> Status {
        if (ctx->state == nullptr || ctx->rngs.size() != 1) {
          return Status::FailedPrecondition(
              "test/incr wants one state and one RNG");
        }
        PSI_ASSIGN_OR_RETURN(const std::vector<uint8_t> buf,
                             ctx->state->Get("x"));
        std::vector<uint64_t> x;
        PSI_RETURN_NOT_OK(wire::UnpackU64s(buf, &x));
        if (x.size() != 1) return Status::FailedPrecondition("bad x");
        x[0] += 1 + ctx->rngs[0]->UniformU64(10);
        ctx->state->Put("x", wire::PackU64s(x));
        ctx->crypto_ops += 1;
        return Status::OK();
      });
}

std::vector<uint8_t> SealRequest(const wire::ExecRequest& req) {
  return SealEnvelope(ProtocolId::kExec, wire::kExecStepRequest, req.party,
                      req.stage_index, wire::PackExecRequest(req));
}

wire::ExecResponse OpenResult(const std::vector<uint8_t>& frame,
                              uint64_t* seq = nullptr) {
  auto env = OpenEnvelope(frame);
  EXPECT_TRUE(env.ok()) << env.status().message();
  wire::ExecResponse resp;
  if (env.ok()) {
    if (seq != nullptr) *seq = env.ValueOrDie().seq;
    Status decoded =
        wire::UnpackExecResponse(env.ValueOrDie().payload, &resp);
    EXPECT_TRUE(decoded.ok()) << decoded.message();
  }
  return resp;
}

TEST(StageExecutorTest, ExecutesCachesAndRestoresState) {
  RegisterTestProgram();
  StageExecutor executor;

  SessionState initial;
  initial.Put("x", wire::PackU64s({41}));
  wire::ExecRequest req;
  req.session = "unit";
  req.program = kTestProgram;
  req.stage_index = 0;
  req.party = 1;
  req.includes_state = true;
  req.state_blob = initial.Serialize();
  req.rng_keys.push_back({77, 0, 0, 0, 0, 0, 0, 1});

  // Fresh run: state installed, program executed, checkpoint returned.
  wire::ExecResponse first = OpenResult(executor.Handle(SealRequest(req)));
  ASSERT_EQ(first.outcome, wire::ExecOutcome::kOk);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(first.crypto_ops, 1u);
  auto after = SessionState::Deserialize(first.state_blob).ValueOrDie();
  std::vector<uint64_t> x;
  ASSERT_TRUE(wire::UnpackU64s(after.Get("x").ValueOrDie(), &x).ok());
  // The program drew from the stream the request's key starts.
  Rng replay(req.rng_keys[0]);
  EXPECT_EQ(x[0], 41 + 1 + replay.UniformU64(10));
  EXPECT_EQ(executor.stats().executed, 1u);
  EXPECT_EQ(executor.stats().states_loaded, 1u);
  EXPECT_EQ(executor.num_slots(), 1u);

  // Retry of the same stage (the answer was "lost"): served from cache,
  // bitwise the same checkpoint, nothing recomputed.
  req.includes_state = false;
  req.state_blob.clear();
  req.attempt = 2;
  wire::ExecResponse retry = OpenResult(executor.Handle(SealRequest(req)));
  ASSERT_EQ(retry.outcome, wire::ExecOutcome::kOk);
  EXPECT_TRUE(retry.from_cache);
  EXPECT_EQ(retry.state_blob, first.state_blob);
  EXPECT_EQ(executor.stats().executed, 1u);
  EXPECT_EQ(executor.stats().cache_hits, 1u);

  // A stage the daemon has no state for: kNeedState, not a guess.
  req.stage_index = 5;
  wire::ExecResponse ahead = OpenResult(executor.Handle(SealRequest(req)));
  EXPECT_EQ(ahead.outcome, wire::ExecOutcome::kNeedState);
  EXPECT_EQ(executor.stats().need_state, 1u);

  // Unknown program: kUnsupported with the name in the message.
  req.stage_index = 1;
  req.program = "no/such-program";
  wire::ExecResponse unknown = OpenResult(executor.Handle(SealRequest(req)));
  EXPECT_EQ(unknown.outcome, wire::ExecOutcome::kUnsupported);
  EXPECT_NE(unknown.message.find("no/such-program"), std::string::npos);
  EXPECT_EQ(executor.stats().unsupported, 1u);
}

TEST(StageExecutorTest, MalformedRequestGetsWellFormedError) {
  StageExecutor executor;
  uint64_t seq = 99;
  wire::ExecResponse resp =
      OpenResult(executor.Handle({0xde, 0xad, 0xbe, 0xef}), &seq);
  EXPECT_EQ(resp.outcome, wire::ExecOutcome::kError);
  EXPECT_NE(resp.message.find("malformed"), std::string::npos);
  // Sealed under seq 0: the host drops it as stale, which is the correct
  // fate of a reply to a frame the host cannot have sent.
  EXPECT_EQ(seq, 0u);
  EXPECT_EQ(executor.stats().malformed, 1u);
  EXPECT_EQ(executor.stats().executed, 0u);
  EXPECT_EQ(executor.num_slots(), 0u);
}

// ---------------------------------------------------------------------------
// Clean remote parity: daemon-executed stages are bitwise-invisible in the
// protocol transcript.

TEST(RemoteExecTest, CleanRemoteP6MatchesSimulatorBitwise) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  Network sim;
  auto baseline =
      CanonicalArcs(RunP6(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie());
  auto sim_report = sim.Report();

  ExecDaemon daemon;
  SocketNetwork net(FastConfig("remote-clean-p6"));
  Parties parties = RegisterParties(&net, w.m);
  ConnectAll(&net, parties, daemon);
  RemoteSessionOrchestrator orch(RetryPolicy{}, FastExecPolicy());
  SessionStats stats;
  auto result = RunP6(w, &net, parties, &orch, &stats);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(CanonicalArcs(result.ValueOrDie()), baseline);

  // Every provider stage ran on the daemon, none degraded, and the
  // daemon-side crypto work was metered home.
  const RemoteExecStats& xs = orch.exec_stats();
  EXPECT_EQ(xs.remote_stages, w.m);
  EXPECT_EQ(xs.degraded_to_local, 0u);
  EXPECT_EQ(xs.timeouts, 0u);
  EXPECT_GT(xs.remote_crypto_ops, 0u);
  EXPECT_GE(stats.crypto_ops_total, xs.remote_crypto_ops);

  // The protocol transcript is bitwise the simulator's: exec frames are
  // transport traffic, invisible to protocol metering.
  auto sock_report = net.Report();
  ASSERT_EQ(sock_report.rounds.size(), sim_report.rounds.size());
  for (size_t i = 0; i < sim_report.rounds.size(); ++i) {
    EXPECT_EQ(sock_report.rounds[i].label, sim_report.rounds[i].label);
    EXPECT_EQ(sock_report.rounds[i].num_messages,
              sim_report.rounds[i].num_messages);
    EXPECT_EQ(sock_report.rounds[i].num_bytes,
              sim_report.rounds[i].num_bytes);
  }
  EXPECT_EQ(sock_report.num_bytes, sim_report.num_bytes);
  // But the exec channel did real work on the wire.
  EXPECT_GE(net.transport_stats().exec_calls, w.m);
  EXPECT_GT(net.transport_stats().exec_bytes_rx, 0u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST(RemoteExecTest, CleanRemoteP4MatchesSimulatorBitwise) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network sim;
  auto baseline = RunP4(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie();
  auto sim_report = sim.Report();

  ExecDaemon daemon;
  SocketNetwork net(FastConfig("remote-clean-p4"));
  Parties parties = RegisterParties(&net, w.m);
  ConnectAll(&net, parties, daemon);
  RemoteSessionOrchestrator orch(RetryPolicy{}, FastExecPolicy());
  auto result = RunP4(w, &net, parties, &orch);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectSameInfluence(result.ValueOrDie(), baseline, "clean remote p4");

  EXPECT_EQ(orch.exec_stats().remote_stages, w.m);
  EXPECT_EQ(orch.exec_stats().degraded_to_local, 0u);
  auto sock_report = net.Report();
  EXPECT_EQ(sock_report.num_bytes, sim_report.num_bytes);
  EXPECT_EQ(sock_report.rounds.size(), sim_report.rounds.size());
  EXPECT_EQ(net.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// SIGKILL at every stage: the deployment survives losing the whole remote
// executor — its state, its caches, its sockets — at every boundary.

TEST(RemoteExecTest, Protocol6SurvivesDaemonSigkillAtEveryStage) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  Network sim;
  auto baseline =
      CanonicalArcs(RunP6(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie());
  const uint32_t stages = CountStages(w, /*p6=*/true);
  ASSERT_GT(stages, 4u);

  uint64_t restores = 0, resumes = 0;
  for (uint32_t kill_at = 0; kill_at < stages; ++kill_at) {
    ExecDaemon daemon;
    SocketNetwork net(FastConfig("p6-exec-kill-" + std::to_string(kill_at)));
    Parties parties = RegisterParties(&net, w.m);
    ConnectAll(&net, parties, daemon);
    RetryPolicy retry;
    retry.max_attempts = 5;
    RemoteSessionOrchestrator orch(retry, FastExecPolicy());
    bool killed = false;
    orch.SetStageObserver([&](uint32_t index, const std::string&) {
      if (index == kill_at && !killed) {
        killed = true;
        // The replacement process holds no slots: a remote stage must see
        // kNeedState and ship the last committed checkpoint; a wire stage
        // must fail the attempt and resume through the session handshake.
        daemon.Restart();
      }
    });
    SessionStats stats;
    auto result = RunP6(w, &net, parties, &orch, &stats);
    ASSERT_TRUE(killed) << "kill_at=" << kill_at
                        << ": observer never fired (stage count stale?)";
    ASSERT_EQ(net.PendingCount(), 0u) << "kill_at=" << kill_at;
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "kill_at=" << kill_at;
    ASSERT_TRUE(result.ok())
        << "kill_at=" << kill_at << ": " << result.status().message();
    ASSERT_EQ(CanonicalArcs(result.ValueOrDie()), baseline)
        << "kill_at=" << kill_at;
    restores += orch.exec_stats().restores_shipped;
    resumes += stats.resumes;
  }
  // The sweep must exercise both recovery paths: checkpoint restores into
  // a fresh daemon, and session-level resumes for wire-stage kills.
  EXPECT_GT(restores, 0u);
  EXPECT_GT(resumes, 0u);
}

TEST(RemoteExecTest, Protocol4SurvivesDaemonSigkillAtEveryStage) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network sim;
  auto baseline = RunP4(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie();
  const uint32_t stages = CountStages(w, /*p6=*/false);
  ASSERT_GT(stages, 4u);

  uint64_t restores = 0, resumes = 0;
  for (uint32_t kill_at = 0; kill_at < stages; ++kill_at) {
    ExecDaemon daemon;
    SocketNetwork net(FastConfig("p4-exec-kill-" + std::to_string(kill_at)));
    Parties parties = RegisterParties(&net, w.m);
    ConnectAll(&net, parties, daemon);
    RetryPolicy retry;
    retry.max_attempts = 5;
    RemoteSessionOrchestrator orch(retry, FastExecPolicy());
    bool killed = false;
    orch.SetStageObserver([&](uint32_t index, const std::string&) {
      if (index == kill_at && !killed) {
        killed = true;
        daemon.Restart();
      }
    });
    SessionStats stats;
    auto result = RunP4(w, &net, parties, &orch, &stats);
    ASSERT_TRUE(killed) << "kill_at=" << kill_at;
    ASSERT_EQ(net.PendingCount(), 0u) << "kill_at=" << kill_at;
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "kill_at=" << kill_at;
    ASSERT_TRUE(result.ok())
        << "kill_at=" << kill_at << ": " << result.status().message();
    ExpectSameInfluence(result.ValueOrDie(), baseline,
                        "kill_at=" + std::to_string(kill_at));
    restores += orch.exec_stats().restores_shipped;
    resumes += stats.resumes;
  }
  EXPECT_GT(restores, 0u);
  EXPECT_GT(resumes, 0u);
}

// ---------------------------------------------------------------------------
// SIGSTOP at every stage: a wedged daemon is slowness, not death. Remote
// calls trip their per-stage deadline and retry; wire stages just run slow;
// nothing reconnects, nothing is recomputed, the output is bitwise.

TEST(RemoteExecTest, Protocol6SurvivesDaemonSigstopAtEveryStage) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  Network sim;
  auto baseline =
      CanonicalArcs(RunP6(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie());
  const uint32_t stages = CountStages(w, /*p6=*/true);
  ASSERT_GT(stages, 4u);

  uint64_t timeouts = 0;
  for (uint32_t stop_at = 0; stop_at < stages; ++stop_at) {
    ExecDaemon daemon;
    SocketNetwork net(
        StallTolerantConfig("p6-exec-stop-" + std::to_string(stop_at)));
    Parties parties = RegisterParties(&net, w.m);
    ConnectAll(&net, parties, daemon);
    RetryPolicy retry;
    retry.max_attempts = 5;
    RemoteExecPolicy exec = FastExecPolicy();
    exec.stage_deadline_ms = 250;  // < the 400 ms stall: attempt 1 times out.
    exec.max_attempts_per_stage = 4;
    RemoteSessionOrchestrator orch(retry, exec);
    bool stopped = false;
    std::thread watchdog;
    orch.SetStageObserver([&](uint32_t index, const std::string&) {
      if (index == stop_at && !stopped) {
        stopped = true;
        daemon.Stop();
        watchdog = std::thread([&daemon] {
          SleepMs(400);
          daemon.Cont();
        });
      }
    });
    SessionStats stats;
    auto result = RunP6(w, &net, parties, &orch, &stats);
    if (watchdog.joinable()) watchdog.join();
    ASSERT_TRUE(stopped) << "stop_at=" << stop_at;
    ASSERT_EQ(net.PendingCount(), 0u) << "stop_at=" << stop_at;
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "stop_at=" << stop_at;
    ASSERT_TRUE(result.ok())
        << "stop_at=" << stop_at << ": " << result.status().message();
    ASSERT_EQ(CanonicalArcs(result.ValueOrDie()), baseline)
        << "stop_at=" << stop_at;
    // Slow is not dead: the stall never trips heartbeat dead-peer
    // detection and recovery after SIGCONT needs no reconnect.
    EXPECT_EQ(net.transport_stats().dead_peers_detected, 0u)
        << "stop_at=" << stop_at;
    EXPECT_EQ(net.transport_stats().reconnects, 0u) << "stop_at=" << stop_at;
    EXPECT_EQ(orch.exec_stats().degraded_to_local, 0u)
        << "stop_at=" << stop_at;
    timeouts += orch.exec_stats().timeouts;
  }
  // Stalls aimed at remote stages must actually trip the call deadline.
  EXPECT_GT(timeouts, 0u);
}

TEST(RemoteExecTest, Protocol4SurvivesDaemonSigstopAtEveryStage) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/16, /*arcs=*/50, /*actions=*/20,
                              /*seed=*/77);
  Network sim;
  auto baseline = RunP4(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie();
  const uint32_t stages = CountStages(w, /*p6=*/false);
  ASSERT_GT(stages, 4u);

  uint64_t timeouts = 0;
  for (uint32_t stop_at = 0; stop_at < stages; ++stop_at) {
    ExecDaemon daemon;
    SocketNetwork net(
        StallTolerantConfig("p4-exec-stop-" + std::to_string(stop_at)));
    Parties parties = RegisterParties(&net, w.m);
    ConnectAll(&net, parties, daemon);
    RetryPolicy retry;
    retry.max_attempts = 5;
    RemoteExecPolicy exec = FastExecPolicy();
    exec.stage_deadline_ms = 250;
    exec.max_attempts_per_stage = 4;
    RemoteSessionOrchestrator orch(retry, exec);
    bool stopped = false;
    std::thread watchdog;
    orch.SetStageObserver([&](uint32_t index, const std::string&) {
      if (index == stop_at && !stopped) {
        stopped = true;
        daemon.Stop();
        watchdog = std::thread([&daemon] {
          SleepMs(400);
          daemon.Cont();
        });
      }
    });
    SessionStats stats;
    auto result = RunP4(w, &net, parties, &orch, &stats);
    if (watchdog.joinable()) watchdog.join();
    ASSERT_TRUE(stopped) << "stop_at=" << stop_at;
    ASSERT_EQ(net.PendingCount(), 0u) << "stop_at=" << stop_at;
    ASSERT_EQ(stats.crypto_ops_recomputed, 0u) << "stop_at=" << stop_at;
    ASSERT_TRUE(result.ok())
        << "stop_at=" << stop_at << ": " << result.status().message();
    ExpectSameInfluence(result.ValueOrDie(), baseline,
                        "stop_at=" + std::to_string(stop_at));
    EXPECT_EQ(net.transport_stats().dead_peers_detected, 0u)
        << "stop_at=" << stop_at;
    EXPECT_EQ(net.transport_stats().reconnects, 0u) << "stop_at=" << stop_at;
    EXPECT_EQ(orch.exec_stats().degraded_to_local, 0u)
        << "stop_at=" << stop_at;
    timeouts += orch.exec_stats().timeouts;
  }
  EXPECT_GT(timeouts, 0u);
}

// ---------------------------------------------------------------------------
// The degradation ladder, bottom rungs.

TEST(RemoteExecTest, DegradesToLocalWhenReplacementHasNoEngine) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  Network sim;
  auto baseline =
      CanonicalArcs(RunP6(w, &sim, RegisterParties(&sim, w.m)).ValueOrDie());

  ExecDaemon daemon;
  SocketNetwork net(FastConfig("p6-degrade"));
  Parties parties = RegisterParties(&net, w.m);
  ConnectAll(&net, parties, daemon);
  RetryPolicy retry;
  retry.max_attempts = 5;
  RemoteSessionOrchestrator orch(retry, FastExecPolicy());
  bool swapped = false;
  orch.SetStageObserver([&](uint32_t, const std::string& name) {
    if (name == "encrypt-P0" && !swapped) {
      swapped = true;
      // The replacement routes frames but refuses exec: the orchestrator
      // must give up on remote execution immediately (no point burning the
      // budget) and hairpin every provider stage locally.
      daemon.Restart(/*with_engine=*/false);
    }
  });
  SessionStats stats;
  auto result = RunP6(w, &net, parties, &orch, &stats);
  ASSERT_TRUE(swapped);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(CanonicalArcs(result.ValueOrDie()), baseline);
  const RemoteExecStats& xs = orch.exec_stats();
  EXPECT_EQ(xs.degraded_to_local, w.m);  // Every encrypt stage fell back.
  EXPECT_EQ(xs.remote_stages, 0u);
  EXPECT_GE(xs.unsupported, w.m);
  EXPECT_EQ(stats.crypto_ops_recomputed, 0u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST(RemoteExecTest, FallbackDisabledFailsCleanlyNamingStageAndBudget) {
  WorldData w = MakeWorldData(/*m=*/3, /*n=*/14, /*arcs=*/40, /*actions=*/8,
                              /*seed=*/88);
  ExecDaemon daemon;
  SocketTransportConfig config = FastConfig("p6-no-fallback");
  config.max_reconnect_attempts = 2;  // Keep the doomed repair loop short.
  SocketNetwork net(config);
  Parties parties = RegisterParties(&net, w.m);
  ConnectAll(&net, parties, daemon);
  RetryPolicy retry;
  retry.max_attempts = 1;
  RemoteExecPolicy exec = FastExecPolicy();
  exec.max_attempts_per_stage = 2;
  exec.allow_local_fallback = false;
  RemoteSessionOrchestrator orch(retry, exec);
  bool killed = false;
  orch.SetStageObserver([&](uint32_t, const std::string& name) {
    if (name == "encrypt-P0" && !killed) {
      killed = true;
      daemon.Kill();  // Never restarted: recovery is impossible.
    }
  });
  SessionStats stats;
  auto result = RunP6(w, &net, parties, &orch, &stats);
  ASSERT_TRUE(killed);
  ASSERT_FALSE(result.ok());
  const std::string& message = result.status().message();
  // The error carries full context: the stage, the spent remote budget,
  // the disabled fallback, and the session-level attempt count.
  EXPECT_NE(message.find("in stage 'encrypt-P0'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("local fallback disabled"), std::string::npos)
      << message;
  EXPECT_NE(message.find("2 attempt(s)"), std::string::npos) << message;
  EXPECT_NE(message.find("failed after 1 attempt(s)"), std::string::npos)
      << message;
  // A failed session never leaks frames into a successor.
  EXPECT_EQ(net.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// Retry exhaustion, every path: backoff ceiling, budget spent, dead link.

TEST(RemoteExecTest, BackoffCeilingAndBudgetExhaustionEndInCleanError) {
  Network net;
  const PartyId a = net.RegisterParty("A");
  const PartyId b = net.RegisterParty("B");
  ProtocolSession session("doomed", &net, {a, b});
  uint32_t runs = 0;
  session.AddStage("boom", [&runs]() -> Status {
    ++runs;
    return Status::Internal("synthetic failure #" + std::to_string(runs));
  });
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_rounds_base = 1;
  retry.backoff_rounds_cap = 2;  // Attempts 3+ sit at the ceiling.
  SessionOrchestrator orch(retry);
  Status run = orch.Run(&session);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.message().find("failed after 4 attempt(s)"),
            std::string::npos)
      << run.message();
  EXPECT_NE(run.message().find("in stage 'boom'"), std::string::npos)
      << run.message();
  EXPECT_NE(run.message().find("synthetic failure #4"), std::string::npos)
      << run.message();
  EXPECT_EQ(runs, 4u);
  EXPECT_EQ(orch.stats().attempts, 4u);
  // Three backoffs of at most cap + jitter each; at least one per retry.
  EXPECT_GE(orch.stats().backoff_rounds, 3u);
  EXPECT_LE(orch.stats().backoff_rounds,
            3u * (retry.backoff_rounds_cap + retry.backoff_jitter_rounds));
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST(RemoteExecTest, DeadLinkRefusesRetransmitUntilReestablished) {
  ExecDaemon daemon;
  SocketNetwork net(FastConfig("dead-link-retransmit"));
  Parties parties = RegisterParties(&net, /*m=*/3);
  ConnectAll(&net, parties, daemon);

  // Prove the channel works, then kill the daemon under it.
  net.BeginRound("probe");
  ASSERT_TRUE(net.SendFramed(parties.host, parties.providers[0],
                             ProtocolId::kSession, /*step=*/7, {1, 2, 3})
                  .ok());
  auto echoed = net.RecvValidated(parties.providers[0], parties.host,
                                  ProtocolId::kSession, /*step=*/7);
  ASSERT_TRUE(echoed.ok()) << echoed.status().message();
  daemon.Kill();

  // The next receive discovers the dead wire; once it is known dead, the
  // transport refuses to retransmit into it instead of pretending.
  RecvOptions opts;
  opts.deadline_ms = 200;
  opts.max_attempts = 3;
  // The send may or may not fail depending on when the kernel notices the
  // reset; the receive below discovers the dead wire either way.
  const Status sent = net.SendFramed(parties.host, parties.providers[0],
                                     ProtocolId::kSession, /*step=*/8, {4});
  (void)sent;
  auto lost = net.RecvValidated(parties.providers[0], parties.host,
                                ProtocolId::kSession, /*step=*/8, opts);
  ASSERT_FALSE(lost.ok());
  auto refused =
      net.RequestRetransmit(parties.providers[0], parties.host, /*seq=*/1);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("retransmit refused"),
            std::string::npos)
      << refused.status().message();
  EXPECT_NE(refused.status().message().find("reestablish"),
            std::string::npos)
      << refused.status().message();
  EXPECT_FALSE(net.LinkAlive(parties.providers[0]));
  EXPECT_EQ(net.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// Slow versus dead, on the raw framed channel: a SIGSTOPped daemon trips
// the caller's receive deadline, never dead-peer detection, and resuming it
// needs no reconnect.

TEST(RemoteExecTest, SigstoppedDaemonIsSlowNotDead) {
  ExecDaemon daemon;
  SocketTransportConfig config = FastConfig("slow-not-dead");
  config.heartbeat_timeout_ms = 10000;  // Dead-peer detection out of play.
  SocketNetwork net(config);
  Parties parties = RegisterParties(&net, /*m=*/3);
  ConnectAll(&net, parties, daemon);

  daemon.Stop();
  net.BeginRound("stalled");
  ASSERT_TRUE(net.SendFramed(parties.host, parties.providers[0],
                             ProtocolId::kSession, /*step=*/1, {42})
                  .ok());
  RecvOptions opts;
  opts.deadline_ms = 300;
  // No retransmission: the transport would otherwise re-deliver the frame
  // from its own pristine sent log and mask the stall entirely.
  opts.max_retransmits = 0;
  auto stalled = net.RecvValidated(parties.providers[0], parties.host,
                                   ProtocolId::kSession, /*step=*/1, opts);
  // The stall surfaces as the caller's bounded receive — the deadline or
  // the attempt budget, whichever trips first — never as a dead peer.
  ASSERT_FALSE(stalled.ok());
  const std::string& stall_message = stalled.status().message();
  EXPECT_TRUE(stall_message.find("deadline") != std::string::npos ||
              stall_message.find("giving up") != std::string::npos)
      << stall_message;
  EXPECT_TRUE(net.LinkAlive(parties.providers[0]));
  EXPECT_EQ(net.transport_stats().dead_peers_detected, 0u);
  EXPECT_EQ(net.transport_stats().reconnects, 0u);

  // SIGCONT: the queued frame arrives on the same connection. No
  // handshake, no reconnect, no duplicate delivery.
  daemon.Cont();
  auto resumed = net.RecvValidated(parties.providers[0], parties.host,
                                   ProtocolId::kSession, /*step=*/1);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed.ValueOrDie(), std::vector<uint8_t>({42}));
  EXPECT_EQ(net.transport_stats().reconnects, 0u);
  EXPECT_EQ(net.transport_stats().dead_peers_detected, 0u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

// ---------------------------------------------------------------------------
// Graceful shutdown: SIGTERM drains and exits 0, mid-session state
// included.

TEST(RemoteExecTest, SigtermDrainsAndExitsCleanly) {
  ExecDaemon daemon;
  SocketNetwork net(FastConfig("graceful-term"));
  Parties parties = RegisterParties(&net, /*m=*/3);
  ConnectAll(&net, parties, daemon);

  // Give the daemon live traffic so the drain path has work to do.
  net.BeginRound("traffic");
  ASSERT_TRUE(net.SendFramed(parties.host, parties.providers[0],
                             ProtocolId::kSession, /*step=*/3, {9, 9})
                  .ok());
  auto echoed = net.RecvValidated(parties.providers[0], parties.host,
                                  ProtocolId::kSession, /*step=*/3);
  ASSERT_TRUE(echoed.ok()) << echoed.status().message();

  // SIGTERM: stop accepting, send goodbyes, flush within the grace window,
  // and exit through main's normal return path — status 0, not a signal
  // death.
  const int status = daemon.TermAndWait();
  ASSERT_TRUE(WIFEXITED(status)) << "daemon died of a signal, raw status "
                                 << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace psi
