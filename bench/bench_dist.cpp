// Distributed-execution bench: what running stage bodies on psid daemons
// costs over hairpin execution, and what a mid-session daemon loss costs.
//
// Prints one JSON document (google-benchmark layout, so
// `tools/check_bench.py dist` can index the rows by name):
//
//   dist/local_session   — Protocol 6 as a checkpointed session on the
//                          in-process simulator: the metering control.
//   dist/hairpin_session — the same session through a psid daemon, stage
//                          programs executed host-side (hairpin): protocol
//                          metering must match the simulator to the byte.
//   dist/remote_session  — the same session with every encrypt-P<k> stage
//                          executed by the daemon's StageExecutor. The
//                          protocol transcript must still match the
//                          simulator bitwise; the exec channel's own bytes
//                          are the measured remote-stage overhead.
//   dist/remote_resume   — the daemon is torn down and replaced at the
//                          relay stage; the session must recover with
//                          exactly one resume handshake round (matching
//                          SessionResumeCosts to the message) and zero
//                          recomputed checkpointed crypto operations.
//
// Every counter except the *_ns fields is a deterministic meter (protocol
// traffic, exec frame bytes, resume handshake messages), so the committed
// BENCH_dist.json baseline gates regressions machine independently.
// Wall-clock latencies are reported for eyeballing only.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "bench_main.h"
#include "graph/generators.h"
#include "mpc/propagation_protocol.h"
#include "mpc/remote_exec.h"
#include "mpc/session.h"
#include "net/cost_model.h"
#include "net/daemon.h"
#include "net/network.h"
#include "net/socket_transport.h"

namespace psi {
namespace bench {
namespace {

constexpr size_t kProviders = 3;
constexpr size_t kUsers = 14;
constexpr size_t kArcs = 40;
constexpr size_t kActions = 8;
constexpr uint64_t kWorldSeed = 88;

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

SocketTransportConfig BenchConfig(const std::string& session) {
  SocketTransportConfig config;
  config.seed = 31;
  config.session_name = session;
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

/// An in-process psid daemon, execution engine included, on its own
/// serving thread. `abrupt_stop` zeroes the drain grace so StopAndJoin()
/// drops connections without a goodbye — the client observes a dead peer,
/// exactly like a crash.
class DaemonThread {
 public:
  explicit DaemonThread(uint16_t port = 0, bool abrupt_stop = false) {
    RegisterPropagationStagePrograms();
    PsidConfig config;
    config.hosted_parties = {"P1", "P2", "P3"};
    if (abrupt_stop) config.drain_grace_ms = 0;
    config.exec_handler = executor_.Handler();
    daemon_ = std::make_unique<PsidDaemon>(config);
    port_ = daemon_->Listen(port).ValueOrDie();
    thread_ = std::thread([this] {
      const Status served = daemon_->Run();
      (void)served;
    });
  }
  ~DaemonThread() { StopAndJoin(); }

  uint16_t port() const { return port_; }
  const StageExecutorStats& exec_stats() const { return executor_.stats(); }

  void StopAndJoin() {
    if (daemon_ == nullptr) return;
    daemon_->Stop();
    thread_.join();
    // Destroying the daemon releases the listener so a successor can bind
    // the same port (a stopped daemon object still holds the fd).
    daemon_.reset();
  }

 private:
  StageExecutor executor_;  // Must outlive the daemon's serving thread.
  std::unique_ptr<PsidDaemon> daemon_;
  std::thread thread_;
  uint16_t port_ = 0;
};

struct World {
  std::unique_ptr<SocialGraph> graph;
  std::vector<ActionLog> provider_logs;
};

World MakeWorld() {
  World w;
  Rng rng(kWorldSeed);
  w.graph = std::make_unique<SocialGraph>(
      ErdosRenyiArcs(&rng, kUsers, kArcs).ValueOrDie());
  auto truth = GroundTruthInfluence::Random(&rng, *w.graph, 0.1, 0.7);
  CascadeParams params;
  params.num_actions = kActions;
  params.seeds_per_action = 2;
  ActionLog log = GenerateCascades(&rng, *w.graph, truth, params).ValueOrDie();
  w.provider_logs = ExclusivePartition(&rng, log, kProviders).ValueOrDie();
  return w;
}

struct Parties {
  PartyId host;
  std::vector<PartyId> providers;
};

Parties RegisterParties(Network* net) {
  Parties p;
  p.host = net->RegisterParty("H");
  for (size_t k = 0; k < kProviders; ++k) {
    p.providers.push_back(net->RegisterParty("P" + std::to_string(k + 1)));
  }
  return p;
}

struct SessionOutcome {
  bool ok = false;
  std::vector<std::array<uint64_t, 4>> arcs;  // Canonicalized output.
  TrafficReport traffic;
  SessionStats stats;
  double real_time_ns = 0.0;
};

/// One Protocol 6 session run with fixed seeds: any two completed runs, on
/// any backend, must agree bitwise on `arcs`.
SessionOutcome RunSession(const World& w, Network* net, const Parties& p,
                          SessionOrchestrator* orchestrator) {
  SessionOutcome out;
  Protocol6Config cfg;
  cfg.rsa_bits = 384;
  cfg.encryption = Protocol6Config::EncryptionMode::kHybrid;
  cfg.obfuscation_factor = 1.5;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> rng_ptrs;
  for (size_t k = 0; k < kProviders; ++k) {
    rngs.push_back(std::make_unique<Rng>(2000 + k));
    rng_ptrs.push_back(rngs.back().get());
  }
  Rng host_rng(601);
  PropagationGraphProtocol proto(net, p.host, p.providers, cfg);
  RetryPolicy retry;  // Ignored: an orchestrator is always injected here.
  auto start = std::chrono::steady_clock::now();
  auto result = proto.RunSession(*w.graph, kActions, w.provider_logs,
                                 &host_rng, rng_ptrs, retry, &out.stats,
                                 orchestrator);
  out.real_time_ns = ElapsedNs(start);
  if (!result.ok()) {
    std::fprintf(stderr, "FAIL: session: %s\n",
                 result.status().message().c_str());
    return out;
  }
  const Protocol6Output& output = result.ValueOrDie();
  for (size_t a = 0; a < output.graphs.size(); ++a) {
    for (NodeId v = 0; v < output.graphs[a].num_nodes(); ++v) {
      for (const auto& arc : output.graphs[a].OutArcs(v)) {
        out.arcs.push_back({a, static_cast<uint64_t>(v),
                            static_cast<uint64_t>(arc.to), arc.delta_t});
      }
    }
  }
  std::sort(out.arcs.begin(), out.arcs.end());
  out.traffic = net->Report();
  out.ok = true;
  return out;
}

bool SameTranscript(const TrafficReport& a, const TrafficReport& b) {
  return a.num_messages == b.num_messages && a.num_bytes == b.num_bytes &&
         a.num_payload_bytes == b.num_payload_bytes;
}

int Run() {
  const World w = MakeWorld();

  // --- Control: the in-process simulator. ---------------------------------
  Network sim;
  Parties sim_parties = RegisterParties(&sim);
  SessionOrchestrator local_orch(RetryPolicy{});
  SessionOutcome local = RunSession(w, &sim, sim_parties, &local_orch);
  if (!local.ok) return 1;

  // --- Hairpin: daemon routes frames, the host runs every stage body. -----
  DaemonThread hairpin_daemon;
  SocketNetwork hairpin_net(BenchConfig("bench-dist-hairpin"));
  Parties hairpin_parties = RegisterParties(&hairpin_net);
  Status connected = hairpin_net.ConnectDaemon(
      "127.0.0.1", hairpin_daemon.port(), hairpin_parties.providers);
  if (!connected.ok()) {
    std::fprintf(stderr, "FAIL: connect: %s\n", connected.message().c_str());
    return 1;
  }
  SessionOrchestrator hairpin_orch(RetryPolicy{});
  SessionOutcome hairpin =
      RunSession(w, &hairpin_net, hairpin_parties, &hairpin_orch);
  if (!hairpin.ok) return 1;
  const TransportStats hairpin_transport = hairpin_net.transport_stats();
  hairpin_net.Shutdown();
  hairpin_daemon.StopAndJoin();

  // --- Remote: the daemon's StageExecutor runs every encrypt stage. -------
  DaemonThread remote_daemon;
  SocketNetwork remote_net(BenchConfig("bench-dist-remote"));
  Parties remote_parties = RegisterParties(&remote_net);
  connected = remote_net.ConnectDaemon("127.0.0.1", remote_daemon.port(),
                                       remote_parties.providers);
  if (!connected.ok()) {
    std::fprintf(stderr, "FAIL: connect: %s\n", connected.message().c_str());
    return 1;
  }
  RemoteExecPolicy exec_policy;
  exec_policy.backoff_base_ms = 1;
  exec_policy.backoff_max_ms = 20;
  RemoteSessionOrchestrator remote_orch(RetryPolicy{}, exec_policy);
  SessionOutcome remote =
      RunSession(w, &remote_net, remote_parties, &remote_orch);
  if (!remote.ok) return 1;
  const RemoteExecStats remote_exec = remote_orch.exec_stats();
  const TransportStats remote_transport = remote_net.transport_stats();
  const StageExecutorStats daemon_exec = remote_daemon.exec_stats();
  remote_net.Shutdown();
  remote_daemon.StopAndJoin();

  // --- Resume: tear the daemon down at the relay stage, replace it. -------
  auto resume_daemon =
      std::make_unique<DaemonThread>(0, /*abrupt_stop=*/true);
  const uint16_t resume_port = resume_daemon->port();
  SocketNetwork resume_net(BenchConfig("bench-dist-resume"));
  Parties resume_parties = RegisterParties(&resume_net);
  connected = resume_net.ConnectDaemon("127.0.0.1", resume_port,
                                       resume_parties.providers);
  if (!connected.ok()) {
    std::fprintf(stderr, "FAIL: connect: %s\n", connected.message().c_str());
    return 1;
  }
  RetryPolicy resume_retry;
  resume_retry.max_attempts = 5;
  RemoteSessionOrchestrator resume_orch(resume_retry, exec_policy);
  bool swapped = false;
  resume_orch.SetStageObserver([&](uint32_t, const std::string& name) {
    if (name == "relay" && !swapped) {
      swapped = true;
      // The encrypt checkpoints are committed host-side by now; losing the
      // daemon at a wire stage forces exactly one session-level resume.
      resume_daemon->StopAndJoin();
      resume_daemon = std::make_unique<DaemonThread>(resume_port);
    }
  });
  SessionOutcome resumed =
      RunSession(w, &resume_net, resume_parties, &resume_orch);
  if (!resumed.ok) return 1;
  if (!swapped) {
    std::fprintf(stderr, "FAIL: relay stage never observed\n");
    return 1;
  }
  const TransportStats resume_transport = resume_net.transport_stats();
  const RemoteExecStats resume_exec = resume_orch.exec_stats();
  resume_net.Shutdown();
  resume_daemon->StopAndJoin();

  // Analytic resume cost: one handshake round over every ordered pair.
  SessionResumeCostParams resume_params;
  resume_params.num_parties = kProviders + 1;
  auto resume_model = SessionResumeCosts(resume_params);
  if (!resume_model.ok()) {
    std::fprintf(stderr, "FAIL: resume model: %s\n",
                 resume_model.status().message().c_str());
    return 1;
  }

  // --- Report. ------------------------------------------------------------
  JsonReport report("bench_dist");
  report.context().Count("providers", kProviders);
  report.context().Count("users", kUsers);
  report.context().Count("actions", kActions);
  report.context().Count("world_seed", kWorldSeed);

  JsonFields& local_row = report.AddRow("dist/local_session", local.real_time_ns);
  local_row.Count("ok", 1);
  local_row.Count("wire_messages", local.traffic.num_messages);
  local_row.Count("wire_bytes", local.traffic.num_bytes);
  local_row.Count("wire_payload_bytes", local.traffic.num_payload_bytes);
  local_row.Count("crypto_ops_total", local.stats.crypto_ops_total);
  local_row.Count("stages_run", local.stats.stages_run);

  JsonFields& hairpin_row = report.AddRow("dist/hairpin_session", hairpin.real_time_ns);
  hairpin_row.Count("ok", 1);
  hairpin_row.Count("outputs_match", hairpin.arcs == local.arcs ? 1 : 0);
  hairpin_row.Count("metering_matches_simulator",
                    SameTranscript(hairpin.traffic, local.traffic) ? 1 : 0);
  hairpin_row.Count("wire_messages", hairpin.traffic.num_messages);
  hairpin_row.Count("wire_bytes", hairpin.traffic.num_bytes);
  hairpin_row.Count("frames_relayed", hairpin_transport.frames_relayed);
  hairpin_row.Count("exec_calls", hairpin_transport.exec_calls);

  JsonFields& remote_row = report.AddRow("dist/remote_session", remote.real_time_ns);
  remote_row.Count("ok", 1);
  remote_row.Count("outputs_match", remote.arcs == local.arcs ? 1 : 0);
  remote_row.Count("metering_matches_simulator",
                   SameTranscript(remote.traffic, local.traffic) ? 1 : 0);
  remote_row.Count("wire_messages", remote.traffic.num_messages);
  remote_row.Count("wire_bytes", remote.traffic.num_bytes);
  remote_row.Count("remote_stages", remote_exec.remote_stages);
  remote_row.Count("degraded_to_local", remote_exec.degraded_to_local);
  remote_row.Count("timeouts", remote_exec.timeouts);
  remote_row.Count("remote_crypto_ops", remote_exec.remote_crypto_ops);
  remote_row.Count("daemon_crypto_ops", daemon_exec.crypto_ops);
  remote_row.Count("exec_calls", remote_transport.exec_calls);
  remote_row.Count("exec_bytes_tx", remote_transport.exec_bytes_tx);
  remote_row.Count("exec_bytes_rx", remote_transport.exec_bytes_rx);

  JsonFields& resume_row = report.AddRow("dist/remote_resume", resumed.real_time_ns);
  resume_row.Count("ok", 1);
  resume_row.Count("outputs_match", resumed.arcs == local.arcs ? 1 : 0);
  resume_row.Count("resumes", resumed.stats.resumes);
  resume_row.Count("handshake_messages", resumed.stats.handshake_messages);
  resume_row.Count("model_handshake_messages", resume_model.ValueOrDie().nm);
  resume_row.Count("model_handshake_rounds", resume_model.ValueOrDie().nr);
  resume_row.Count("crypto_ops_recomputed", resumed.stats.crypto_ops_recomputed);
  resume_row.Count("crypto_ops_saved", resumed.stats.crypto_ops_saved);
  resume_row.Count("remote_stages", resume_exec.remote_stages);
  resume_row.Count("dead_peers_detected", resume_transport.dead_peers_detected);
  resume_row.Count("reconnects", resume_transport.reconnects);
  report.Print();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace psi

int main() { return psi::bench::Run(); }
