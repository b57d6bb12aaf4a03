#include "workload.h"

#include <sched.h>

#include <algorithm>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "influence/user_score.h"
#include "mpc/link_influence_protocol.h"
#include "mpc/propagation_protocol.h"
#include "net/cost_model.h"
#include "net/fault.h"

namespace perfbench {
namespace {

using psi::PartyId;

// m=3, n=200, |E|=1000, c=2 (q=2000), |A|=100, h=4: Table 1's configuration.
// m=3, n=50, |E|=160, A=40, z=512: Table 2's A-sweep point.
constexpr WorkloadSpec kWorkloads[] = {
    {"p4_paper", Protocol::kP4, Transport::kSimulator, 3, 200, 1000, 100, 20},
    {"p6_paper", Protocol::kP6, Transport::kSimulator, 3, 50, 160, 40, 3},
    {"p4_resume", Protocol::kP4, Transport::kFaultyResume, 3, 200, 1000, 100,
     20},
    {"p4_remote", Protocol::kP4, Transport::kSocketRemote, 3, 200, 1000, 100,
     20},
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of party stream `role` in session `index` of a run seeded `seed`.
uint64_t SessionSeed(uint64_t seed, uint64_t index, uint64_t role) {
  return SplitMix(SplitMix(SplitMix(seed) ^ index) ^ role);
}

std::vector<std::array<uint64_t, 4>> Canonical(
    const std::vector<psi::PropagationGraph>& graphs) {
  std::vector<std::array<uint64_t, 4>> arcs;
  for (size_t a = 0; a < graphs.size(); ++a) {
    for (psi::NodeId v = 0; v < graphs[a].num_nodes(); ++v) {
      for (const auto& arc : graphs[a].OutArcs(v)) {
        arcs.push_back({a, v, arc.to, arc.delta_t});
      }
    }
  }
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

psi::SocketTransportConfig SocketConfig(uint64_t seed) {
  psi::SocketTransportConfig config;
  config.seed = seed;
  config.session_name = "perfbench";
  config.recv_timeout_ms = 10000;
  config.connect_timeout_ms = 2000;
  config.handshake_timeout_ms = 2000;
  // Heartbeats are spaced beyond any run, so none fall in the timed window.
  config.heartbeat_interval_ms = 3600 * 1000;
  config.heartbeat_timeout_ms = 2 * 3600 * 1000;
  config.max_reconnect_attempts = 4;
  return config;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

psi::Protocol4Config P4Config() {
  psi::Protocol4Config cfg;
  cfg.h = 4;
  cfg.obfuscation_factor = 2.0;
  cfg.aggregation = psi::P4Aggregation::kSecureSum;
  return cfg;
}

World MakeWorld(const WorkloadSpec& spec, uint64_t seed) {
  World w;
  psi::Rng rng(seed);
  w.graph = std::make_unique<psi::SocialGraph>(
      psi::ErdosRenyiArcs(&rng, spec.users, spec.arcs).ValueOrDie());
  auto truth = psi::GroundTruthInfluence::Random(&rng, *w.graph, 0.05, 0.6);
  psi::CascadeParams params;
  params.num_actions = spec.actions;
  params.seeds_per_action = 2;
  w.log = psi::GenerateCascades(&rng, *w.graph, truth, params).ValueOrDie();
  w.provider_logs =
      psi::ExclusivePartition(&rng, w.log, spec.providers).ValueOrDie();
  if (spec.protocol == Protocol::kP4) {
    w.p4_truth = psi::ComputeLinkInfluence(w.log, w.graph->arcs(), spec.users,
                                           P4Config().h)
                     .ValueOrDie();
  } else {
    std::vector<psi::PropagationGraph> graphs;
    for (psi::ActionId a = 0; a < spec.actions; ++a) {
      graphs.push_back(
          psi::BuildPropagationGraph(*w.graph, w.log, a).ValueOrDie());
    }
    w.p6_truth = Canonical(graphs);
  }
  for (const auto& log : w.provider_logs) {
    std::vector<bool> owned(spec.actions, false);
    for (const auto& rec : log.records()) owned[rec.action] = true;
    w.actions_per_provider.push_back(
        static_cast<uint64_t>(std::count(owned.begin(), owned.end(), true)));
  }
  return w;
}

ModelCounts CleanModel(const WorkloadSpec& spec, const World& world,
                       const SessionOutcome& out) {
  psi::Result<psi::CostSummary> model = psi::Status::Internal("no model");
  if (spec.protocol == Protocol::kP4) {
    psi::Protocol4CostParams p;
    p.m = spec.providers;
    p.n = spec.users;
    p.q = out.omega.size();
    p.log_s = out.modulus_bits;
    model = psi::Protocol4Costs(p);
  } else {
    psi::Protocol6CostParams p;
    p.m = spec.providers;
    p.q = out.omega.size();
    p.z = kRsaBits;
    p.kappa = 2 * kRsaBits;
    p.actions_per_provider = world.actions_per_provider;
    model = psi::Protocol6Costs(p);
  }
  if (!model.ok()) return {};
  return {model.ValueOrDie().nr, model.ValueOrDie().nm};
}

uint64_t ResumeHandshakeModel(const WorkloadSpec& spec) {
  auto model = psi::SessionResumeCosts({spec.providers + 1});
  return model.ok() ? model.ValueOrDie().nm : 0;
}

std::string CheckSession(const WorkloadSpec& spec, const World& world,
                         const SessionOutcome& out) {
  if (!out.status.ok()) return "error: " + out.status.message();
  if (spec.protocol == Protocol::kP4) {
    const psi::LinkInfluence& want = world.p4_truth;
    if (out.p4.p.size() != want.p.size() ||
        out.p4.pairs.size() != want.pairs.size()) {
      return "output has " + std::to_string(out.p4.p.size()) +
             " arcs, plaintext " + std::to_string(want.p.size());
    }
    for (size_t e = 0; e < want.p.size(); ++e) {
      if (out.p4.pairs[e].from != want.pairs[e].from ||
          out.p4.pairs[e].to != want.pairs[e].to ||
          out.p4.p[e] != want.p[e]) {
        return "arc " + std::to_string(e) + " differs from the plaintext " +
               "baseline: p=" + std::to_string(out.p4.p[e]) + " vs " +
               std::to_string(want.p[e]);
      }
    }
  } else if (out.p6 != world.p6_truth) {
    return "propagation graphs differ from the plaintext baseline";
  }
  const uint64_t nr = out.traffic.num_rounds;
  const uint64_t nm = out.traffic.num_messages;
  if (spec.transport == Transport::kFaultyResume) {
    const uint64_t handshake = ResumeHandshakeModel(spec);
    if (out.stats.resumes != 1 || out.stats.crypto_ops_recomputed != 0 ||
        out.stats.handshake_messages != handshake) {
      return "resume: " + std::to_string(out.stats.resumes) +
             " resumes, " + std::to_string(out.stats.crypto_ops_recomputed) +
             " recomputed ops, " +
             std::to_string(out.stats.handshake_messages) +
             " handshake messages (model " + std::to_string(handshake) + ")";
    }
  } else {
    const ModelCounts model = CleanModel(spec, world, out);
    if (nr != model.nr || nm != model.nm) {
      return "NR/NM " + std::to_string(nr) + "/" + std::to_string(nm) +
             " differ from the cost model " + std::to_string(model.nr) + "/" +
             std::to_string(model.nm);
    }
  }
  return "";
}

DaemonThread::DaemonThread(size_t providers) {
  psi::RegisterLinkInfluenceStagePrograms();
  psi::PsidConfig config;
  for (size_t k = 0; k < providers; ++k) {
    config.hosted_parties.push_back("P" + std::to_string(k + 1));
  }
  config.exec_handler = executor_.Handler();
  daemon_ = std::make_unique<psi::PsidDaemon>(config);
  auto port = daemon_->Listen(0);
  if (!port.ok()) return;
  port_ = port.ValueOrDie();
  thread_ = std::thread([this] {
    const psi::Status served = daemon_->Run();
    (void)served;  // Stop() ends Run; a listener failure shows as dial errors.
  });
}

DaemonThread::~DaemonThread() {
  if (thread_.joinable()) {
    daemon_->Stop();
    thread_.join();
  }
}

Deployment::Deployment(const WorkloadSpec& spec, const World& world,
                       uint64_t seed)
    : spec_(spec), world_(world), seed_(seed) {
  if (spec.transport == Transport::kSimulator) {
    net_ = std::make_unique<Traced<psi::Network>>(&active_);
  } else if (spec.transport == Transport::kSocketRemote) {
    auto socket = std::make_unique<TracedSocketNetwork>(&active_,
                                                        SocketConfig(seed));
    socket_ = socket.get();
    net_ = std::move(socket);
  }
  // Attach registers H, P1..Pm in this order on every network.
  for (size_t k = 0; k < spec.providers; ++k) {
    providers_.push_back(static_cast<PartyId>(k + 1));
  }
  if (net_ != nullptr) Attach(net_.get());
}

void Deployment::Attach(psi::Network* net) {
  net->RegisterParty("H");
  for (size_t k = 0; k < spec_.providers; ++k) {
    net->RegisterParty("P" + std::to_string(k + 1));
  }
  net->SetRoundObserver([this](const std::string& label, uint64_t) {
    if (active_ != nullptr) active_->rounds.emplace_back(label, Clock::now());
  });
}

Deployment::~Deployment() {
  if (socket_ != nullptr) socket_->Shutdown();
  net_.reset();
  daemon_.reset();
}

psi::Status Deployment::Start() {
  if (spec_.transport != Transport::kSocketRemote) return psi::Status::OK();
  // The host and the daemon thread hand ~50 frames and 3 exec calls back and
  // forth per session, one side idle while the other works. On separate CPUs
  // every hand-off waits for an idle virtual CPU to be woken, and that wait
  // varied from run to run (session_ms.p50 spread 0.18, tail 0.39 over four
  // seeds). On one CPU a hand-off is a context switch, and wall time tracks
  // CPU time. The daemon thread inherits the mask.
  const int cpu = sched_getcpu();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu < 0 ? 0 : cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    return psi::Status::Internal("sched_setaffinity failed");
  }
  daemon_ = std::make_unique<DaemonThread>(spec_.providers);
  if (!daemon_->ok()) return psi::Status::Internal("daemon failed to listen");
  return socket_->ConnectDaemon("127.0.0.1", daemon_->port(), providers_);
}

const psi::TransportStats* Deployment::transport_stats() const {
  return socket_ != nullptr ? &socket_->transport_stats() : nullptr;
}

SessionOutcome Deployment::Run(uint64_t index, Tracer* tracer) {
  active_ = tracer;
  SessionOutcome out;
  if (spec_.transport == Transport::kFaultyResume) {
    psi::FaultPlan plan;
    plan.crash = psi::CrashSpec{providers_[0], /*after_round=*/1,
                                /*restart_round=*/4};
    Traced<psi::FaultyNetwork> net(&active_, plan);
    Attach(&net);
    out = RunOn(&net, index, nullptr);
  } else {
    psi::Status reset = net_->ResetMetering();
    if (!reset.ok()) {
      out.status = reset;
    } else if (spec_.transport == Transport::kSocketRemote) {
      psi::RemoteExecPolicy exec;
      exec.stage_deadline_ms = 10000;
      exec.allow_local_fallback = false;  // A degraded stage is a failure.
      psi::RemoteSessionOrchestrator orchestrator(psi::RetryPolicy{}, exec);
      out = RunOn(net_.get(), index, &orchestrator);
    } else {
      out = RunOn(net_.get(), index, nullptr);
    }
  }
  active_ = nullptr;
  return out;
}

SessionOutcome Deployment::RunOnSimulator(uint64_t index) {
  psi::Network sim;
  Attach(&sim);
  return RunOn(&sim, index, nullptr);
}

SessionOutcome Deployment::RunOn(psi::Network* net, uint64_t index,
                                 psi::SessionOrchestrator* orchestrator) {
  SessionOutcome out;
  psi::Rng host_rng(SessionSeed(seed_, index, 0));
  psi::Rng pair_secret(SessionSeed(seed_, index, 1));
  std::vector<std::unique_ptr<psi::Rng>> rngs;
  std::vector<psi::Rng*> rng_ptrs;
  for (size_t k = 0; k < spec_.providers; ++k) {
    rngs.push_back(std::make_unique<psi::Rng>(SessionSeed(seed_, index, 2 + k)));
    rng_ptrs.push_back(rngs.back().get());
  }
  psi::RetryPolicy retry;
  retry.max_attempts = 4;
  if (spec_.protocol == Protocol::kP4) {
    psi::LinkInfluenceProtocol proto(net, host_, providers_, P4Config());
    auto result = proto.RunSession(*world_.graph, spec_.actions,
                                   world_.provider_logs, &host_rng, rng_ptrs,
                                   &pair_secret, retry, &out.stats, {},
                                   orchestrator);
    out.status = result.status();
    if (result.ok()) out.p4 = std::move(result).ValueOrDie();
    out.omega = proto.views().omega;
    out.modulus_bits = proto.modulus().BitLength();
  } else {
    psi::Protocol6Config cfg;
    cfg.rsa_bits = kRsaBits;
    cfg.encryption = psi::Protocol6Config::EncryptionMode::kPerInteger;
    cfg.obfuscation_factor = 2.0;
    psi::PropagationGraphProtocol proto(net, host_, providers_, cfg);
    auto result =
        proto.RunSession(*world_.graph, spec_.actions, world_.provider_logs,
                         &host_rng, rng_ptrs, retry, &out.stats, orchestrator);
    out.status = result.status();
    if (result.ok()) out.p6 = Canonical(result.ValueOrDie().graphs);
    out.omega = proto.views().omega;
    out.ciphertexts = proto.views().p1_relayed_ciphertexts;
  }
  out.traffic = net->Report();
  return out;
}

}  // namespace perfbench
