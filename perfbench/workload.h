// The benchmark's workloads: the world each one builds from the workload
// seed, the deployment that runs its sessions, and the oracle that decides
// whether a session's output is correct.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actionlog/action_log.h"
#include "graph/graph.h"
#include "influence/link_influence.h"
#include "layers.h"
#include "mpc/remote_exec.h"
#include "mpc/session.h"
#include "net/daemon.h"
#include "net/network.h"

namespace perfbench {

enum class Protocol { kP4, kP6 };
enum class Transport { kSimulator, kFaultyResume, kSocketRemote };

/// \brief One named workload: the paper configuration it runs and how.
struct WorkloadSpec {
  const char* name;
  Protocol protocol;
  Transport transport;
  size_t providers;  ///< m
  size_t users;      ///< n
  size_t arcs;       ///< |E|
  size_t actions;    ///< |A|
  int warmup_sessions;
};

/// \brief The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief RSA modulus size of the P6 workload: Table 2's z.
inline constexpr size_t kRsaBits = 512;

/// \brief Protocol 4 parameters every P4 workload uses (Table 1 config).
psi::Protocol4Config P4Config();

/// \brief The inputs of a run, built once from the workload seed, plus
/// the plaintext baseline every session is compared against.
struct World {
  std::unique_ptr<psi::SocialGraph> graph;
  psi::ActionLog log;  ///< The unified log (what the providers jointly hold).
  std::vector<psi::ActionLog> provider_logs;
  psi::LinkInfluence p4_truth;  ///< ComputeLinkInfluence on the unified log.
  /// Plaintext propagation graphs as sorted (action, from, to, delta).
  std::vector<std::array<uint64_t, 4>> p6_truth;
  std::vector<uint64_t> actions_per_provider;  ///< Table 2's A_k.
};

World MakeWorld(const WorkloadSpec& spec, uint64_t seed);

/// \brief What one protocol session produced.
struct SessionOutcome {
  psi::Status status;
  psi::LinkInfluence p4;                       ///< P4 output.
  std::vector<std::array<uint64_t, 4>> p6;     ///< P6 output, canonical.
  psi::TrafficReport traffic;
  psi::SessionStats stats;
  std::vector<psi::Arc> omega;  ///< E' the providers saw (last session).
  uint64_t modulus_bits = 0;    ///< log S (P4).
  uint64_t ciphertexts = 0;     ///< Ciphertexts relayed through P1 (P6).
};

/// \brief Empty when the session is correct, else why it failed: an error,
/// output differing from the plaintext baseline, NR/NM differing from the
/// cost model on a clean workload, or a resume workload session that did
/// not resume exactly once without recomputing checkpointed crypto.
std::string CheckSession(const WorkloadSpec& spec, const World& world,
                         const SessionOutcome& out);

/// \brief The analytic NR/NM of a clean session (Protocol4Costs /
/// Protocol6Costs) for the world's public sizes.
struct ModelCounts {
  uint64_t nr = 0;
  uint64_t nm = 0;
};
ModelCounts CleanModel(const WorkloadSpec& spec, const World& world,
                       const SessionOutcome& out);

/// \brief Resume handshake messages of SessionResumeCosts for m+1 parties.
uint64_t ResumeHandshakeModel(const WorkloadSpec& spec);

/// \brief An in-process psid daemon hosting P1..Pm, with a StageExecutor,
/// serving on its own thread until destroyed.
class DaemonThread {
 public:
  explicit DaemonThread(size_t providers);
  ~DaemonThread();
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  uint16_t port() const { return port_; }
  bool ok() const { return port_ != 0; }

 private:
  psi::StageExecutor executor_;  // Outlives the serving thread.
  std::unique_ptr<psi::PsidDaemon> daemon_;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// \brief Runs sessions of one workload: owns the networks (and, for the
/// remote workload, the daemon and its link). Session `index` draws every
/// party RNG from (seed, index), so a run is a fixed sequence of work.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, const World& world, uint64_t seed);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// \brief Starts the transport (daemon start and dial for the remote
  /// workload; nothing for the simulator).
  [[nodiscard]] psi::Status Start();

  /// \brief Runs session `index`. With `tracer` non-null, the transport
  /// hooks and round boundaries of this session are recorded into it.
  SessionOutcome Run(uint64_t index, Tracer* tracer);

  /// \brief Transport counters of the socket link (nullptr elsewhere).
  const psi::TransportStats* transport_stats() const;

  /// \brief Session `index` of the same world on a fresh simulator, for
  /// the bitwise metering comparison of the socket workload.
  SessionOutcome RunOnSimulator(uint64_t index);

  psi::PartyId provider(size_t k) const { return providers_[k]; }

 private:
  /// Registers H, P1..Pm on `net` and routes its round boundaries to the
  /// active tracer.
  void Attach(psi::Network* net);
  SessionOutcome RunOn(psi::Network* net, uint64_t index,
                       psi::SessionOrchestrator* orchestrator);

  const WorkloadSpec& spec_;
  const World& world_;
  uint64_t seed_;
  Tracer* active_ = nullptr;  ///< What the traced hooks record into.
  const psi::PartyId host_ = 0;
  std::vector<psi::PartyId> providers_;
  std::unique_ptr<DaemonThread> daemon_;  ///< Outlives its link in net_.
  std::unique_ptr<psi::Network> net_;  ///< Simulator or socket (reused).
  TracedSocketNetwork* socket_ = nullptr;  ///< net_ when remote.
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
