// Protocol 4 (Section 5.1): secure computation of link influence
// probabilities p_ij = b^h_ij / a_i for every arc of the host's graph.
//
// Pipeline:
//   1. H hides E inside a random superset E' (|E'| >= c|E|) and publishes
//      Omega_E' to the providers.                                [1 round]
//   2. The providers run batched Protocol 2 over all n + |E'| counters
//      (a_i and b^h_ij), leaving P1 and P2 with integer additive
//      shares; the counter order shown to the third party is scrambled by a
//      secret permutation shared by P1/P2.                       [4 rounds]
//   3. P1 and P2 jointly draw per-user masks M_i ~ Z, r_i ~ U(0, M_i)
//      and send H the r_i-scaled shares; H recombines and divides,
//      learning exactly the quotients (a Protocol 3 variant where the mask
//      multiplies the *shares*).                                 [3 rounds]
//
// The Eq. (2) temporally-weighted definition is supported by swapping the
// b-counters for fixed-point weighted sums sum_l W_l c^l_ij (the only change
// the paper prescribes); H descales after division.
//
// Masks travel as fixed-point big integers R_i = floor(r_i * 2^fraction_bits)
// so that share recombination at H cancels exactly even when S has hundreds
// of bits (see DESIGN.md §3, substitution table).

#ifndef PSI_MPC_LINK_INFLUENCE_PROTOCOL_H_
#define PSI_MPC_LINK_INFLUENCE_PROTOCOL_H_

#include <optional>
#include <string>
#include <vector>

#include "actionlog/action_log.h"
#include "actionlog/counters.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/graph.h"
#include "influence/link_influence.h"
#include "mpc/secure_sum.h"
#include "mpc/session.h"
#include "net/network.h"

namespace psi {

/// \brief Registers Protocol 4's stage programs ("p4/counters") with the
/// global StageProgramRegistry. Idempotent; RunSession calls it, and the
/// psid execution engine calls it at startup so a daemon can run the
/// programs without ever driving a session.
void RegisterLinkInfluenceStagePrograms();

/// \brief Aggregated per-class counters held by a representative provider
/// after Protocol 5 (non-exclusive preprocessing). The representative feeds
/// them into Protocol 4 on behalf of its class group.
struct AggregatedClassCounters {
  /// a_i[A_q]: class actions performed by user i (any provider in the group).
  std::vector<uint64_t> a;
  /// c^l counters keyed by (i << 32 | j): value[l-1] is the exact-delay-l
  /// follow count. b^h is the prefix sum over l.
  std::unordered_map<uint64_t, std::vector<uint64_t>> c_by_delay;

  /// \brief b^h_ij derived from the delay histogram.
  uint64_t FollowCount(NodeId i, NodeId j, uint64_t h) const;
};

/// \brief How the provider counter vectors are turned into additive shares.
enum class P4Aggregation {
  /// Batched Protocol 2 (the paper's path, third party + permutation).
  kSecureSum,
  /// Packed Paillier aggregation (mpc/homomorphic_sum.h): k counters per
  /// ciphertext, CRT decryption, no third party. Falls back to kSecureSum
  /// when the counter bound A can't be proven for the actual inputs or no
  /// whole slot fits the key.
  kPaillierPacked,
};

/// \brief Protocol 4 parameters (public to all players).
struct Protocol4Config {
  uint64_t h = 4;                   ///< Memory window width.
  double obfuscation_factor = 2.0;  ///< The c > 1 of step 1.
  uint64_t epsilon_log2 = 40;       ///< Theorem 4.1 leakage budget 2^-eps.
  std::optional<BigUInt> modulus_s; ///< Explicit S override (kSecureSum only).
  bool use_secret_permutation = true;
  size_t fraction_bits = 64;        ///< Fixed-point resolution of r_i.
  std::optional<TemporalWeights> weights;  ///< Eq. (2) variant when set.
  uint64_t weight_scale = 1u << 16; ///< Fixed-point scale for w_l.
  P4Aggregation aggregation = P4Aggregation::kSecureSum;
  size_t paillier_bits = 512;       ///< Key size for kPaillierPacked.
};

/// \brief Observations recorded for the privacy tests.
struct Protocol4Views {
  std::vector<Arc> omega;  ///< The E' the providers saw (supersets E).
  /// Masked recombined values H obtained, per user / per Omega pair.
  std::vector<double> host_masked_a;
  std::vector<double> host_masked_b;
  SecureSumViews secure_sum;
  /// Whether the last run aggregated via packed Paillier (vs Protocol 2).
  bool used_packed_aggregation = false;
  /// Counters per Paillier ciphertext of the last packed run (1 otherwise).
  size_t packed_slots = 1;
};

/// \brief The counter vector one provider contributes to the batched secure
/// sum: [a_0..a_{n-1}, numerator(pair_0)..numerator(pair_{q-1})].
[[nodiscard]] Result<std::vector<uint64_t>> ComputeProviderCounterVector(
    const ActionLog& log, size_t num_users, const std::vector<Arc>& pairs,
    const Protocol4Config& config,
    const AggregatedClassCounters* extra = nullptr);

/// \brief Orchestrates Protocol 4 across the simulated network.
class LinkInfluenceProtocol {
 public:
  LinkInfluenceProtocol(Network* network, PartyId host,
                        std::vector<PartyId> providers, Protocol4Config config);

  /// \brief Runs the protocol.
  ///
  /// \param host_graph the host's private social graph.
  /// \param num_actions_public |A|, the public count of possible actions
  ///        (the counter bound A of Protocol 2).
  /// \param provider_logs the private action logs, one per provider.
  /// \param extras optional Protocol-5 aggregates; extras[k] (may be null)
  ///        is added to provider k's counters.
  /// \param pair_secret_rng pre-shared P1/P2 key material (permutation).
  /// \return p_ij for every arc of E, as computed by the host.
  [[nodiscard]] Result<LinkInfluence> Run(const SocialGraph& host_graph,
                            uint64_t num_actions_public,
                            const std::vector<ActionLog>& provider_logs,
                            Rng* host_rng,
                            const std::vector<Rng*>& provider_rngs,
                            Rng* pair_secret_rng,
                            const std::vector<const AggregatedClassCounters*>&
                                extras = {});

  /// \brief Runs the protocol as a checkpointed session (mpc/session.h):
  /// resumable stages (omega, one counters-P<k> per provider, aggregate,
  /// masks, masked-shares, recombine) under `retry`. A stage that fails — a
  /// provider crashed mid-round, an unrepairable channel — is replayed from
  /// the last checkpoint after a resume handshake, drawing from the same
  /// derived stage streams, so a recovered run returns bitwise the
  /// fault-free result. Each generator gives the session one 256-bit key
  /// and is otherwise untouched. The
  /// counters-P<k> stages are registered stage programs ("p4/counters")
  /// placed on their providers: pass a RemoteSessionOrchestrator
  /// (mpc/remote_exec.h) as `orchestrator` to execute them on the
  /// providers' psid daemons; with the default orchestrator (nullptr: one
  /// is built from `retry`; when non-null, `retry` is ignored in favor of
  /// the orchestrator's own policy) they run in-process. A provider with a
  /// non-null extras[k] keeps a plain local stage (the Protocol-5
  /// aggregates are in-memory only). `Run` is exactly this with a single
  /// attempt. `stats_out` (optional) receives the session's SessionStats.
  [[nodiscard]] Result<LinkInfluence> RunSession(
      const SocialGraph& host_graph, uint64_t num_actions_public,
      const std::vector<ActionLog>& provider_logs, Rng* host_rng,
      const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng,
      const RetryPolicy& retry, SessionStats* stats_out = nullptr,
      const std::vector<const AggregatedClassCounters*>& extras = {},
      SessionOrchestrator* orchestrator = nullptr);

  const Protocol4Views& views() const { return views_; }

  /// \brief The modulus used by the last run (auto-sized unless overridden).
  const BigUInt& modulus() const { return modulus_; }

 private:
  Network* network_;
  PartyId host_;
  std::vector<PartyId> providers_;
  Protocol4Config config_;
  Protocol4Views views_;
  BigUInt modulus_;
};

}  // namespace psi

#endif  // PSI_MPC_LINK_INFLUENCE_PROTOCOL_H_
