#include "mpc/secure_user_score.h"

#include "actionlog/counters.h"
#include "common/annotations.h"
#include "mpc/link_influence_protocol.h"

namespace psi {

SecureUserScoreProtocol::SecureUserScoreProtocol(
    Network* network, PartyId host, std::vector<PartyId> providers,
    SecureScoreConfig config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(std::move(config)) {}

Result<std::vector<double>> SecureUserScoreProtocol::Run(
    const SocialGraph& host_graph, size_t num_actions,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  return DrainAfterRun(network_,
                       RunImpl(host_graph, num_actions, provider_logs, host_rng,
                               provider_rngs, pair_secret_rng));
}

Result<std::vector<double>> SecureUserScoreProtocol::RunImpl(
    const SocialGraph& host_graph, size_t num_actions,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  if (m < 2) return Status::InvalidArgument("pipeline needs >= 2 providers");
  if (config_.score_options.include_self) {
    return Status::Unimplemented(
        "include_self scoring needs performer sets, which Protocol 6 "
        "deliberately withholds from H; use the plaintext baseline");
  }

  // ---- Phase 1: Protocol 6 gives H every PG(alpha). ----
  PropagationGraphProtocol p6(network_, host_, providers_, config_.protocol6);
  PSI_ASSIGN_OR_RETURN(Protocol6Output pgs,
                       p6.Run(host_graph, num_actions, provider_logs, host_rng,
                              provider_rngs));
  p6_views_ = p6.views();

  // ---- Phase 2: secure a_i shares (batched Protocol 2 over n counters). --
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    inputs[k] = ComputeActionCounts(provider_logs[k], n);
  }
  Protocol4Config p4;
  p4.epsilon_log2 = config_.epsilon_log2;
  SecureSumProtocol secure_sum = CounterSecureSum(
      network_, host_, providers_, p4, BigUInt(num_actions), n);
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "P6S."));

  // ---- Phase 3: Protocol 4's masked division of a_i by the public constant
  // 1. The counters are [a_0..a_{n-1} | 1 x n]; P1 holds the constant as its
  // share and P2 holds 0, so H recombines R_i * a_i and R_i. ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawJointMasks(network_, providers_[0], providers_[1], n,
                            provider_rngs[0], provider_rngs[1],
                            p4.fraction_bits, "P6S."));
  shares.s1.resize(2 * n, BigUInt(1));
  shares.s2.resize(2 * n, BigInt());
  BatchedIntegerShares masked =
      MaskShares(shares, [&](size_t c) -> const BigUInt& {
        return masks[c % n];
      });
  network_->BeginRound("P6S.Steps7-8 (masked a_i shares -> H)");
  PSI_ASSIGN_OR_RETURN(HostMaskedShares got,
                       SendMaskedShares(network_, providers_[0], providers_[1],
                                        host_, masked, 2 * n));
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> recombined,
                       RecombineMaskedShares(got.shares, 2 * n));

  // Host reconstructs a_i = (R_i * a_i) / (R_i * 1) exactly.
  revealed_a_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (recombined[n + i].IsZero()) {
      return Status::ProtocolError("invalid masked a_i recombination");
    }
    PSI_ASSIGN_OR_RETURN(revealed_a_[i],
                         (recombined[i] / recombined[n + i]).ToUint64());
  }

  // ---- Phase 4 (local at H): Eq. (3) from the PGs and the a_i. ----
  std::vector<double> numer(n, 0.0);
  for (const auto& pg : pgs.graphs) {
    for (NodeId v = 0; v < n; ++v) {
      // Only performers can own a non-empty sphere; a non-performer has no
      // outgoing PG arcs, so its sphere is empty and can be skipped.
      if (pg.OutArcs(v).empty()) continue;
      numer[v] += static_cast<double>(
          pg.InfluenceSphereSize(v, config_.score_options.tau));
    }
  }
  std::vector<double> scores(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    if (revealed_a_[v] > 0) {
      scores[v] = numer[v] / static_cast<double>(revealed_a_[v]);
    }
  }
  return scores;
}

}  // namespace psi
