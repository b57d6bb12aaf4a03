#include "mpc/perfect_hiding.h"

#include "common/annotations.h"
#include "crypto/oblivious_transfer.h"
#include "mpc/wire.h"

namespace psi {

size_t AllPairsIndex(NodeId i, NodeId j, size_t n) {
  PSI_DCHECK(i != j && i < n && j < n);
  size_t col = (j > i) ? static_cast<size_t>(j) - 1 : static_cast<size_t>(j);
  return static_cast<size_t>(i) * (n - 1) + col;
}

std::vector<Arc> AllOrderedPairs(size_t n) {
  std::vector<Arc> pairs;
  pairs.reserve(n * (n - 1));
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i != j) pairs.push_back(Arc{i, j});
    }
  }
  return pairs;
}

PerfectHidingLinkInfluenceProtocol::PerfectHidingLinkInfluenceProtocol(
    Network* network, PartyId host, std::vector<PartyId> providers,
    PerfectHidingConfig config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(config) {}

Result<LinkInfluence> PerfectHidingLinkInfluenceProtocol::Run(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  return DrainAfterRun(
      network_, RunImpl(host_graph, num_actions_public, provider_logs,
                        host_rng, provider_rngs, pair_secret_rng));
}

Result<LinkInfluence> PerfectHidingLinkInfluenceProtocol::RunImpl(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs, Rng* host_rng,
    const std::vector<Rng*>& provider_rngs, Rng* pair_secret_rng) {
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  if (m < 2) return Status::InvalidArgument("need at least two providers");
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }
  if (n < 2) return Status::InvalidArgument("need at least two users");

  // No Omega round: the pair list is the public all-pairs enumeration.
  std::vector<Arc> pairs = AllOrderedPairs(n);
  const size_t q = pairs.size();

  // ---- Batched Protocol 2 over [a | b(all pairs)]. ----
  Protocol4Config counter_cfg;
  counter_cfg.h = config_.h;
  counter_cfg.epsilon_log2 = config_.epsilon_log2;
  counter_cfg.use_secret_permutation = config_.use_secret_permutation;
  counter_cfg.fraction_bits = config_.fraction_bits;
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(inputs[k],
                         ComputeProviderCounterVector(provider_logs[k], n,
                                                      pairs, counter_cfg));
  }
  SecureSumProtocol secure_sum =
      CounterSecureSum(network_, host_, providers_, counter_cfg,
                       CounterBound(counter_cfg, num_actions_public), n + q);
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "PH."));

  // ---- Joint per-user masks, and every counter's masked shares. ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawJointMasks(network_, providers_[0], providers_[1], n,
                            provider_rngs[0], provider_rngs[1],
                            config_.fraction_bits, "PH."));
  BatchedIntegerShares masked =
      MaskShares(shares, [&](size_t c) -> const BigUInt& {
        return c < n ? masks[c] : masks[pairs[c - n].from];
      });

  // ---- Denominators travel openly (masked): they are per user, not per
  //      arc, so they reveal nothing about E. ----
  BatchedIntegerShares masked_a_shares;
  for (size_t i = 0; i < n; ++i) {
    masked_a_shares.s1.push_back(masked.s1[i]);
    masked_a_shares.s2.push_back(masked.s2[i]);
  }
  network_->BeginRound("PH.Steps7-8a (masked a shares -> H)");
  PSI_ASSIGN_OR_RETURN(HostMaskedShares got,
                       SendMaskedShares(network_, providers_[0], providers_[1],
                                        host_, masked_a_shares, n));
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> masked_a,
                       RecombineMaskedShares(got.shares, n));

  // ---- Numerators via |E|-out-of-(n^2-n) oblivious transfer. ----
  // Message vectors: the masked b-share of every ordered pair.
  std::vector<std::vector<uint8_t>> p1_messages(q), p2_messages(q);
  for (size_t p = 0; p < q; ++p) {
    p1_messages[p] = wire::PackBigUInts({masked.s1[n + p]});
    p2_messages[p] = wire::PackBigInts({masked.s2[n + p]});
  }
  std::vector<size_t> choices;
  choices.reserve(host_graph.num_arcs());
  for (const Arc& a : host_graph.arcs()) {
    choices.push_back(AllPairsIndex(a.from, a.to, n));
  }

  PSI_ASSIGN_OR_RETURN(RsaKeyPair p1_keys,
                       RsaGenerateKeyPair(provider_rngs[0], config_.ot_rsa_bits));
  PSI_ASSIGN_OR_RETURN(RsaKeyPair p2_keys,
                       RsaGenerateKeyPair(provider_rngs[1], config_.ot_rsa_bits));
  PSI_ASSIGN_OR_RETURN(
      auto from_p1,
      RunObliviousTransfers(network_, providers_[0], host_, p1_messages,
                            choices, p1_keys, provider_rngs[0], host_rng,
                            "PH.P1."));
  PSI_ASSIGN_OR_RETURN(
      auto from_p2,
      RunObliviousTransfers(network_, providers_[1], host_, p2_messages,
                            choices, p2_keys, provider_rngs[1], host_rng,
                            "PH.P2."));

  // ---- Recombine and divide, per arc. ----
  const size_t num_arcs = choices.size();
  BatchedIntegerShares masked_b_shares;
  masked_b_shares.s1.reserve(num_arcs);
  masked_b_shares.s2.reserve(num_arcs);
  for (size_t e = 0; e < num_arcs; ++e) {
    std::vector<BigUInt> v1;
    std::vector<BigInt> v2;
    PSI_RETURN_NOT_OK(wire::UnpackBigUInts(from_p1[e], &v1));
    PSI_RETURN_NOT_OK(wire::UnpackBigInts(from_p2[e], &v2));
    if (v1.size() != 1 || v2.size() != 1) {
      return Status::ProtocolError("OT message is not one masked share");
    }
    masked_b_shares.s1.push_back(std::move(v1[0]));
    masked_b_shares.s2.push_back(std::move(v2[0]));
  }
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> masked_b,
                       RecombineMaskedShares(masked_b_shares, num_arcs));
  LinkInfluence out;
  out.pairs = host_graph.arcs();
  out.p.resize(num_arcs);
  for (size_t e = 0; e < num_arcs; ++e) {
    const BigUInt& denom = masked_a[out.pairs[e].from];
    out.p[e] = denom.IsZero() ? 0.0 : DivideToDouble(masked_b[e], denom);
  }
  return out;
}

}  // namespace psi
