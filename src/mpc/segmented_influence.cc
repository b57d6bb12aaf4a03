#include "mpc/segmented_influence.h"

#include "common/annotations.h"
#include "graph/generators.h"
#include "mpc/wire.h"

namespace psi {

SegmentedInfluenceProtocol::SegmentedInfluenceProtocol(
    Network* network, PartyId host, std::vector<PartyId> providers,
    Protocol4Config config)
    : network_(network),
      host_(host),
      providers_(std::move(providers)),
      config_(std::move(config)) {}

Result<SegmentedLinkInfluence> SegmentedInfluenceProtocol::Run(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs,
    const std::vector<uint32_t>& segment_of_action, uint32_t num_segments,
    Rng* host_rng, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  return DrainAfterRun(
      network_, RunImpl(host_graph, num_actions_public, provider_logs,
                        segment_of_action, num_segments, host_rng,
                        provider_rngs, pair_secret_rng));
}

Result<SegmentedLinkInfluence> SegmentedInfluenceProtocol::RunImpl(
    const SocialGraph& host_graph, uint64_t num_actions_public,
    const std::vector<ActionLog>& provider_logs,
    const std::vector<uint32_t>& segment_of_action, uint32_t num_segments,
    Rng* host_rng, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  const size_t m = providers_.size();
  const size_t n = host_graph.num_nodes();
  const size_t g_count = num_segments;
  if (m < 2) return Status::InvalidArgument("need at least two providers");
  if (g_count == 0) return Status::InvalidArgument("need >= 1 segment");
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }
  if (config_.weights.has_value()) {
    return Status::Unimplemented(
        "segmented protocol currently supports the Eq. (1) definition");
  }

  // ---- Step 1-2: Omega_E', as in Protocol 4. ----
  PSI_ASSIGN_OR_RETURN(
      std::vector<Arc> omega,
      ObfuscateArcSet(host_rng, host_graph, config_.obfuscation_factor));
  const size_t q = omega.size();
  network_->BeginRound("SEG.Step2 (H -> P_k: Omega_E')");
  PSI_ASSIGN_OR_RETURN(
      std::vector<ReceivedOmega> provider_omega,
      PublishOmega(network_, ProtocolId::kLinkInfluence, host_, providers_,
                   wire::PackArcs(omega), n));

  // ---- Local: per-segment counter blocks over each provider's own copy of
  //      Omega_E'. Layout: [a^0 .. a^{G-1} | b^0 .. b^{G-1}], each a-block
  //      n wide, each b-block q wide. ----
  const size_t a_total = g_count * n;
  const size_t total = a_total + g_count * q;
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    inputs[k].reserve(total);
    std::vector<ActionLog> filtered(g_count);
    for (uint32_t g = 0; g < g_count; ++g) {
      filtered[g] = FilterLogBySegment(provider_logs[k], segment_of_action, g);
      auto a = ComputeActionCounts(filtered[g], n);
      inputs[k].insert(inputs[k].end(), a.begin(), a.end());
    }
    for (uint32_t g = 0; g < g_count; ++g) {
      auto b = ComputeFollowCounts(filtered[g], provider_omega[k].arcs, config_.h);
      inputs[k].insert(inputs[k].end(), b.begin(), b.end());
    }
  }

  // ---- Batched Protocol 2 over all G(n + q) counters. ----
  SecureSumProtocol secure_sum =
      CounterSecureSum(network_, host_, providers_, config_,
                       CounterBound(config_, num_actions_public), total);
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "SEG."));

  // ---- Per-(user, segment) masks. ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawJointMasks(network_, providers_[0], providers_[1], a_total,
                            provider_rngs[0], provider_rngs[1],
                            config_.fraction_bits, "SEG."));
  // The mask governing counter c: block (g, i) for a-counters, block
  // (g, source user) for b-counters, read from P1's copy of Omega_E'.
  const std::vector<Arc>& p1_omega = provider_omega[0].arcs;
  BatchedIntegerShares masked =
      MaskShares(shares, [&](size_t c) -> const BigUInt& {
        if (c < a_total) return masks[c];
        const size_t rel = c - a_total;
        const size_t g = rel / p1_omega.size();
        return masks[g * n + p1_omega[rel % p1_omega.size()].from];
      });

  // ---- Masked shares to H; H recombines and divides per segment. ----
  network_->BeginRound("SEG.Steps7-8 (masked shares -> H)");
  PSI_ASSIGN_OR_RETURN(HostMaskedShares got,
                       SendMaskedShares(network_, providers_[0], providers_[1],
                                        host_, masked, total));
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> recombined,
                       RecombineMaskedShares(got.shares, total));
  SegmentedLinkInfluence out;
  out.per_segment.resize(g_count);
  for (uint32_t g = 0; g < g_count; ++g) {
    PSI_ASSIGN_OR_RETURN(
        out.per_segment[g],
        DivideMaskedCounters(host_graph.arcs(), omega, recombined.data() + g * n,
                             recombined.data() + a_total + g * q, /*descale=*/1.0));
  }
  return out;
}

}  // namespace psi
