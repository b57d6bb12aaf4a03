#include "mpc/multi_host.h"

#include <algorithm>

#include "common/annotations.h"
#include "graph/generators.h"
#include "mpc/wire.h"

namespace psi {

MultiHostLinkInfluenceProtocol::MultiHostLinkInfluenceProtocol(
    Network* network, std::vector<PartyId> hosts,
    std::vector<PartyId> providers, Protocol4Config config)
    : network_(network),
      hosts_(std::move(hosts)),
      providers_(std::move(providers)),
      config_(std::move(config)) {}

Result<std::vector<LinkInfluence>> MultiHostLinkInfluenceProtocol::Run(
    const std::vector<const SocialGraph*>& host_graphs,
    uint64_t num_actions_public, const std::vector<ActionLog>& provider_logs,
    const std::vector<Rng*>& host_rngs, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  return DrainAfterRun(
      network_, RunImpl(host_graphs, num_actions_public, provider_logs,
                        host_rngs, provider_rngs, pair_secret_rng));
}

Result<std::vector<LinkInfluence>> MultiHostLinkInfluenceProtocol::RunImpl(
    const std::vector<const SocialGraph*>& host_graphs,
    uint64_t num_actions_public, const std::vector<ActionLog>& provider_logs,
    const std::vector<Rng*>& host_rngs, const std::vector<Rng*>& provider_rngs,
    Rng* pair_secret_rng) {
  const size_t r = hosts_.size();
  const size_t m = providers_.size();
  if (r == 0) return Status::InvalidArgument("need at least one host");
  if (m < 2) return Status::InvalidArgument("need at least two providers");
  if (host_graphs.size() != r || host_rngs.size() != r) {
    return Status::InvalidArgument("one graph and rng per host");
  }
  if (provider_logs.size() != m || provider_rngs.size() != m) {
    return Status::InvalidArgument("one log and rng per provider");
  }
  const size_t n = host_graphs[0]->num_nodes();
  for (const auto* g : host_graphs) {
    if (g->num_nodes() != n) {
      return Status::InvalidArgument("hosts must share the user universe");
    }
  }

  // ---- Step 1: every host publishes its obfuscated arc set; every provider
  //      concatenates its own validated copies into one pair list. ----
  std::vector<std::vector<Arc>> omegas(r);
  std::vector<std::vector<Arc>> provider_pairs(m);
  network_->BeginRound("MH.Step1 (H_h -> P_k: Omega_h)");
  for (size_t h = 0; h < r; ++h) {
    PSI_ASSIGN_OR_RETURN(omegas[h],
                         ObfuscateArcSet(host_rngs[h], *host_graphs[h],
                                         config_.obfuscation_factor));
    PSI_ASSIGN_OR_RETURN(std::vector<ReceivedOmega> received,
                         PublishOmega(network_, ProtocolId::kLinkInfluence,
                                      hosts_[h], providers_,
                                      wire::PackArcs(omegas[h]), n));
    for (size_t k = 0; k < m; ++k) {
      provider_pairs[k].insert(provider_pairs[k].end(), received[k].arcs.begin(),
                               received[k].arcs.end());
    }
  }
  omega_sizes_.clear();
  for (const auto& o : omegas) omega_sizes_.push_back(o.size());

  // ---- Step 2: one batched Protocol 2 over [a | b(all Omegas)]. ----
  std::vector<std::vector<uint64_t>> inputs(m);
  for (size_t k = 0; k < m; ++k) {
    PSI_ASSIGN_OR_RETURN(inputs[k],
                         ComputeProviderCounterVector(
                             provider_logs[k], n, provider_pairs[k], config_));
  }
  SecureSumProtocol secure_sum = CounterSecureSum(
      network_, hosts_[0], providers_, config_,
      CounterBound(config_, num_actions_public), inputs[0].size());
  PSI_ASSIGN_OR_RETURN(
      BatchedIntegerShares shares,
      secure_sum.RunProtocol2(inputs, provider_rngs, pair_secret_rng, "MH."));

  // ---- Step 3: joint per-user masks, drawn once for all hosts; P1 masks
  //      every counter by its copy of the pair list. ----
  PSI_SECRET std::vector<BigUInt> masks;
  PSI_ASSIGN_OR_RETURN(
      masks, DrawJointMasks(network_, providers_[0], providers_[1], n,
                            provider_rngs[0], provider_rngs[1],
                            config_.fraction_bits, "MH."));
  const std::vector<Arc>& p1_pairs = provider_pairs[0];
  BatchedIntegerShares masked =
      MaskShares(shares, [&](size_t c) -> const BigUInt& {
        return c < n ? masks[c] : masks[p1_pairs[c - n].from];
      });

  // ---- Step 4: each host receives the masked a-shares plus its own
  //      b-slice, then recombines and divides for its own arcs. ----
  network_->BeginRound("MH.Steps7-8 (masked slices -> hosts)");
  const double descale = config_.weights.has_value()
                             ? static_cast<double>(config_.weight_scale)
                             : 1.0;
  std::vector<LinkInfluence> out(r);
  size_t slice_start = n;
  for (size_t h = 0; h < r; ++h) {
    const size_t q_h = omegas[h].size();
    const size_t slice_end = std::min(slice_start + q_h, masked.s1.size());
    BatchedIntegerShares slice;
    auto append = [&](size_t lo, size_t hi) {
      for (size_t c = lo; c < hi; ++c) {
        slice.s1.push_back(masked.s1[c]);
        slice.s2.push_back(masked.s2[c]);
      }
    };
    append(0, n);
    append(slice_start, slice_end);
    slice_start = slice_end;
    PSI_ASSIGN_OR_RETURN(HostMaskedShares got,
                         SendMaskedShares(network_, providers_[0], providers_[1],
                                          hosts_[h], slice, n + q_h));
    PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> recombined,
                         RecombineMaskedShares(got.shares, n + q_h));
    PSI_ASSIGN_OR_RETURN(out[h], DivideMaskedCounters(host_graphs[h]->arcs(), omegas[h],
                                                      recombined.data(),
                                                      recombined.data() + n, descale));
  }
  return out;
}

}  // namespace psi
