#include "mpc/multi_host.h"

#include <gtest/gtest.h>

#include <memory>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "mpc/wire.h"
#include "net/envelope.h"

namespace psi {
namespace {

struct MultiHostFixture {
  MultiHostFixture(size_t num_hosts, size_t num_providers, uint64_t seed = 51)
      : rng(seed) {
    // One "global" graph generates the activity; each host owns a random
    // slice of its arcs (platforms see different parts of the relationship
    // graph). Slices may overlap.
    global = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, 30, 180).ValueOrDie());
    auto truth = GroundTruthInfluence::Random(&rng, *global, 0.1, 0.7);
    CascadeParams params;
    params.num_actions = 50;
    log = GenerateCascades(&rng, *global, truth, params).ValueOrDie();
    provider_logs =
        ExclusivePartition(&rng, log, num_providers).ValueOrDie();

    for (size_t h = 0; h < num_hosts; ++h) {
      auto g = std::make_unique<SocialGraph>(global->num_nodes());
      for (const Arc& a : global->arcs()) {
        if (rng.Bernoulli(0.6)) PSI_CHECK_OK(g->AddArc(a.from, a.to));
      }
      host_graphs.push_back(std::move(g));
    }

    for (size_t h = 0; h < num_hosts; ++h) {
      hosts.push_back(net.RegisterParty("H" + std::to_string(h + 1)));
      host_rng_store.push_back(std::make_unique<Rng>(seed + 500 + h));
    }
    for (size_t k = 0; k < num_providers; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      provider_rng_store.push_back(std::make_unique<Rng>(seed + 900 + k));
    }
    pair_secret = std::make_unique<Rng>(seed + 77);
  }

  std::vector<const SocialGraph*> GraphPtrs() const {
    std::vector<const SocialGraph*> out;
    for (const auto& g : host_graphs) out.push_back(g.get());
    return out;
  }
  std::vector<Rng*> HostRngs() {
    std::vector<Rng*> out;
    for (auto& r : host_rng_store) out.push_back(r.get());
    return out;
  }
  std::vector<Rng*> ProviderRngs() {
    std::vector<Rng*> out;
    for (auto& r : provider_rng_store) out.push_back(r.get());
    return out;
  }

  Rng rng;
  std::unique_ptr<SocialGraph> global;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
  std::vector<std::unique_ptr<SocialGraph>> host_graphs;
  Network net;
  std::vector<PartyId> hosts;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> host_rng_store;
  std::vector<std::unique_ptr<Rng>> provider_rng_store;
  std::unique_ptr<Rng> pair_secret;
};

TEST(MultiHostTest, EveryHostGetsItsExactPlaintextStrengths) {
  MultiHostFixture f(3, 3);
  Protocol4Config cfg;
  cfg.h = 4;
  MultiHostLinkInfluenceProtocol proto(&f.net, f.hosts, f.providers, cfg);
  auto results = proto.Run(f.GraphPtrs(), 50, f.provider_logs, f.HostRngs(),
                           f.ProviderRngs(), f.pair_secret.get())
                     .ValueOrDie();
  ASSERT_EQ(results.size(), 3u);
  for (size_t h = 0; h < 3; ++h) {
    auto plain = ComputeLinkInfluence(f.log, f.host_graphs[h]->arcs(), 30, 4)
                     .ValueOrDie();
    ASSERT_EQ(results[h].p.size(), plain.p.size());
    for (size_t e = 0; e < plain.p.size(); ++e) {
      EXPECT_NEAR(results[h].p[e], plain.p[e], 1e-9)
          << "host " << h << " arc " << e;
    }
  }
  EXPECT_EQ(f.net.PendingCount(), 0u);
}

TEST(MultiHostTest, SingleHostDegeneratesToProtocol4Result) {
  MultiHostFixture f(1, 2);
  Protocol4Config cfg;
  MultiHostLinkInfluenceProtocol proto(&f.net, f.hosts, f.providers, cfg);
  auto results = proto.Run(f.GraphPtrs(), 50, f.provider_logs, f.HostRngs(),
                           f.ProviderRngs(), f.pair_secret.get())
                     .ValueOrDie();
  auto plain = ComputeLinkInfluence(f.log, f.host_graphs[0]->arcs(), 30,
                                    cfg.h)
                   .ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(results[0].p[e], plain.p[e], 1e-9);
  }
}

TEST(MultiHostTest, SharesOneSecureSumAcrossHosts) {
  // The amortization claim: the expensive m^2 share round happens once,
  // regardless of the host count, so the round count stays flat.
  for (size_t r : {1u, 2u, 4u}) {
    MultiHostFixture f(r, 3, 60 + r);
    Protocol4Config cfg;
    MultiHostLinkInfluenceProtocol proto(&f.net, f.hosts, f.providers, cfg);
    ASSERT_TRUE(proto.Run(f.GraphPtrs(), 50, f.provider_logs, f.HostRngs(),
                          f.ProviderRngs(), f.pair_secret.get())
                    .ok());
    EXPECT_EQ(f.net.Report().num_rounds, 8u) << "hosts=" << r;
  }
}

TEST(MultiHostTest, OmegaSizesReflectObfuscation) {
  MultiHostFixture f(2, 2);
  Protocol4Config cfg;
  cfg.obfuscation_factor = 3.0;
  MultiHostLinkInfluenceProtocol proto(&f.net, f.hosts, f.providers, cfg);
  ASSERT_TRUE(proto.Run(f.GraphPtrs(), 50, f.provider_logs, f.HostRngs(),
                        f.ProviderRngs(), f.pair_secret.get())
                  .ok());
  ASSERT_EQ(proto.omega_sizes().size(), 2u);
  for (size_t h = 0; h < 2; ++h) {
    EXPECT_EQ(proto.omega_sizes()[h], 3 * f.host_graphs[h]->num_arcs());
  }
}

TEST(MultiHostTest, Validation) {
  MultiHostFixture f(2, 2);
  Protocol4Config cfg;
  MultiHostLinkInfluenceProtocol proto(&f.net, f.hosts, f.providers, cfg);
  // Wrong graph count.
  std::vector<const SocialGraph*> one{f.host_graphs[0].get()};
  EXPECT_FALSE(proto.Run(one, 50, f.provider_logs, f.HostRngs(),
                         f.ProviderRngs(), f.pair_secret.get())
                   .ok());
  // Mismatched user universe.
  SocialGraph other(7);
  std::vector<const SocialGraph*> bad{f.host_graphs[0].get(), &other};
  EXPECT_FALSE(proto.Run(bad, 50, f.provider_logs, f.HostRngs(),
                         f.ProviderRngs(), f.pair_secret.get())
                   .ok());
}

TEST(MultiHostTest, WeightedVariantMatchesPlaintextEq2) {
  MultiHostFixture f(2, 3, 77);
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.weights = TemporalWeights::LinearDecay(4);
  MultiHostLinkInfluenceProtocol proto(&f.net, f.hosts, f.providers, cfg);
  auto results = proto.Run(f.GraphPtrs(), 50, f.provider_logs, f.HostRngs(),
                           f.ProviderRngs(), f.pair_secret.get())
                     .ValueOrDie();
  for (size_t h = 0; h < 2; ++h) {
    auto plain = ComputeWeightedLinkInfluence(f.log, f.host_graphs[h]->arcs(),
                                              30, *cfg.weights)
                     .ValueOrDie();
    for (size_t e = 0; e < plain.p.size(); ++e) {
      EXPECT_NEAR(results[h].p[e], plain.p[e], 1e-3)
          << "host " << h << " arc " << e;
    }
  }
}

// A host that publishes an Omega with one arc endpoint far outside [0, n):
// every Protocol 4 frame the first `num_hosts` parties send is re-sealed
// with the arc (5e7, 0) appended.
class OutOfRangeOmegaNetwork : public Network {
 public:
  explicit OutOfRangeOmegaNetwork(PartyId num_hosts) : num_hosts_(num_hosts) {}

 protected:
  Status Transmit(PartyId from, PartyId to,
                  std::vector<uint8_t> frame) override {
    if (from < num_hosts_) {
      PSI_ASSIGN_OR_RETURN(Envelope env, OpenEnvelope(frame));
      if (env.protocol_id == ProtocolId::kLinkInfluence) {
        std::vector<Arc> arcs;
        PSI_RETURN_NOT_OK(wire::UnpackArcs(env.payload, &arcs));
        arcs.push_back(Arc{50000000, 0});
        frame = SealEnvelope(env.protocol_id, env.step, env.sender, env.seq,
                             wire::PackArcs(arcs));
      }
    }
    return Network::Transmit(from, to, std::move(frame));
  }

 private:
  PartyId num_hosts_;
};

TEST(MultiHostTest, OutOfRangeOmegaArcIsAProtocolError) {
  MultiHostFixture f(2, 3);
  // The fixture's parties, registered in the same order: hosts first.
  OutOfRangeOmegaNetwork net(/*num_hosts=*/2);
  for (size_t h = 0; h < 2; ++h) net.RegisterParty("H" + std::to_string(h + 1));
  for (size_t k = 0; k < 3; ++k) net.RegisterParty("P" + std::to_string(k + 1));
  Protocol4Config cfg;
  MultiHostLinkInfluenceProtocol proto(&net, f.hosts, f.providers, cfg);
  auto result = proto.Run(f.GraphPtrs(), 50, f.provider_logs, f.HostRngs(),
                          f.ProviderRngs(), f.pair_secret.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos)
      << result.status().message();
  EXPECT_EQ(net.PendingCount(), 0u);
}

}  // namespace
}  // namespace psi
