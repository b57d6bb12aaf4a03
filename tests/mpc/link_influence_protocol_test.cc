#include "mpc/link_influence_protocol.h"

#include <gtest/gtest.h>

#include <memory>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"

namespace psi {
namespace {

struct P4Fixture {
  P4Fixture(size_t num_providers, size_t num_users, size_t num_arcs,
            size_t num_actions, uint64_t seed = 7)
      : rng(seed) {
    graph = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, num_users, num_arcs).ValueOrDie());
    auto truth = GroundTruthInfluence::Random(&rng, *graph, 0.1, 0.7);
    CascadeParams params;
    params.num_actions = num_actions;
    params.seeds_per_action = 2;
    log = GenerateCascades(&rng, *graph, truth, params).ValueOrDie();
    provider_logs = ExclusivePartition(&rng, log, num_providers).ValueOrDie();

    host = net.RegisterParty("H");
    for (size_t k = 0; k < num_providers; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rngs.push_back(std::make_unique<Rng>(seed * 100 + k));
    }
    host_rng = std::make_unique<Rng>(seed + 1);
    pair_secret = std::make_unique<Rng>(seed + 2);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rngs) out.push_back(r.get());
    return out;
  }

  Rng rng;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
  Network net;
  PartyId host;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::unique_ptr<Rng> host_rng;
  std::unique_ptr<Rng> pair_secret;
};

TEST(Protocol4Test, SecureOutputEqualsPlaintextEq1) {
  P4Fixture f(3, 40, 200, 60);
  Protocol4Config cfg;
  cfg.h = 4;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 60, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 40, cfg.h).ValueOrDie();
  ASSERT_EQ(secure.p.size(), plain.p.size());
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-9) << "arc " << e;
  }
}

TEST(Protocol4Test, CommunicationMatchesTable1Totals) {
  for (size_t m : {2u, 3u, 5u}) {
    P4Fixture f(m, 25, 100, 30, m);
    Protocol4Config cfg;
    LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
    ASSERT_TRUE(proto.Run(*f.graph, 30, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ok());
    auto report = f.net.Report();
    EXPECT_EQ(report.num_rounds, 8u) << "m=" << m;
    EXPECT_EQ(report.num_messages, m * m + m + 7) << "m=" << m;
    EXPECT_EQ(f.net.PendingCount(), 0u);
  }
}

TEST(Protocol4Test, WeightedVariantMatchesPlaintextEq2) {
  P4Fixture f(3, 30, 150, 50);
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.weights = TemporalWeights::LinearDecay(4);
  cfg.weight_scale = 1u << 16;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 50, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain = ComputeWeightedLinkInfluence(f.log, f.graph->arcs(), 30,
                                            *cfg.weights)
                   .ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    // Fixed-point weight rounding bounds the error by h/scale per unit.
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-3) << "arc " << e;
  }
}

TEST(Protocol4Test, OmegaHidesTrueArcsAmongDecoys) {
  P4Fixture f(2, 30, 120, 40);
  Protocol4Config cfg;
  cfg.obfuscation_factor = 3.0;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  ASSERT_TRUE(proto.Run(*f.graph, 40, f.provider_logs, f.host_rng.get(),
                        f.RngPtrs(), f.pair_secret.get())
                  .ok());
  const auto& omega = proto.views().omega;
  EXPECT_EQ(omega.size(), 360u);  // c * |E|.
  size_t true_arcs = 0;
  for (const Arc& a : omega) true_arcs += f.graph->HasArc(a.from, a.to);
  EXPECT_EQ(true_arcs, 120u);  // All of E is inside, hidden among decoys.
}

TEST(Protocol4Test, HostMaskedViewsHideCounters) {
  // The masked value r_i * a_i that H sees must differ from a_i itself
  // (masking) while preserving the quotient relationships.
  P4Fixture f(2, 20, 80, 30);
  Protocol4Config cfg;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  ASSERT_TRUE(proto.Run(*f.graph, 30, f.provider_logs, f.host_rng.get(),
                        f.RngPtrs(), f.pair_secret.get())
                  .ok());
  auto a = ComputeActionCounts(f.log, 20);
  const auto& masked = proto.views().host_masked_a;
  size_t equal = 0;
  for (size_t i = 0; i < 20; ++i) {
    if (a[i] != 0 &&
        std::abs(masked[i] - static_cast<double>(a[i])) < 1e-9) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 1u);  // r_i == 1.0 exactly is measure-zero.
}

TEST(Protocol4Test, SessionsOnTheSameGeneratorsDrawFreshOmegaAndMasks) {
  // Each session takes one key per caller generator, so a second session on
  // the same Rng objects draws a new Omega_E' and new masks — and the same
  // seeds replayed from scratch reproduce the first session exactly.
  P4Fixture f(3, 30, 120, 40);
  Protocol4Config cfg;
  auto run = [&](P4Fixture* fx) {
    LinkInfluenceProtocol proto(&fx->net, fx->host, fx->providers, cfg);
    auto out = proto.Run(*fx->graph, 40, fx->provider_logs,
                         fx->host_rng.get(), fx->RngPtrs(),
                         fx->pair_secret.get());
    EXPECT_TRUE(out.ok());
    return proto.views();
  };
  const Protocol4Views first = run(&f);
  const Protocol4Views second = run(&f);
  EXPECT_NE(first.omega, second.omega);
  EXPECT_NE(first.host_masked_a, second.host_masked_a);
  EXPECT_NE(first.host_masked_b, second.host_masked_b);

  P4Fixture replay(3, 30, 120, 40);
  const Protocol4Views again = run(&replay);
  EXPECT_EQ(again.omega, first.omega);
  EXPECT_EQ(again.host_masked_a, first.host_masked_a);
  EXPECT_EQ(again.host_masked_b, first.host_masked_b);
}

TEST(Protocol4Test, ModulusAutoSizingTracksProblemSize) {
  P4Fixture small(2, 10, 30, 10);
  P4Fixture large(2, 10, 30, 10);
  Protocol4Config cfg_small;
  cfg_small.epsilon_log2 = 20;
  Protocol4Config cfg_large;
  cfg_large.epsilon_log2 = 80;
  LinkInfluenceProtocol ps(&small.net, small.host, small.providers, cfg_small);
  LinkInfluenceProtocol pl(&large.net, large.host, large.providers, cfg_large);
  ASSERT_TRUE(ps.Run(*small.graph, 10, small.provider_logs,
                     small.host_rng.get(), small.RngPtrs(),
                     small.pair_secret.get())
                  .ok());
  ASSERT_TRUE(pl.Run(*large.graph, 10, large.provider_logs,
                     large.host_rng.get(), large.RngPtrs(),
                     large.pair_secret.get())
                  .ok());
  EXPECT_GE(pl.modulus().BitLength(), ps.modulus().BitLength() + 55u);
}

TEST(Protocol4Test, ExplicitModulusOverride) {
  P4Fixture f(2, 15, 60, 20);
  Protocol4Config cfg;
  cfg.modulus_s = BigUInt::PowerOfTwo(256);
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  EXPECT_EQ(proto.modulus(), BigUInt::PowerOfTwo(256));
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 15, cfg.h).ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-9);
  }
}

TEST(Protocol4Test, PermutationOffStillCorrect) {
  P4Fixture f(3, 20, 80, 25);
  Protocol4Config cfg;
  cfg.use_secret_permutation = false;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 20, cfg.h).ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-9);
  }
}

TEST(Protocol4Test, Validation) {
  P4Fixture f(2, 10, 30, 10);
  Protocol4Config cfg;
  LinkInfluenceProtocol one_provider(&f.net, f.host, {f.providers[0]}, cfg);
  EXPECT_FALSE(one_provider
                   .Run(*f.graph, 10, {f.provider_logs[0]}, f.host_rng.get(),
                        {f.rngs[0].get()}, f.pair_secret.get())
                   .ok());
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  std::vector<ActionLog> wrong_count{f.provider_logs[0]};
  EXPECT_FALSE(proto.Run(*f.graph, 10, wrong_count, f.host_rng.get(),
                         f.RngPtrs(), f.pair_secret.get())
                   .ok());
}

TEST(Protocol4Test, PackedAggregationMatchesPlaintext) {
  P4Fixture f(3, 30, 120, 40);
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.aggregation = P4Aggregation::kPaillierPacked;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 40, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  EXPECT_TRUE(proto.views().used_packed_aggregation);
  EXPECT_GT(proto.views().packed_slots, 1u);
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 30, cfg.h).ValueOrDie();
  ASSERT_EQ(secure.p.size(), plain.p.size());
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-9) << "arc " << e;
  }
}

TEST(Protocol4Test, PackedAggregationMatchesSecureSum) {
  // Identical worlds through both aggregation backends: the estimates must
  // coincide (both are exact), only the transcript shape differs.
  P4Fixture fp(3, 25, 100, 30, 77);
  P4Fixture fs(3, 25, 100, 30, 77);
  Protocol4Config packed_cfg;
  packed_cfg.aggregation = P4Aggregation::kPaillierPacked;
  Protocol4Config sum_cfg;  // Default kSecureSum.
  LinkInfluenceProtocol packed(&fp.net, fp.host, fp.providers, packed_cfg);
  LinkInfluenceProtocol sums(&fs.net, fs.host, fs.providers, sum_cfg);
  auto sp = packed
                .Run(*fp.graph, 30, fp.provider_logs, fp.host_rng.get(),
                     fp.RngPtrs(), fp.pair_secret.get())
                .ValueOrDie();
  auto ss = sums
                .Run(*fs.graph, 30, fs.provider_logs, fs.host_rng.get(),
                     fs.RngPtrs(), fs.pair_secret.get())
                .ValueOrDie();
  ASSERT_TRUE(packed.views().used_packed_aggregation);
  ASSERT_FALSE(sums.views().used_packed_aggregation);
  ASSERT_EQ(sp.p.size(), ss.p.size());
  for (size_t e = 0; e < sp.p.size(); ++e) {
    EXPECT_NEAR(sp.p[e], ss.p[e], 1e-9) << "arc " << e;
  }
}

TEST(Protocol4Test, PackedAggregationWithTemporalWeights) {
  // Eq. (2) inflates the counter bound by weight_scale * h; packing must
  // derive its geometry from that inflated bound and still be exact.
  P4Fixture f(3, 30, 150, 50);
  Protocol4Config cfg;
  cfg.h = 4;
  cfg.weights = TemporalWeights::LinearDecay(4);
  cfg.weight_scale = 1u << 16;
  cfg.aggregation = P4Aggregation::kPaillierPacked;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 50, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  EXPECT_TRUE(proto.views().used_packed_aggregation);
  auto plain = ComputeWeightedLinkInfluence(f.log, f.graph->arcs(), 30,
                                            *cfg.weights)
                   .ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-3) << "arc " << e;
  }
}

TEST(Protocol4Test, PackedAggregationFallsBackWhenNoSlotFits) {
  // A huge statistical-mask headroom makes the slot wider than the Paillier
  // plaintext; the protocol must detect that up front and fall back to the
  // Protocol 2 backend, still producing the exact estimates.
  P4Fixture f(2, 15, 60, 20);
  Protocol4Config cfg;
  cfg.aggregation = P4Aggregation::kPaillierPacked;
  cfg.epsilon_log2 = 600;  // Slot would need > 600 bits; |N| - 2 = 510.
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 20, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  EXPECT_FALSE(proto.views().used_packed_aggregation);
  EXPECT_EQ(proto.views().packed_slots, 1u);
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 15, cfg.h).ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.p[e], plain.p[e], 1e-9) << "arc " << e;
  }
}

// Parameterized sweep across provider counts: correctness and the NM
// formula must hold for every m.
class Protocol4ProviderSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Protocol4ProviderSweep, CorrectAndMetered) {
  const size_t m = GetParam();
  P4Fixture f(m, 20, 80, 25, 31 + m);
  Protocol4Config cfg;
  cfg.h = 3;
  LinkInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 25, f.provider_logs, f.host_rng.get(),
                          f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 20, 3).ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    ASSERT_NEAR(secure.p[e], plain.p[e], 1e-9);
  }
  EXPECT_EQ(f.net.Report().num_messages, m * m + m + 7);
}

INSTANTIATE_TEST_SUITE_P(ProviderCounts, Protocol4ProviderSweep,
                         ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
}  // namespace psi
