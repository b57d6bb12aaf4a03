#include "mpc/segmented_influence.h"

#include <gtest/gtest.h>

#include <memory>

#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "mpc/wire.h"
#include "net/envelope.h"

namespace psi {
namespace {

struct SegFixture {
  SegFixture(size_t num_providers, uint32_t num_segments, uint64_t seed = 71)
      : rng(seed) {
    graph = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, 25, 120).ValueOrDie());
    auto truth = GroundTruthInfluence::Random(&rng, *graph, 0.1, 0.7);
    CascadeParams params;
    params.num_actions = 60;
    log = GenerateCascades(&rng, *graph, truth, params).ValueOrDie();
    provider_logs =
        ExclusivePartition(&rng, log, num_providers).ValueOrDie();
    segments.resize(60);
    for (auto& g : segments) {
      g = static_cast<uint32_t>(rng.UniformU64(num_segments));
    }

    host = net.RegisterParty("H");
    for (size_t k = 0; k < num_providers; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rng_store.push_back(std::make_unique<Rng>(seed + k));
    }
    host_rng = std::make_unique<Rng>(seed + 100);
    pair_secret = std::make_unique<Rng>(seed + 200);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rng_store) out.push_back(r.get());
    return out;
  }

  Rng rng;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> provider_logs;
  std::vector<uint32_t> segments;
  Network net;
  PartyId host;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rng_store;
  std::unique_ptr<Rng> host_rng;
  std::unique_ptr<Rng> pair_secret;
};

TEST(SegmentedInfluenceTest, MatchesPlaintextPerSegment) {
  SegFixture f(3, 4);
  Protocol4Config cfg;
  cfg.h = 4;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 60, f.provider_logs, f.segments, 4,
                          f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain = ComputeSegmentedLinkInfluence(f.log, f.graph->arcs(), 25, 4,
                                             f.segments, 4)
                   .ValueOrDie();
  ASSERT_EQ(secure.num_segments(), 4u);
  for (uint32_t g = 0; g < 4; ++g) {
    for (size_t e = 0; e < plain.per_segment[g].p.size(); ++e) {
      EXPECT_NEAR(secure.per_segment[g].p[e], plain.per_segment[g].p[e],
                  1e-9)
          << "segment " << g << " arc " << e;
    }
  }
  EXPECT_EQ(f.net.PendingCount(), 0u);
}

TEST(SegmentedInfluenceTest, KeepsProtocol4RoundCount) {
  SegFixture f(3, 5);
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  ASSERT_TRUE(proto.Run(*f.graph, 60, f.provider_logs, f.segments, 5,
                        f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                  .ok());
  // Same eight rounds and m^2+m+7 messages as the unsegmented protocol:
  // segmentation only widens the batches.
  EXPECT_EQ(f.net.Report().num_rounds, 8u);
  EXPECT_EQ(f.net.Report().num_messages, 3u * 3u + 3u + 7u);
}

TEST(SegmentedInfluenceTest, OneSegmentMatchesProtocol4Semantics) {
  SegFixture f(2, 1);
  std::fill(f.segments.begin(), f.segments.end(), 0u);
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  auto secure = proto.Run(*f.graph, 60, f.provider_logs, f.segments, 1,
                          f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                    .ValueOrDie();
  auto plain =
      ComputeLinkInfluence(f.log, f.graph->arcs(), 25, cfg.h).ValueOrDie();
  for (size_t e = 0; e < plain.p.size(); ++e) {
    EXPECT_NEAR(secure.per_segment[0].p[e], plain.p[e], 1e-9);
  }
}

TEST(SegmentedInfluenceTest, Validation) {
  SegFixture f(2, 2);
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&f.net, f.host, f.providers, cfg);
  EXPECT_FALSE(proto.Run(*f.graph, 60, f.provider_logs, f.segments, 0,
                         f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                   .ok());
  Protocol4Config wcfg;
  wcfg.weights = TemporalWeights::Uniform(4);
  SegmentedInfluenceProtocol wproto(&f.net, f.host, f.providers, wcfg);
  EXPECT_EQ(wproto
                .Run(*f.graph, 60, f.provider_logs, f.segments, 2,
                     f.host_rng.get(), f.RngPtrs(), f.pair_secret.get())
                .status()
                .code(),
            StatusCode::kUnimplemented);
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

TEST(SegmentedInfluenceTest, OutOfRangeOmegaArcIsAProtocolError) {
  SegFixture f(3, 2);
  // The fixture's parties, registered in the same order: H first.
  OutOfRangeOmegaNetwork net(/*num_hosts=*/1);
  net.RegisterParty("H");
  for (size_t k = 0; k < 3; ++k) net.RegisterParty("P" + std::to_string(k + 1));
  Protocol4Config cfg;
  SegmentedInfluenceProtocol proto(&net, f.host, f.providers, cfg);
  auto result = proto.Run(*f.graph, 60, f.provider_logs, f.segments, 2,
                          f.host_rng.get(), f.RngPtrs(), f.pair_secret.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos)
      << result.status().message();
  EXPECT_EQ(net.PendingCount(), 0u);
}

}  // namespace
}  // namespace psi
