#include "mpc/class_aggregation.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "actionlog/counters.h"
#include "actionlog/generator.h"
#include "actionlog/partition.h"
#include "graph/generators.h"
#include "net/envelope.h"

namespace psi {
namespace {

struct P5Fixture {
  explicit P5Fixture(size_t group_size, uint64_t seed = 11) : rng(seed) {
    graph = std::make_unique<SocialGraph>(
        ErdosRenyiArcs(&rng, 25, 120).ValueOrDie());
    auto truth = GroundTruthInfluence::Uniform(*graph, 0.5);
    CascadeParams params;
    params.num_actions = 40;
    log = GenerateCascades(&rng, *graph, truth, params).ValueOrDie();
    // Spread the unified log across the group (every action shared).
    ActionClassConfig cfg;
    cfg.class_of_action.assign(40, 0);
    cfg.provider_groups.push_back({});
    for (size_t k = 0; k < group_size; ++k) {
      cfg.provider_groups[0].push_back(k);
    }
    class_logs =
        NonExclusivePartition(&rng, log, group_size, cfg).ValueOrDie();

    aggregator = net.RegisterParty("P-hat");
    for (size_t k = 0; k < group_size; ++k) {
      group.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
    }
    group_secret = std::make_unique<Rng>(seed + 1);
  }

  Rng rng;
  std::unique_ptr<SocialGraph> graph;
  ActionLog log;
  std::vector<ActionLog> class_logs;
  Network net;
  PartyId aggregator;
  std::vector<PartyId> group;
  std::unique_ptr<Rng> group_secret;
};

Protocol5Config MakeConfig(ObfuscationMethod method, uint64_t frame_t,
                           uint64_t h = 4) {
  Protocol5Config cfg;
  cfg.h = h;
  cfg.method = method;
  cfg.num_fake_users = 6;
  cfg.time_frame_t = frame_t;
  return cfg;
}

void ExpectCountersMatchPlaintext(const AggregatedClassCounters& agg,
                                  const ActionLog& unified_log, uint64_t h) {
  auto expected_a = ComputeActionCounts(unified_log, 25);
  ASSERT_EQ(agg.a.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(agg.a[i], expected_a[i]) << "a_" << i;
  }
  // Check b over all ordered pairs, not just graph arcs: Protocol 5 returns
  // counters for every pair with activity.
  std::vector<Arc> all_pairs;
  for (NodeId i = 0; i < 25; ++i) {
    for (NodeId j = 0; j < 25; ++j) {
      if (i != j) all_pairs.push_back({i, j});
    }
  }
  auto expected_b = ComputeFollowCounts(unified_log, all_pairs, h);
  for (size_t p = 0; p < all_pairs.size(); ++p) {
    uint64_t got =
        agg.FollowCount(all_pairs[p].from, all_pairs[p].to, h);
    ASSERT_EQ(got, expected_b[p])
        << "pair (" << all_pairs[p].from << "," << all_pairs[p].to << ")";
  }
}

TEST(Protocol5Test, BasicObfuscationRecoversExactCounters) {
  P5Fixture f(3);
  ClassAggregationProtocol proto(
      &f.net, f.group, f.aggregator,
      MakeConfig(ObfuscationMethod::kBasic, f.log.MaxTime() + 1));
  auto agg = proto.Run(f.class_logs, 25, f.group_secret.get(), "t.")
                 .ValueOrDie();
  ExpectCountersMatchPlaintext(agg, f.log, 4);
}

TEST(Protocol5Test, EnhancedObfuscationRecoversExactCounters) {
  P5Fixture f(3);
  ClassAggregationProtocol proto(
      &f.net, f.group, f.aggregator,
      MakeConfig(ObfuscationMethod::kEnhanced, f.log.MaxTime() + 1));
  auto agg = proto.Run(f.class_logs, 25, f.group_secret.get(), "t.")
                 .ValueOrDie();
  ExpectCountersMatchPlaintext(agg, f.log, 4);
}

TEST(Protocol5Test, CrossProviderFollowsAreRecovered) {
  // The motivating case: u buys at P1, v follows at P2. Neither provider
  // alone sees the episode, the aggregate must.
  Network net;
  PartyId aggregator = net.RegisterParty("P-hat");
  std::vector<PartyId> group{net.RegisterParty("P1"), net.RegisterParty("P2")};
  ActionLog log1, log2;
  log1.Add({0, 0, 10});  // u = 0 buys book 0 at P1.
  log2.Add({1, 0, 12});  // v = 1 buys it at P2, 2 steps later.
  Rng secret(5);
  ClassAggregationProtocol proto(
      &net, group, aggregator,
      MakeConfig(ObfuscationMethod::kEnhanced, 13));
  auto agg = proto.Run({log1, log2}, 2, &secret, "t.").ValueOrDie();
  EXPECT_EQ(agg.a[0], 1u);
  EXPECT_EQ(agg.a[1], 1u);
  EXPECT_EQ(agg.FollowCount(0, 1, 4), 1u);
  EXPECT_EQ(agg.FollowCount(1, 0, 4), 0u);
  // Exact delay recorded at l = 2.
  auto it = agg.c_by_delay.find((0ull << 32) | 1);
  ASSERT_NE(it, agg.c_by_delay.end());
  EXPECT_EQ(it->second[1], 1u);
}

TEST(Protocol5Test, AggregatorNeverSeesRealUserIdsInEnhancedMode) {
  // With the enhanced method the aggregator's view uses injected ids over a
  // larger space; at least some must exceed the real id range, and fake
  // padding must be present.
  P5Fixture f(2);
  ClassAggregationProtocol proto(
      &f.net, f.group, f.aggregator,
      MakeConfig(ObfuscationMethod::kEnhanced, f.log.MaxTime() + 1));
  ASSERT_TRUE(proto.Run(f.class_logs, 25, f.group_secret.get(), "t.").ok());
  size_t total_records = 0;
  for (const auto& records : proto.views().aggregator_logs) {
    total_records += records.size();
  }
  EXPECT_GT(total_records, f.log.size());  // Fake padding inflates the logs.
}

TEST(Protocol5Test, EnhancedPaddingEqualizesTimestampHistogram) {
  // Per provider, every encrypted timestamp must carry the same number of
  // records — otherwise the shift key leaks from the activity histogram.
  P5Fixture f(2);
  uint64_t frame_t = f.log.MaxTime() + 1;
  ClassAggregationProtocol proto(
      &f.net, f.group, f.aggregator,
      MakeConfig(ObfuscationMethod::kEnhanced, frame_t));
  ASSERT_TRUE(proto.Run(f.class_logs, 25, f.group_secret.get(), "t.").ok());
  uint64_t frame = frame_t + 4;
  for (const auto& records : proto.views().aggregator_logs) {
    std::vector<uint64_t> per_time(frame, 0);
    for (const auto& r : records) {
      ASSERT_LT(r.time, frame);
      ++per_time[r.time];
    }
    std::set<uint64_t> distinct(per_time.begin(), per_time.end());
    EXPECT_EQ(distinct.size(), 1u) << "timestamp histogram is not flat";
  }
}

TEST(Protocol5Test, BasicModeLeavesTimestampsInClear) {
  P5Fixture f(2);
  ClassAggregationProtocol proto(
      &f.net, f.group, f.aggregator,
      MakeConfig(ObfuscationMethod::kBasic, f.log.MaxTime() + 1));
  ASSERT_TRUE(proto.Run(f.class_logs, 25, f.group_secret.get(), "t.").ok());
  // Collect the multiset of times seen by the aggregator; in basic mode it
  // equals the multiset of real times.
  std::multiset<uint64_t> seen, real;
  for (const auto& records : proto.views().aggregator_logs) {
    for (const auto& r : records) seen.insert(r.time);
  }
  for (const auto& r : f.log.records()) real.insert(r.time);
  EXPECT_EQ(seen, real);
}

TEST(Protocol5Test, SplitOutClassPartitionsRecords) {
  ActionLog log;
  log.Add({0, 0, 1});
  log.Add({0, 1, 2});
  log.Add({1, 2, 3});
  std::vector<uint32_t> classes{0, 1, 0};
  auto [in_class, rest] = SplitOutClass(log, classes, 0);
  EXPECT_EQ(in_class.size(), 2u);
  EXPECT_EQ(rest.size(), 1u);
  uint64_t t;
  EXPECT_TRUE(rest.Lookup(0, 1, &t));
}

TEST(Protocol5Test, Validation) {
  Network net;
  PartyId agg = net.RegisterParty("A");
  PartyId p1 = net.RegisterParty("P1");
  Rng secret(1);
  // Aggregator inside the group.
  ClassAggregationProtocol bad(&net, {p1, agg}, agg,
                               MakeConfig(ObfuscationMethod::kBasic, 10));
  EXPECT_FALSE(bad.Run({ActionLog{}, ActionLog{}}, 5, &secret, "t.").ok());
  // Missing frame.
  ClassAggregationProtocol no_frame(&net, {p1}, agg,
                                    MakeConfig(ObfuscationMethod::kBasic, 0));
  EXPECT_FALSE(no_frame.Run({ActionLog{}}, 5, &secret, "t.").ok());
  // Record beyond the public frame.
  ActionLog late;
  late.Add({0, 0, 100});
  ClassAggregationProtocol overflow(&net, {p1}, agg,
                                    MakeConfig(ObfuscationMethod::kBasic, 50));
  EXPECT_FALSE(overflow.Run({late}, 5, &secret, "t.").ok());
}

TEST(Protocol5Test, CommunicationPattern) {
  P5Fixture f(3);
  ClassAggregationProtocol proto(
      &f.net, f.group, f.aggregator,
      MakeConfig(ObfuscationMethod::kBasic, f.log.MaxTime() + 1));
  ASSERT_TRUE(proto.Run(f.class_logs, 25, f.group_secret.get(), "t.").ok());
  auto report = f.net.Report();
  EXPECT_EQ(report.num_rounds, 2u);
  EXPECT_EQ(report.num_messages, 4u);  // d logs in, 1 counter bundle out.
  EXPECT_EQ(f.net.PendingCount(), 0u);
}

// A misbehaving aggregator: every frame P-hat sends is re-sealed with one
// more counter, for an obfuscated user id no injection maps to.
class OutOfRangeIdNetwork : public Network {
 public:
  OutOfRangeIdNetwork(PartyId aggregator, uint64_t h)
      : aggregator_(aggregator), h_(h) {}

 protected:
  Status Transmit(PartyId from, PartyId to,
                  std::vector<uint8_t> frame) override {
    if (from == aggregator_) {
      PSI_ASSIGN_OR_RETURN(Envelope env, OpenEnvelope(frame));
      internal::ObfuscatedCounters counters;
      PSI_RETURN_NOT_OK(internal::UnpackCounters(env.payload, h_, &counters));
      counters.a[0xFFFFFFFFu] = 1;
      frame = SealEnvelope(env.protocol_id, env.step, env.sender, env.seq,
                           internal::PackCounters(counters, h_));
    }
    return Network::Transmit(from, to, std::move(frame));
  }

 private:
  PartyId aggregator_;
  uint64_t h_;
};

TEST(Protocol5Test, OutOfRangeObfuscatedIdIsAProtocolError) {
  P5Fixture f(3);
  OutOfRangeIdNetwork net(/*aggregator=*/0, /*h=*/4);
  PartyId aggregator = net.RegisterParty("P-hat");
  std::vector<PartyId> group;
  group.reserve(3);
  for (size_t k = 0; k < 3; ++k) {
    group.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
  }
  ASSERT_EQ(aggregator, 0u);
  ClassAggregationProtocol proto(
      &net, group, aggregator,
      MakeConfig(ObfuscationMethod::kEnhanced, f.log.MaxTime() + 1));
  auto result = proto.Run(f.class_logs, 25, f.group_secret.get(), "t.");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(result.status().message().find("aggregator P-hat"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("4294967295"), std::string::npos);
  EXPECT_EQ(net.PendingCount(), 0u);
}

}  // namespace
}  // namespace psi
