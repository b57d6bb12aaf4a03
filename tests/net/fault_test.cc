#include "net/fault.h"

#include <gtest/gtest.h>

namespace psi {
namespace {

FaultRule Always(FaultKind kind, uint32_t max_triggers = UINT32_MAX) {
  FaultRule rule;
  rule.kind = kind;
  rule.probability = 1.0;
  rule.max_triggers = max_triggers;
  return rule;
}

class FaultTest : public ::testing::Test {
 protected:
  void Register(Network* net) {
    a_ = net->RegisterParty("A");
    b_ = net->RegisterParty("B");
  }
  PartyId a_ = 0, b_ = 0;
};

TEST_F(FaultTest, ZeroPlanBehavesLikeLosslessNetwork) {
  FaultyNetwork net(FaultPlan::None());
  Register(&net);
  net.BeginRound("r1");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                             std::vector<uint8_t>(100)).ok());
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                             std::vector<uint8_t>(7)).ok());
  auto framed = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed.ValueOrDie().size(), 100u);
  framed = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed.ValueOrDie().size(), 7u);

  EXPECT_EQ(net.fault_stats()->injected(), 0u);
  EXPECT_EQ(net.fault_stats()->retransmits_served, 0u);
  auto report = net.Report();
  EXPECT_EQ(report.num_messages, 2u);
  EXPECT_EQ(report.num_payload_bytes, 107u);
  EXPECT_EQ(report.num_bytes, 107u + 2 * kEnvelopeOverheadBytes);
}

TEST_F(FaultTest, DroppedFrameRecoveredByRetransmission) {
  FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back(Always(FaultKind::kDrop, /*max_triggers=*/1));
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {42}).ok());
  EXPECT_FALSE(net.HasPending(b_, a_));

  auto r = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), (std::vector<uint8_t>{42}));
  EXPECT_EQ(net.fault_stats()->dropped, 1u);
  EXPECT_EQ(net.fault_stats()->retransmits_served, 1u);
}

// Counts the receive loop's waits. The simulator's waits return at once,
// but over sockets each one that finds nothing costs a receive deadline.
class WaitCountingNetwork : public FaultyNetwork {
 public:
  using FaultyNetwork::FaultyNetwork;
  int waits = 0;

 protected:
  Status WaitForPending(PartyId to, PartyId from,
                        uint64_t budget_ms) override {
    ++waits;
    return FaultyNetwork::WaitForPending(to, from, budget_ms);
  }
};

TEST_F(FaultTest, CorruptedFrameRecoveredByRetransmission) {
  FaultPlan plan;
  plan.seed = 11;
  plan.rules.push_back(Always(FaultKind::kCorrupt, /*max_triggers=*/1));
  WaitCountingNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                             std::vector<uint8_t>(64, 0xAB)).ok());
  auto r = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), std::vector<uint8_t>(64, 0xAB));
  EXPECT_EQ(net.fault_stats()->corrupted, 1u);
  EXPECT_EQ(net.fault_stats()->retransmits_served, 1u);
  // The damaged frame was consumed and nothing else is coming, so the
  // receiver asked for the pristine copy without waiting first.
  EXPECT_EQ(net.waits, 0);
}

TEST_F(FaultTest, TruncatedFrameRecoveredByRetransmission) {
  FaultPlan plan;
  plan.seed = 13;
  plan.rules.push_back(Always(FaultKind::kTruncate, /*max_triggers=*/1));
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                             std::vector<uint8_t>(64, 0xCD)).ok());
  auto r = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), std::vector<uint8_t>(64, 0xCD));
  EXPECT_EQ(net.fault_stats()->truncated, 1u);
}

TEST_F(FaultTest, DuplicateIsDeliveredOnceAndStaleCopyDiscarded) {
  FaultPlan plan;
  plan.seed = 17;
  plan.rules.push_back(Always(FaultKind::kDuplicate, /*max_triggers=*/1));
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {1}).ok());
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {2}).ok());
  EXPECT_EQ(net.PendingCount(), 3u);  // Duplicate of the first frame.

  EXPECT_EQ(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1)
                .ValueOrDie()[0], 1);
  // The second call skips the stale duplicate of seq 0 and returns seq 1.
  EXPECT_EQ(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1)
                .ValueOrDie()[0], 2);
  EXPECT_EQ(net.fault_stats()->duplicated, 1u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST_F(FaultTest, ReorderedFramesAreStashedAndResequenced) {
  FaultPlan plan;
  plan.seed = 19;
  plan.rules.push_back(Always(FaultKind::kReorder, /*max_triggers=*/2));
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");
  // Both sends jump the queue: after the second, the mailbox is [seq1, seq0].
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {1}).ok());
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {2}).ok());

  EXPECT_EQ(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1)
                .ValueOrDie()[0], 1);
  EXPECT_EQ(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1)
                .ValueOrDie()[0], 2);
  EXPECT_EQ(net.fault_stats()->reordered, 2u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST_F(FaultTest, DelayedFrameSurfacesAtNextRound) {
  FaultPlan plan;
  plan.seed = 23;
  plan.rules.push_back(Always(FaultKind::kDelay, /*max_triggers=*/1));
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {5}).ok());
  EXPECT_FALSE(net.HasPending(b_, a_));
  net.BeginRound("r2");
  EXPECT_TRUE(net.HasPending(b_, a_));
  EXPECT_EQ(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1)
                .ValueOrDie()[0], 5);
  EXPECT_EQ(net.fault_stats()->delayed, 1u);
}

TEST_F(FaultTest, PersistentDropExhaustsBoundedAttempts) {
  FaultPlan plan;
  plan.seed = 29;
  plan.rules.push_back(Always(FaultKind::kDrop));  // Unlimited budget.
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("hopeless round");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {1}).ok());

  auto r = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(r.status().message().find("giving up"), std::string::npos);
  EXPECT_NE(r.status().message().find("A -> B"), std::string::npos);
  EXPECT_NE(r.status().message().find("hopeless round"), std::string::npos);
}

TEST_F(FaultTest, CrashedPartyYieldsCleanProtocolError) {
  FaultPlan plan;
  plan.seed = 31;
  plan.crash = CrashSpec{/*party=*/0, /*after_round=*/0};
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");  // Round index 0: A still alive.
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {1}).ok());
  ASSERT_TRUE(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1).ok());

  net.BeginRound("r2");  // Round index 1 > after_round: A is gone.
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {2}).ok());
  auto r = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(r.status().message().find("crashed"), std::string::npos);
  EXPECT_GE(net.fault_stats()->crash_dropped, 1u);
  EXPECT_GE(net.fault_stats()->retransmits_refused, 1u);
}

TEST_F(FaultTest, RetransmitRefusedForUnknownSequence) {
  FaultyNetwork net(FaultPlan::None());
  Register(&net);
  net.BeginRound("r1");
  auto r = net.RequestRetransmit(b_, a_, /*seq=*/99);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("seq 99"), std::string::npos);
  EXPECT_EQ(net.fault_stats()->retransmits_refused, 1u);
}

TEST_F(FaultTest, RetransmissionsAreMetered) {
  FaultPlan plan;
  plan.seed = 37;
  plan.rules.push_back(Always(FaultKind::kDrop, /*max_triggers=*/1));
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r1");
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                             std::vector<uint8_t>(10)).ok());
  ASSERT_TRUE(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1).ok());
  // Original send plus one retransmission, both at wire size.
  auto report = net.Report();
  EXPECT_EQ(report.num_messages, 2u);
  EXPECT_EQ(report.num_bytes, 2u * (10u + kEnvelopeOverheadBytes));
  EXPECT_EQ(report.num_payload_bytes, 20u);
}

TEST_F(FaultTest, RetransmissionStoreStaysBoundedAndServesFramesInFlight) {
  // The plan stays idle through the round trips and drops one frame in the
  // round after them.
  constexpr uint8_t kSessions = 200;
  FaultPlan plan;
  FaultRule drop = Always(FaultKind::kDrop, /*max_triggers=*/1);
  drop.round_min = kSessions;
  plan.rules.push_back(drop);
  FaultyNetwork net(plan);
  Register(&net);

  // Many sessions' worth of round trips in both directions: each send
  // prunes the frames its channel already accepted, so the store holds at
  // most the latest frame per channel instead of every frame ever sent.
  for (uint8_t session = 0; session < kSessions; ++session) {
    net.BeginRound("session");
    ASSERT_TRUE(
        net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {session}).ok());
    ASSERT_TRUE(net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1).ok());
    ASSERT_TRUE(
        net.SendFramed(b_, a_, ProtocolId::kSecureSum, 2, {session}).ok());
    ASSERT_TRUE(net.RecvValidated(a_, b_, ProtocolId::kSecureSum, 2).ok());
  }
  EXPECT_LE(net.SentLogFrames(), 2u);

  // A frame lost before it was accepted is still served, even after a
  // later send on its channel pruned the store: the first of two frames is
  // dropped, so RecvValidated stashes the second and asks for the first.
  net.BeginRound("lost");
  const std::vector<uint8_t> first = {7, 7, 7};
  const std::vector<uint8_t> second = {8};
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 3, first).ok());
  ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 3, second).ok());
  EXPECT_EQ(net.fault_stats()->dropped, 1u);
  auto got = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 3);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.ValueOrDie(), first);
  got = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 3);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.ValueOrDie(), second);
  EXPECT_EQ(net.fault_stats()->retransmits_served, 1u);
  EXPECT_EQ(net.Report().rounds.back().num_messages, 3u);  // Two + a resend.
  EXPECT_LE(net.SentLogFrames(), 3u);
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST_F(FaultTest, SameSeedSameSchedule) {
  auto run = [this](uint64_t seed) {
    FaultyNetwork net(FaultPlan::RandomPlan(seed, 2));
    Register(&net);
    net.BeginRound("r1");
    std::vector<bool> outcomes;
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                                 {static_cast<uint8_t>(i)}).ok());
      outcomes.push_back(
          net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1).ok());
    }
    return std::make_pair(outcomes, net.fault_stats()->injected());
  };
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto first = run(seed);
    auto second = run(seed);
    EXPECT_EQ(first.first, second.first) << "seed=" << seed;
    EXPECT_EQ(first.second, second.second) << "seed=" << seed;
  }
}

TEST_F(FaultTest, RandomPlanIsDeterministicAndBounded) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FaultPlan p1 = FaultPlan::RandomPlan(seed, 4);
    FaultPlan p2 = FaultPlan::RandomPlan(seed, 4);
    ASSERT_EQ(p1.rules.size(), p2.rules.size());
    EXPECT_GE(p1.rules.size(), 1u);
    EXPECT_LE(p1.rules.size(), 3u);
    for (size_t i = 0; i < p1.rules.size(); ++i) {
      EXPECT_EQ(p1.rules[i].kind, p2.rules[i].kind);
      EXPECT_EQ(p1.rules[i].probability, p2.rules[i].probability);
    }
    EXPECT_EQ(p1.crash.has_value(), p2.crash.has_value());
    if (p1.crash.has_value()) {
      // The host (party 0) is never crashed.
      EXPECT_GE(p1.crash->party, 1u);
    }
  }
}

TEST_F(FaultTest, FaultKindNames) {
  EXPECT_STREQ(FaultKindToString(FaultKind::kDrop), "drop");
  EXPECT_STREQ(FaultKindToString(FaultKind::kDelay), "delay");
}

TEST_F(FaultTest, EarlyFrameStashIsBounded) {
  // A lost first frame turns every later frame on the channel into an
  // "early" one. The receiver stashes a bounded number, then refuses to
  // buffer more with a clean error instead of growing without limit.
  FaultPlan plan;
  FaultRule drop_first = Always(FaultKind::kDrop, /*max_triggers=*/1);
  plan.rules.push_back(drop_first);
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("flood");
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(net.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                               std::vector<uint8_t>(4)).ok());
  }
  RecvOptions opts;
  opts.max_attempts = 200;
  // First call fills the stash to the cap and gives up on seq 0.
  auto first = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1, opts);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(net.StashedCount(a_, b_), kMaxStashedFramesPerChannel);
  // The next early frame hits the cap: a clean refusal, not more buffering.
  auto second = net.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1, opts);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(second.status().message().find("stash overflow"),
            std::string::npos);
  EXPECT_EQ(net.StashedCount(a_, b_), kMaxStashedFramesPerChannel);
  // A resume repairs the channel: stash dropped, stale frames discarded.
  net.ResyncChannel(a_, b_);
  EXPECT_EQ(net.StashedCount(a_, b_), 0u);
  (void)net.DrainAll();
  EXPECT_EQ(net.PendingCount(), 0u);
}

TEST_F(FaultTest, CrashRestartWindowSilencesOnlyItsRounds) {
  FaultPlan plan;
  plan.crash = CrashSpec{/*party=*/1, /*after_round=*/0, /*restart_round=*/2};
  FaultyNetwork net(plan);
  Register(&net);

  auto send = [&](uint8_t value) {
    return net.SendFramed(b_, a_, ProtocolId::kSecureSum, 1, {value});
  };
  auto recv = [&]() {
    return net.RecvValidated(a_, b_, ProtocolId::kSecureSum, 1);
  };

  net.BeginRound("r0");  // Round index 0: before the window, b is up.
  ASSERT_TRUE(send(1).ok());
  EXPECT_TRUE(recv().ok());

  net.BeginRound("r1");  // Round index 1: inside (0, 2), b is down.
  ASSERT_TRUE(send(2).ok());
  EXPECT_FALSE(net.HasPending(a_, b_));
  EXPECT_EQ(net.fault_stats()->crash_dropped, 1u);
  // The crashed party cannot serve its lost frame either.
  EXPECT_FALSE(recv().ok());

  net.BeginRound("r2");  // Round index 2: restarted, b is up again.
  net.ResyncChannel(b_, a_);  // A resume skips what the crash swallowed.
  ASSERT_TRUE(send(3).ok());
  auto msg = recv();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.ValueOrDie()[0], 3);
}

TEST_F(FaultTest, FramesSentWhileCrashedAreNeverServedAfterRestart) {
  FaultPlan plan;
  plan.crash = CrashSpec{/*party=*/1, /*after_round=*/0, /*restart_round=*/2};
  FaultyNetwork net(plan);
  Register(&net);
  net.BeginRound("r0");
  ASSERT_TRUE(net.SendFramed(b_, a_, ProtocolId::kSecureSum, 1, {1}).ok());
  ASSERT_TRUE(net.RecvValidated(a_, b_, ProtocolId::kSecureSum, 1).ok());
  net.BeginRound("r1");  // b is down: its frame is lost, not stored.
  ASSERT_TRUE(net.SendFramed(b_, a_, ProtocolId::kSecureSum, 1, {2}).ok());

  net.BeginRound("r2");  // b is back, but the lost frame stays lost.
  auto r = net.RequestRetransmit(a_, b_, /*seq=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("no frame with seq 1"),
            std::string::npos)
      << r.status().message();
  EXPECT_EQ(net.fault_stats()->retransmits_refused, 1u);
  EXPECT_EQ(net.fault_stats()->retransmits_served, 0u);
}

TEST_F(FaultTest, RandomRestartPlanIsDeterministicAndAlwaysRestarts) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FaultPlan p1 = FaultPlan::RandomRestartPlan(seed, 4);
    FaultPlan p2 = FaultPlan::RandomRestartPlan(seed, 4);
    ASSERT_TRUE(p1.crash.has_value());
    ASSERT_TRUE(p2.crash.has_value());
    EXPECT_EQ(p1.crash->party, p2.crash->party);
    EXPECT_EQ(p1.crash->after_round, p2.crash->after_round);
    EXPECT_EQ(p1.crash->restart_round, p2.crash->restart_round);
    // Never the host, always a finite restart: every schedule is
    // recoverable in principle, which is what the session sweeps rely on.
    EXPECT_GE(p1.crash->party, 1u);
    EXPECT_LT(p1.crash->restart_round, UINT64_MAX);
    EXPECT_GT(p1.crash->restart_round, p1.crash->after_round + 1);
    EXPECT_LE(p1.rules.size(), 2u);
  }
}

}  // namespace
}  // namespace psi
