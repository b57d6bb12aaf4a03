#include "net/network.h"

#include <gtest/gtest.h>

namespace psi {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = net_.RegisterParty("A");
    b_ = net_.RegisterParty("B");
    c_ = net_.RegisterParty("C");
  }
  Status Send(PartyId from, PartyId to, const std::vector<uint8_t>& payload) {
    return net_.SendFramed(from, to, ProtocolId::kSecureSum, 1, payload);
  }
  Result<std::vector<uint8_t>> Recv(PartyId to, PartyId from) {
    return net_.RecvValidated(to, from, ProtocolId::kSecureSum, 1);
  }
  Network net_;
  PartyId a_, b_, c_;
};

// A peer that puts bytes on the wire without sealing them.
class RawInjectingNetwork : public Network {
 public:
  void InjectRaw(PartyId from, PartyId to, std::vector<uint8_t> bytes) {
    Deliver(from, to, std::move(bytes));
  }
};

TEST_F(NetworkTest, RegisterAssignsSequentialIds) {
  EXPECT_EQ(a_, 0u);
  EXPECT_EQ(b_, 1u);
  EXPECT_EQ(c_, 2u);
  EXPECT_EQ(net_.num_parties(), 3u);
  EXPECT_EQ(net_.party_name(1), "B");
}

TEST_F(NetworkTest, SendRecvDeliversPayload) {
  net_.BeginRound("r1");
  ASSERT_TRUE(Send(a_, b_, {1, 2, 3}).ok());
  auto msg = Recv(b_, a_).ValueOrDie();
  EXPECT_EQ(msg, (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(NetworkTest, FifoOrderPerChannel) {
  net_.BeginRound("r1");
  ASSERT_TRUE(Send(a_, b_, {1}).ok());
  ASSERT_TRUE(Send(a_, b_, {2}).ok());
  EXPECT_EQ(Recv(b_, a_).ValueOrDie()[0], 1);
  EXPECT_EQ(Recv(b_, a_).ValueOrDie()[0], 2);
}

TEST_F(NetworkTest, ChannelsAreDirectional) {
  net_.BeginRound("r1");
  ASSERT_TRUE(Send(a_, b_, {9}).ok());
  EXPECT_FALSE(Recv(a_, b_).ok());  // Wrong direction.
  EXPECT_FALSE(Recv(b_, c_).ok());  // Wrong sender.
  EXPECT_TRUE(Recv(b_, a_).ok());
}

TEST_F(NetworkTest, RecvOnEmptyChannelFails) {
  // The lossless network keeps no retransmission store, so a frame that was
  // never sent is a clean ProtocolError once the attempts run out.
  EXPECT_EQ(Recv(b_, a_).status().code(), StatusCode::kProtocolError);
}

TEST_F(NetworkTest, SendValidations) {
  net_.BeginRound("r1");
  EXPECT_EQ(Send(a_, a_, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Send(a_, 99, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Send(99, a_, {}).code(), StatusCode::kInvalidArgument);
}

TEST_F(NetworkTest, SendBeforeRoundFails) {
  EXPECT_EQ(Send(a_, b_, {1}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(NetworkTest, MeteringCountsMessagesAndBytes) {
  net_.BeginRound("round one");
  ASSERT_TRUE(Send(a_, b_, std::vector<uint8_t>(10)).ok());
  ASSERT_TRUE(Send(b_, c_, std::vector<uint8_t>(20)).ok());
  net_.BeginRound("round two");
  ASSERT_TRUE(Send(c_, a_, std::vector<uint8_t>(5)).ok());

  auto report = net_.Report();
  EXPECT_EQ(report.num_rounds, 2u);
  EXPECT_EQ(report.num_messages, 3u);
  EXPECT_EQ(report.num_payload_bytes, 35u);
  EXPECT_EQ(report.num_bytes, 35u + 3 * kEnvelopeOverheadBytes);
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds[0].label, "round one");
  EXPECT_EQ(report.rounds[0].num_messages, 2u);
  EXPECT_EQ(report.rounds[0].num_bytes, 30u + 2 * kEnvelopeOverheadBytes);
  EXPECT_EQ(report.rounds[1].num_messages, 1u);
}

TEST_F(NetworkTest, PerPartyByteAccounting) {
  net_.BeginRound("r");
  ASSERT_TRUE(Send(a_, b_, std::vector<uint8_t>(7)).ok());
  ASSERT_TRUE(Send(a_, c_, std::vector<uint8_t>(3)).ok());
  EXPECT_EQ(net_.BytesSentBy(a_), 10u + 2 * kEnvelopeOverheadBytes);
  EXPECT_EQ(net_.BytesSentBy(b_), 0u);
}

TEST_F(NetworkTest, PendingCountAndHasPending) {
  net_.BeginRound("r");
  EXPECT_EQ(net_.PendingCount(), 0u);
  ASSERT_TRUE(Send(a_, b_, {1}).ok());
  EXPECT_TRUE(net_.HasPending(b_, a_));
  EXPECT_FALSE(net_.HasPending(a_, b_));
  EXPECT_EQ(net_.PendingCount(), 1u);
  ASSERT_TRUE(Recv(b_, a_).ok());
  EXPECT_EQ(net_.PendingCount(), 0u);
}

TEST_F(NetworkTest, ResetMeteringRequiresEmptyMailboxes) {
  net_.BeginRound("r");
  ASSERT_TRUE(Send(a_, b_, {1}).ok());
  EXPECT_EQ(net_.ResetMetering().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(Recv(b_, a_).ok());
  ASSERT_TRUE(net_.ResetMetering().ok());
  EXPECT_EQ(net_.Report().num_rounds, 0u);
  EXPECT_EQ(net_.BytesSentBy(a_), 0u);
}

TEST_F(NetworkTest, ReportRenderingContainsTotals) {
  net_.BeginRound("alpha");
  ASSERT_TRUE(Send(a_, b_, std::vector<uint8_t>(100)).ok());
  std::string s = net_.Report().ToString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
}

TEST_F(NetworkTest, RecvErrorNamesPartiesAndRound) {
  net_.BeginRound("P4.Step2 (H -> P_k: Omega_E')");
  auto r = Recv(b_, a_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("A -> B"), std::string::npos);
  EXPECT_NE(r.status().message().find("P4.Step2"), std::string::npos);
}

TEST_F(NetworkTest, RecvErrorBeforeAnyRound) {
  auto r = Recv(b_, a_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("<no round>"), std::string::npos);
}

TEST_F(NetworkTest, DrainReportsAndClearsUndelivered) {
  net_.BeginRound("r");
  ASSERT_TRUE(Send(a_, c_, std::vector<uint8_t>(4)).ok());
  ASSERT_TRUE(Send(a_, c_, std::vector<uint8_t>(9)).ok());
  ASSERT_TRUE(Send(b_, c_, std::vector<uint8_t>(2)).ok());
  ASSERT_TRUE(Send(a_, b_, std::vector<uint8_t>(1)).ok());

  // Sizes are wire sizes: payload plus the 29-byte envelope.
  std::string summary = net_.Drain(c_);
  EXPECT_NE(summary.find("2 message(s) from A"), std::string::npos);
  EXPECT_NE(summary.find("33 38 bytes"), std::string::npos);
  EXPECT_NE(summary.find("1 message(s) from B"), std::string::npos);
  // C's mailboxes are now empty, B's message is untouched.
  EXPECT_EQ(net_.PendingCount(), 1u);
  EXPECT_EQ(net_.Drain(c_), "");
  EXPECT_TRUE(net_.HasPending(b_, a_));
}

TEST_F(NetworkTest, SendFramedMetersWireAndPayloadSeparately) {
  net_.BeginRound("r");
  ASSERT_TRUE(net_.SendFramed(a_, b_, ProtocolId::kSecureSum, 1,
                              std::vector<uint8_t>(50)).ok());
  auto report = net_.Report();
  EXPECT_EQ(report.num_payload_bytes, 50u);
  EXPECT_EQ(report.num_bytes, 50u + kEnvelopeOverheadBytes);
  EXPECT_EQ(net_.BytesSentBy(a_), 50u + kEnvelopeOverheadBytes);
}

TEST_F(NetworkTest, RecvValidatedRoundtripAndSequencing) {
  net_.BeginRound("r");
  ASSERT_TRUE(net_.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {10}).ok());
  ASSERT_TRUE(net_.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {20}).ok());
  auto m1 = net_.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1).ValueOrDie();
  auto m2 = net_.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1).ValueOrDie();
  EXPECT_EQ(m1[0], 10);
  EXPECT_EQ(m2[0], 20);
}

TEST_F(NetworkTest, RecvValidatedRejectsWrongProtocolOrStep) {
  net_.BeginRound("r");
  ASSERT_TRUE(net_.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {1}).ok());
  auto r = net_.RecvValidated(b_, a_, ProtocolId::kPropagationGraph, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(r.status().message().find("SecureSum"), std::string::npos);
  EXPECT_NE(r.status().message().find("PropagationGraph"), std::string::npos);

  ASSERT_TRUE(net_.SendFramed(a_, b_, ProtocolId::kSecureSum, 2, {1}).ok());
  EXPECT_FALSE(net_.RecvValidated(b_, a_, ProtocolId::kSecureSum, 9).ok());
}

TEST_F(NetworkTest, RecvValidatedRejectsRawTraffic) {
  RawInjectingNetwork net;
  PartyId a = net.RegisterParty("A");
  PartyId b = net.RegisterParty("B");
  net.BeginRound("r");
  net.InjectRaw(a, b, {1, 2, 3});
  auto r = net.RecvValidated(b, a, ProtocolId::kSecureSum, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
}

TEST_F(NetworkTest, BaseNetworkHasNoRetransmissionStore) {
  net_.BeginRound("r");
  auto r = net_.RequestRetransmit(b_, a_, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("A -> B"), std::string::npos);
}

TEST_F(NetworkTest, ResyncChannelSkipsStaleInFlightFrames) {
  net_.BeginRound("r1");
  for (uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(net_.SendFramed(a_, b_, ProtocolId::kSecureSum, 1, {i}).ok());
  }
  ASSERT_TRUE(net_.RecvValidated(b_, a_, ProtocolId::kSecureSum, 1).ok());

  // A session resume: the receiver jumps past everything the failed attempt
  // sent; the two undelivered frames become stale duplicates.
  net_.ResyncChannel(a_, b_);
  net_.BeginRound("r2");
  ASSERT_TRUE(net_.SendFramed(a_, b_, ProtocolId::kSecureSum, 2, {42}).ok());
  auto fresh = net_.RecvValidated(b_, a_, ProtocolId::kSecureSum, 2);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.ValueOrDie()[0], 42);
  // The stale frames were discarded on the way, not misdelivered.
  EXPECT_EQ(net_.PendingCount(), 0u);
  EXPECT_EQ(net_.StashedCount(a_, b_), 0u);
}

}  // namespace
}  // namespace psi
