#include "mpc/secure_sum.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <tuple>

#include "bigint/modular.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "crypto/permutation.h"
#include "net/envelope.h"
#include "privacy/leakage.h"

namespace psi {
namespace {

// Test harness: m providers + a host acting as third party for m == 2.
struct SumFixture {
  explicit SumFixture(size_t m) {
    host = net.RegisterParty("H");
    for (size_t k = 0; k < m; ++k) {
      providers.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rngs.push_back(std::make_unique<Rng>(1000 + k));
    }
    pair_secret = std::make_unique<Rng>(555);
  }

  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rngs) out.push_back(r.get());
    return out;
  }

  PartyId ThirdParty() const {
    return providers.size() > 2 ? providers[2] : host;
  }

  Network net;
  PartyId host;
  std::vector<PartyId> providers;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::unique_ptr<Rng> pair_secret;
};

SecureSumConfig MakeConfig(uint64_t bound, size_t s_bits) {
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(bound);
  cfg.modulus_s = BigUInt::PowerOfTwo(s_bits);
  return cfg;
}

TEST(SecureSumTest, Protocol1SharesReconstructModS) {
  SumFixture f(4);
  auto cfg = MakeConfig(1000, 64);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs{
      {10, 0, 999}, {20, 0, 0}, {30, 0, 1}, {40, 0, 0}};
  auto shares =
      proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ValueOrDie();
  const BigUInt& s = cfg.modulus_s;
  std::vector<uint64_t> expected{100, 0, 1000};
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(ModAdd(shares.s1[c] % s, shares.s2[c] % s, s),
              BigUInt(expected[c]));
  }
}

TEST(SecureSumTest, Protocol1MessageCountMatchesTable1Rows) {
  for (size_t m : {2u, 3u, 5u}) {
    SumFixture f(m);
    SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                            MakeConfig(10, 64));
    std::vector<std::vector<uint64_t>> inputs(m, std::vector<uint64_t>{1, 2});
    ASSERT_TRUE(proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ok());
    auto report = f.net.Report();
    ASSERT_EQ(report.rounds.size(), 2u);
    EXPECT_EQ(report.rounds[0].num_messages, m * (m - 1));
    EXPECT_EQ(report.rounds[1].num_messages, m - 2);
  }
}

TEST(SecureSumTest, Protocol2IntegerSharesReconstructExactly) {
  for (size_t m : {2u, 3u, 6u}) {
    SumFixture f(m);
    SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                            MakeConfig(100000, 128));
    Rng input_rng(m);
    std::vector<std::vector<uint64_t>> inputs(
        m, std::vector<uint64_t>(50));
    std::vector<uint64_t> expected(50, 0);
    for (size_t c = 0; c < 50; ++c) {
      for (size_t k = 0; k < m; ++k) {
        inputs[k][c] = input_rng.UniformU64(100000 / m);
        expected[c] += inputs[k][c];
      }
    }
    auto shares = proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                     "t.")
                      .ValueOrDie();
    for (size_t c = 0; c < 50; ++c) {
      EXPECT_EQ(shares.At(c).Reconstruct(), BigInt(BigUInt(expected[c])))
          << "m=" << m << " c=" << c;
    }
    EXPECT_EQ(f.net.PendingCount(), 0u);
  }
}

TEST(SecureSumTest, Protocol2HandlesZeroAndBoundValues) {
  SumFixture f(3);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(100, 80));
  std::vector<std::vector<uint64_t>> inputs{{0, 100, 1}, {0, 0, 0}, {0, 0, 0}};
  auto shares =
      proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(), "t.")
          .ValueOrDie();
  EXPECT_EQ(shares.At(0).Reconstruct(), BigInt(0));
  EXPECT_EQ(shares.At(1).Reconstruct(), BigInt(100));
  EXPECT_EQ(shares.At(2).Reconstruct(), BigInt(1));
}

TEST(SecureSumTest, Protocol2CorrectionBranchExercised) {
  // s1 is uniform on Z_S, so the no-correction branch (s1 <= x) happens with
  // probability (x+1)/S. With S = 64 and x around 5-9 both branches appear
  // across 400 counters; with S huge, corrections dominate. Reconstruction
  // must be exact either way.
  SumFixture f(2);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(10, 6));  // S = 64 > 4A.
  std::vector<std::vector<uint64_t>> inputs(2, std::vector<uint64_t>(400, 0));
  for (size_t c = 0; c < 400; ++c) {
    inputs[0][c] = c % 5;
    inputs[1][c] = c % 6;
  }
  auto shares =
      proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(), "t.")
          .ValueOrDie();
  size_t corrections = 0;
  for (size_t c = 0; c < 400; ++c) {
    EXPECT_EQ(shares.At(c).Reconstruct(),
              BigInt(BigUInt(inputs[0][c] + inputs[1][c])));
    if (proto.views().p2_correction[c]) ++corrections;
  }
  // Expected corrections ~ 400 * (1 - (x+1)/64) ~ 360.
  EXPECT_GT(corrections, 300u);
  EXPECT_LT(corrections, 399u);
}

TEST(SecureSumTest, P1ShareIsUniformlyDistributed) {
  // Theorem: s1 is uniform on Z_S regardless of the inputs. Use a tiny S
  // and chi-square the observed s1 values.
  const uint64_t s_small = 64;
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(4);
  cfg.modulus_s = BigUInt(s_small);
  std::vector<uint64_t> counts(s_small, 0);
  SumFixture f(3);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs(3,
                                            std::vector<uint64_t>(2000, 1));
  inputs[2].assign(2000, 2);
  auto shares = proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ValueOrDie();
  for (const auto& s1 : shares.s1) {
    ++counts[s1.ToUint64().ValueOrDie()];
  }
  // 63 dof: 99.99th percentile ~ 120.
  double chi2 = ChiSquaredUniform(counts);
  EXPECT_LT(chi2, 125.0);
}

TEST(SecureSumTest, ViewsRecordThirdPartyObservations) {
  SumFixture f(2);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(50, 64));
  std::vector<std::vector<uint64_t>> inputs{{7, 13}, {11, 17}};
  ASSERT_TRUE(proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                 "t.")
                  .ok());
  const auto& v = proto.views();
  EXPECT_EQ(v.third_party_s1.size(), 2u);
  EXPECT_EQ(v.third_party_masked_s2.size(), 2u);
  EXPECT_EQ(v.comparison_bits.size(), 2u);
  EXPECT_EQ(v.p2_correction.size(), 2u);
}

TEST(SecureSumTest, SecretPermutationShufflesThirdPartyOrder) {
  // With distinctive per-counter sums and the permutation on, the third
  // party's comparison-bit pattern should not align with counter order.
  // We verify the permutation is applied by checking reconstruction remains
  // correct while the transmitted s1 differ from the held s1 in order.
  SumFixture f(2);
  SecureSumConfig cfg = MakeConfig(1000, 64);
  cfg.use_secret_permutation = true;
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs(
      2, std::vector<uint64_t>(64));
  for (size_t c = 0; c < 64; ++c) {
    inputs[0][c] = c;
    inputs[1][c] = c;
  }
  auto shares = proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                   "t.")
                    .ValueOrDie();
  for (size_t c = 0; c < 64; ++c) {
    ASSERT_EQ(shares.At(c).Reconstruct(), BigInt(BigUInt(2 * c)));
  }
  size_t same_position = 0;
  for (size_t c = 0; c < 64; ++c) {
    if (proto.views().third_party_s1.Value(c) == shares.s1[c]) ++same_position;
  }
  EXPECT_LT(same_position, 16u);  // A permutation fixes ~1 point on average.
}

TEST(SecureSumTest, EmpiricalLeakageWithinTheorem41Bounds) {
  // Run Protocol 2 many times with x = 5, A = 10, S = 256 and compare the
  // frequencies at which P2/P3 learn a bound with the closed-form rates.
  const uint64_t x = 5, bound = 10, s_val = 256;
  size_t p2_lower = 0, p2_upper = 0, p3_leaks = 0;
  const size_t kTrials = 4000;
  SumFixture f(2);
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(bound);
  cfg.modulus_s = BigUInt(s_val);
  cfg.use_secret_permutation = false;
  for (size_t t = 0; t < kTrials; ++t) {
    SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
    std::vector<std::vector<uint64_t>> inputs{{2}, {3}};
    auto shares =
        proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(), "t.")
            .ValueOrDie();
    const auto& v = proto.views();
    // Reconstruct s2 before correction to classify P2's observation.
    BigUInt s2_pre = v.p2_correction[0]
                         ? (shares.s2[0] + BigInt(BigUInt(s_val))).magnitude()
                         : shares.s2[0].magnitude();
    LeakKind p2 = ClassifyP2Observation(s2_pre, v.p2_correction[0],
                                        BigUInt(bound));
    p2_lower += p2 == LeakKind::kLowerBound;
    p2_upper += p2 == LeakKind::kUpperBound;
    // P3 observed y = s1 + s2 + r; z = x + r = y mod S... y or y - S.
    BigUInt y = v.third_party_s1.Value(0) + v.third_party_masked_s2.Value(0);
    BigUInt z = (y >= BigUInt(s_val)) ? y - BigUInt(s_val) : y;
    LeakKind p3 = ClassifyP3Observation(z, BigUInt(bound), BigUInt(s_val));
    p3_leaks += p3 != LeakKind::kNothing;
  }
  auto probs =
      ComputeLeakageProbabilities(x, BigUInt(bound), BigUInt(s_val))
          .ValueOrDie();
  double p2_lower_rate = static_cast<double>(p2_lower) / kTrials;
  double p2_upper_rate = static_cast<double>(p2_upper) / kTrials;
  double p3_rate = static_cast<double>(p3_leaks) / kTrials;
  // Theorem rates: p2_lower = 5/256 ~ 0.0195, p2_upper = 5/256.
  EXPECT_NEAR(p2_lower_rate, probs.p2_lower, 0.01);
  EXPECT_NEAR(p2_upper_rate, probs.p2_upper, 0.01);
  EXPECT_LE(p3_rate, probs.p3_lower_max + probs.p3_upper_max + 0.01);
}

TEST(SecureSumTest, InputValidation) {
  SumFixture f(3);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(),
                          MakeConfig(10, 64));
  std::vector<std::vector<uint64_t>> ragged{{1, 2}, {3}, {4, 5}};
  EXPECT_FALSE(proto.RunProtocol1(ragged, f.RngPtrs(), "t.").ok());
  std::vector<std::vector<uint64_t>> too_big{{9}, {9}, {9}};  // Sum 27 > 10.
  EXPECT_FALSE(proto.RunProtocol1(too_big, f.RngPtrs(), "t.").ok());
  // Third party must not be P1 or P2.
  SecureSumProtocol bad(&f.net, f.providers, f.providers[0],
                        MakeConfig(10, 64));
  std::vector<std::vector<uint64_t>> inputs(3, std::vector<uint64_t>{1});
  EXPECT_FALSE(bad.RunProtocol1(inputs, f.RngPtrs(), "t.").ok());
  // Modulus must dwarf the bound.
  SecureSumConfig tiny;
  tiny.input_bound_a = BigUInt(100);
  tiny.modulus_s = BigUInt(128);
  SecureSumProtocol tiny_proto(&f.net, f.providers, f.ThirdParty(), tiny);
  EXPECT_FALSE(tiny_proto.RunProtocol1(inputs, f.RngPtrs(), "t.").ok());
}

TEST(SecureSumTest, RecommendedModulusSatisfiesGuidance) {
  BigUInt a(1000);
  BigUInt s = RecommendedModulus(a, 5000, 40);
  // S >= A(1 + 2 * 5000 * 2^40).
  BigUInt target = a * (BigUInt(1) + (BigUInt(2) * BigUInt(5000) << 40));
  EXPECT_GE(s, target);
  // Power of two.
  EXPECT_EQ(s, BigUInt::PowerOfTwo(s.BitLength() - 1));
}

TEST(SecureSumTest, LargeModulusMultiLimbShares) {
  // Hundreds-of-bits S exercises the BigUInt share paths end to end.
  SumFixture f(3);
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(1u << 20);
  cfg.modulus_s = BigUInt::PowerOfTwo(300);
  SecureSumProtocol proto(&f.net, f.providers, f.ThirdParty(), cfg);
  std::vector<std::vector<uint64_t>> inputs{{123456}, {654321}, {111111}};
  auto shares = proto.RunProtocol2(inputs, f.RngPtrs(), f.pair_secret.get(),
                                   "t.")
                    .ValueOrDie();
  EXPECT_EQ(shares.At(0).Reconstruct(), BigInt(BigUInt(888888)));
  EXPECT_GT(shares.s1[0].BitLength(), 200u);  // Shares really are huge.
}

// Rewrites the first secure-sum frame of `step` that `from` sends: its first
// share becomes `value`. The envelope is re-sealed, so only the share checks
// can object.
class ShareTamperNetwork : public Network {
 public:
  uint16_t step = 0;
  PartyId from = 0;
  BigUInt value;

 protected:
  Status Transmit(PartyId sender, PartyId to,
                  std::vector<uint8_t> frame) override {
    auto env = OpenEnvelope(frame);
    if (!done_ && sender == from && env.ok() &&
        env->protocol_id == ProtocolId::kSecureSum && env->step == step) {
      BinaryReader r(env->payload);
      uint64_t count = 0;
      BigUInt first;
      EXPECT_TRUE(r.ReadVarU64(&count).ok());
      EXPECT_TRUE(ReadBigUInt(&r, &first).ok());
      BinaryWriter w;
      w.WriteVarU64(count);
      WriteBigUInt(&w, value);
      w.WriteRaw(env->payload.data() + (env->payload.size() - r.remaining()),
                 r.remaining());
      frame = SealEnvelope(env->protocol_id, env->step, env->sender, env->seq,
                           w.TakeBuffer());
      done_ = true;
    }
    return Network::Transmit(sender, to, std::move(frame));
  }

 private:
  bool done_ = false;
};

// One m = 3 Protocol 2 run (S = 2^40, A = 1000) with the first share of the
// first (step, from-player) frame replaced by `value`.
Status RunWithTamperedShare(uint16_t step, size_t from_player,
                            const BigUInt& value) {
  ShareTamperNetwork net;
  net.RegisterParty("H");
  std::vector<PartyId> providers{net.RegisterParty("P1"),
                                 net.RegisterParty("P2"),
                                 net.RegisterParty("P3")};
  net.step = step;
  net.from = providers[from_player];
  net.value = value;
  Rng r1(1), r2(2), r3(3), secret(4);
  SecureSumProtocol proto(&net, providers, providers[2],
                          MakeConfig(1000, 40));
  std::vector<std::vector<uint64_t>> inputs(3, std::vector<uint64_t>{5, 9});
  Status st = proto.RunProtocol2(inputs, {&r1, &r2, &r3}, &secret, "t.")
                  .status();
  EXPECT_EQ(net.PendingCount(), 0u);
  return st;
}

void ExpectShareRejected(const Status& st, const std::string& what) {
  EXPECT_EQ(st.code(), StatusCode::kProtocolError) << st.ToString();
  EXPECT_NE(st.message().find(what), std::string::npos) << st.ToString();
}

TEST(SecureSumTest, RejectsPairwiseShareAtOrAboveModulus) {
  const BigUInt s = BigUInt::PowerOfTwo(40);
  ExpectShareRejected(RunWithTamperedShare(2, 0, s),
                      "Prot1.Step3 share[0] >= S");
  // A value too wide for the one-limb shares of S = 2^40.
  ExpectShareRejected(RunWithTamperedShare(2, 0, BigUInt::PowerOfTwo(70)),
                      "Prot1.Step3 share[0] wider than 1 limbs");
  // S - 1 is a valid (if wrong) share: the run completes.
  EXPECT_TRUE(RunWithTamperedShare(2, 0, s - BigUInt(1)).ok());
}

TEST(SecureSumTest, RejectsFoldedShareAtOrAboveModulus) {
  ExpectShareRejected(RunWithTamperedShare(4, 2, BigUInt::PowerOfTwo(40)),
                      "Prot1.Steps4-5 folded share[0] >= S");
}

TEST(SecureSumTest, ThirdPartyRejectsOutOfRangeShares) {
  const BigUInt s = BigUInt::PowerOfTwo(40);
  const BigUInt masked_bound = BigUInt(2) * s - BigUInt(1000);
  ExpectShareRejected(RunWithTamperedShare(3, 0, s),
                      "Prot2.Step5 s1[0] >= S");
  ExpectShareRejected(RunWithTamperedShare(3, 1, masked_bound),
                      "Prot2.Step5 masked share[0] >= 2S - A");
  EXPECT_TRUE(
      RunWithTamperedShare(3, 1, masked_bound - BigUInt(1)).ok());
}

// -- Differential test against a BigUInt reference -------------------------
//
// ReferenceProtocol2 is Protocols 1-2 with one heap BigUInt per share. It and
// SecureSumProtocol's flat-limb path run from the same seeds; their frames,
// metering, outputs and recorded views must agree exactly, for share widths
// of one, two and three limbs and for power-of-two and odd moduli.

// Records every transmitted frame (envelope bytes included) in order.
class RecordingNetwork : public Network {
 public:
  struct Frame {
    PartyId from;
    PartyId to;
    std::vector<uint8_t> bytes;
    bool operator==(const Frame& o) const {
      return std::tie(from, to, bytes) == std::tie(o.from, o.to, o.bytes);
    }
  };

  const std::vector<Frame>& frames() const { return frames_; }

 protected:
  Status Transmit(PartyId from, PartyId to,
                  std::vector<uint8_t> frame) override {
    frames_.push_back(Frame{from, to, frame});
    return Network::Transmit(from, to, std::move(frame));
  }

 private:
  std::vector<Frame> frames_;
};

// -- The reference: Protocols 1-2 with one BigUInt per share ---------------

std::vector<uint8_t> RefPack(const std::vector<BigUInt>& shares) {
  BinaryWriter w;
  w.WriteVarU64(shares.size());
  for (const auto& s : shares) WriteBigUInt(&w, s);
  return w.TakeBuffer();
}

std::vector<BigUInt> RefUnpack(const std::vector<uint8_t>& buf) {
  BinaryReader r(buf);
  uint64_t count = 0;
  EXPECT_TRUE(r.ReadCount(&count).ok());
  std::vector<BigUInt> out(count);
  for (auto& s : out) EXPECT_TRUE(ReadBigUInt(&r, &s).ok());
  EXPECT_TRUE(r.AtEnd());
  return out;
}

std::vector<uint8_t> RefPackBits(const std::vector<bool>& bits) {
  BinaryWriter w;
  w.WriteVarU64(bits.size());
  uint8_t acc = 0;
  size_t filled = 0;
  for (bool b : bits) {
    acc = static_cast<uint8_t>(acc | ((b ? 1 : 0) << filled));
    if (++filled == 8) {
      w.WriteU8(acc);
      acc = 0;
      filled = 0;
    }
  }
  if (filled != 0) w.WriteU8(acc);
  return w.TakeBuffer();
}

std::vector<uint8_t> Recv(Network* net, PartyId to, PartyId from,
                          uint16_t step) {
  return net->RecvValidated(to, from, ProtocolId::kSecureSum, step)
      .ValueOrDie();
}

struct ReferenceRun {
  BatchedIntegerShares shares;
  std::vector<std::vector<BigUInt>> player_share_vectors;
  std::vector<BigUInt> third_party_s1;
  std::vector<BigUInt> third_party_masked_s2;
  std::vector<bool> comparison_bits;
  std::vector<bool> p2_correction;
};

ReferenceRun ReferenceProtocol2(
    Network* net, const std::vector<PartyId>& players, PartyId third_party,
    const SecureSumConfig& cfg,
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<Rng*>& rngs, Rng* pair_secret,
    const std::string& label) {
  const size_t m = players.size();
  const size_t count = inputs[0].size();
  const BigUInt& s = cfg.modulus_s;
  ReferenceRun run;

  // Protocol 1, step 1: split each input into m summands mod S.
  std::vector<std::vector<std::vector<BigUInt>>> outgoing(
      m, std::vector<std::vector<BigUInt>>(m, std::vector<BigUInt>(count)));
  for (size_t k = 0; k < m; ++k) {
    for (size_t c = 0; c < count; ++c) {
      BigUInt acc;
      for (size_t j = 1; j < m; ++j) {
        BigUInt share = BigUInt::RandomBelow(rngs[k], s);
        acc = ModAdd(acc, share, s);
        outgoing[k][j][c] = std::move(share);
      }
      outgoing[k][0][c] = ModSub(BigUInt(inputs[k][c]) % s, acc, s);
    }
  }
  // Steps 2-3: pairwise exchange and local sums.
  net->BeginRound(label + "Prot1.Step2 (pairwise shares)");
  for (size_t k = 0; k < m; ++k) {
    for (size_t j = 0; j < m; ++j) {
      if (j == k) continue;
      EXPECT_TRUE(net->SendFramed(players[k], players[j],
                                  ProtocolId::kSecureSum, 2,
                                  RefPack(outgoing[k][j]))
                      .ok());
    }
  }
  std::vector<std::vector<BigUInt>> sums(m);
  for (size_t j = 0; j < m; ++j) {
    sums[j] = outgoing[j][j];
    for (size_t k = 0; k < m; ++k) {
      if (k == j) continue;
      std::vector<BigUInt> received =
          RefUnpack(Recv(net, players[j], players[k], 2));
      for (size_t c = 0; c < count; ++c) {
        sums[j][c] = ModAdd(sums[j][c], received[c], s);
      }
    }
  }
  run.player_share_vectors = sums;
  // Steps 4-5: fold into P2.
  net->BeginRound(label + "Prot1.Step4 (fold into P2)");
  for (size_t j = 2; j < m; ++j) {
    EXPECT_TRUE(net->SendFramed(players[j], players[1],
                                ProtocolId::kSecureSum, 4, RefPack(sums[j]))
                    .ok());
  }
  for (size_t j = 2; j < m; ++j) {
    std::vector<BigUInt> received =
        RefUnpack(Recv(net, players[1], players[j], 4));
    for (size_t c = 0; c < count; ++c) {
      sums[1][c] = ModAdd(sums[1][c], received[c], s);
    }
  }

  // Protocol 2: masks, permutation, comparison, correction.
  std::vector<BigUInt> masks(count);
  for (auto& r : masks) {
    r = BigUInt::RandomBelow(rngs[1], s - cfg.input_bound_a);
  }
  std::vector<size_t> identity(count);
  for (size_t i = 0; i < count; ++i) identity[i] = i;
  SecretPermutation perm =
      cfg.use_secret_permutation
          ? SecretPermutation::Random(pair_secret, count)
          : SecretPermutation::FromMapping(identity).ValueOrDie();
  std::vector<BigUInt> sent_s1(count), sent_masked(count);
  for (size_t c = 0; c < count; ++c) {
    sent_s1[perm.Apply(c)] = sums[0][c];
    sent_masked[perm.Apply(c)] = sums[1][c] + masks[c];
  }
  net->BeginRound(label + "Prot2.Steps3-4 (to third party)");
  EXPECT_TRUE(net->SendFramed(players[0], third_party, ProtocolId::kSecureSum,
                              3, RefPack(sent_s1))
                  .ok());
  EXPECT_TRUE(net->SendFramed(players[1], third_party, ProtocolId::kSecureSum,
                              3, RefPack(sent_masked))
                  .ok());
  run.third_party_s1 = RefUnpack(Recv(net, third_party, players[0], 3));
  run.third_party_masked_s2 = RefUnpack(Recv(net, third_party, players[1], 3));
  for (size_t c = 0; c < count; ++c) {
    run.comparison_bits.push_back(
        run.third_party_s1[c] + run.third_party_masked_s2[c] >= s);
  }
  net->BeginRound(label + "Prot2.Step6 (comparison bits)");
  EXPECT_TRUE(net->SendFramed(third_party, players[1], ProtocolId::kSecureSum,
                              6, RefPackBits(run.comparison_bits))
                  .ok());
  Recv(net, players[1], third_party, 6);
  run.shares.s1 = sums[0];
  for (size_t c = 0; c < count; ++c) {
    const bool correct = run.comparison_bits[perm.Apply(c)];
    run.p2_correction.push_back(correct);
    BigInt s2(sums[1][c]);
    if (correct) s2 -= BigInt(s);
    run.shares.s2.push_back(std::move(s2));
  }
  return run;
}

// -- The comparison ---------------------------------------------------------

struct Players {
  explicit Players(Network* net, size_t m) {
    host = net->RegisterParty("H");
    for (size_t k = 0; k < m; ++k) {
      ids.push_back(net->RegisterParty("P" + std::to_string(k + 1)));
    }
  }
  PartyId ThirdParty() const { return ids.size() > 2 ? ids[2] : host; }

  PartyId host;
  std::vector<PartyId> ids;
};

void ExpectSameValues(const ShareVector& flat,
                      const std::vector<BigUInt>& reference) {
  ASSERT_EQ(flat.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(flat.Value(i), reference[i]) << "value " << i;
  }
}

void CompareWithReference(const BigUInt& s, size_t m, bool permute,
                          size_t count) {
  SCOPED_TRACE("S=" + s.ToDecimalString() + " m=" + std::to_string(m) +
               " permute=" + std::to_string(permute) +
               " count=" + std::to_string(count));
  SecureSumConfig cfg;
  cfg.modulus_s = s;
  cfg.input_bound_a = BigUInt(100);
  cfg.use_secret_permutation = permute;
  Rng input_rng(count * 31 + m);
  std::vector<std::vector<uint64_t>> inputs(m, std::vector<uint64_t>(count));
  for (auto& v : inputs) {
    for (auto& x : v) x = input_rng.UniformU64(100 / m + 1);
  }

  auto run_seeded = [&](auto&& body) {
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<Rng*> ptrs;
    for (size_t k = 0; k < m; ++k) {
      rngs.push_back(std::make_unique<Rng>(700 + k));
      ptrs.push_back(rngs.back().get());
    }
    Rng pair_secret(99);
    body(ptrs, &pair_secret);
  };

  RecordingNetwork ref_net;
  Players ref_players(&ref_net, m);
  ReferenceRun ref;
  run_seeded([&](const std::vector<Rng*>& rngs, Rng* secret) {
    ref = ReferenceProtocol2(&ref_net, ref_players.ids,
                             ref_players.ThirdParty(), cfg, inputs, rngs,
                             secret, "d.");
  });

  RecordingNetwork net;
  Players players(&net, m);
  SecureSumProtocol proto(&net, players.ids, players.ThirdParty(), cfg);
  BatchedIntegerShares shares;
  run_seeded([&](const std::vector<Rng*>& rngs, Rng* secret) {
    shares = proto.RunProtocol2(inputs, rngs, secret, "d.").ValueOrDie();
  });

  ASSERT_EQ(net.frames().size(), ref_net.frames().size());
  for (size_t i = 0; i < net.frames().size(); ++i) {
    ASSERT_EQ(net.frames()[i], ref_net.frames()[i]) << "frame " << i;
  }
  EXPECT_EQ(net.Report().ToString(), ref_net.Report().ToString());
  EXPECT_EQ(shares.s1, ref.shares.s1);
  EXPECT_EQ(shares.s2, ref.shares.s2);

  const SecureSumViews& v = proto.views();
  ASSERT_EQ(v.player_share_vectors.size(), m);
  for (size_t k = 0; k < m; ++k) {
    ExpectSameValues(v.player_share_vectors[k], ref.player_share_vectors[k]);
  }
  ExpectSameValues(v.third_party_s1, ref.third_party_s1);
  ExpectSameValues(v.third_party_masked_s2, ref.third_party_masked_s2);
  EXPECT_EQ(v.comparison_bits, ref.comparison_bits);
  EXPECT_EQ(v.p2_correction, ref.p2_correction);
}

std::vector<BigUInt> Moduli() {
  const BigUInt two64 = BigUInt::PowerOfTwo(64);
  return {
      BigUInt::PowerOfTwo(59),           // P4 at the paper's scale: W = 1.
      BigUInt::PowerOfTwo(61) - 1,       // Odd, W = 1.
      BigUInt::PowerOfTwo(63),           // Shares fit one limb, y does not.
      two64 - BigUInt(59),               // Odd, just below 2^64.
      two64,                             // Two-limb S.
      two64 + BigUInt(13),               // Non-power-of-two above 2^64.
      BigUInt::PowerOfTwo(128),          // W = 3.
  };
}

TEST(SecureSumTest, Protocol2MatchesBigUIntReference) {
  for (const BigUInt& s : Moduli()) {
    for (size_t m : {2u, 3u, 5u}) {
      for (bool permute : {false, true}) {
        for (size_t count : {1u, 2u, 2200u}) {
          CompareWithReference(s, m, permute, count);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace psi
