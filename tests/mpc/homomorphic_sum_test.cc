#include "mpc/homomorphic_sum.h"

#include <gtest/gtest.h>

#include <memory>

#include "bigint/modular.h"

namespace psi {
namespace {

struct HomFixture {
  explicit HomFixture(size_t m) {
    for (size_t k = 0; k < m; ++k) {
      players.push_back(net.RegisterParty("P" + std::to_string(k + 1)));
      rngs.push_back(std::make_unique<Rng>(2000 + k));
    }
  }
  std::vector<Rng*> RngPtrs() {
    std::vector<Rng*> out;
    for (auto& r : rngs) out.push_back(r.get());
    return out;
  }
  Network net;
  std::vector<PartyId> players;
  std::vector<std::unique_ptr<Rng>> rngs;
};

TEST(HomomorphicSumTest, SharesReconstructModN) {
  for (size_t m : {2u, 3u, 5u}) {
    HomFixture f(m);
    HomomorphicSumProtocol proto(&f.net, f.players, HomomorphicSumConfig{});
    std::vector<std::vector<uint64_t>> inputs(m,
                                              std::vector<uint64_t>(10));
    std::vector<uint64_t> expected(10, 0);
    Rng in(3);
    for (size_t c = 0; c < 10; ++c) {
      for (size_t k = 0; k < m; ++k) {
        inputs[k][c] = in.UniformU64(100000);
        expected[c] += inputs[k][c];
      }
    }
    auto shares = proto.Run(inputs, f.RngPtrs(), "h.").ValueOrDie();
    const BigUInt& n = proto.modulus();
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_EQ(ModAdd(shares.s1[c], shares.s2[c], n), BigUInt(expected[c]))
          << "m=" << m << " c=" << c;
    }
    EXPECT_EQ(f.net.PendingCount(), 0u);
  }
}

TEST(HomomorphicSumTest, FewerMessagesThanBenaloh) {
  // The extension's selling point: 2m - 2 messages vs m(m-1) + (m-2).
  const size_t m = 6;
  HomFixture f(m);
  HomomorphicSumProtocol proto(&f.net, f.players, HomomorphicSumConfig{});
  std::vector<std::vector<uint64_t>> inputs(m, std::vector<uint64_t>{1});
  ASSERT_TRUE(proto.Run(inputs, f.RngPtrs(), "h.").ok());
  auto report = f.net.Report();
  EXPECT_EQ(report.num_messages, 2 * m - 2);
  EXPECT_EQ(report.num_rounds, 3u);
  EXPECT_LT(report.num_messages, m * (m - 1) + (m - 2));
}

TEST(HomomorphicSumTest, ZeroInputs) {
  HomFixture f(3);
  HomomorphicSumProtocol proto(&f.net, f.players, HomomorphicSumConfig{});
  std::vector<std::vector<uint64_t>> inputs(3, std::vector<uint64_t>{0, 0});
  auto shares = proto.Run(inputs, f.RngPtrs(), "h.").ValueOrDie();
  const BigUInt& n = proto.modulus();
  EXPECT_TRUE(ModAdd(shares.s1[0], shares.s2[0], n).IsZero());
}

TEST(HomomorphicSumTest, MaskMakesP1ShareNonTrivial) {
  // s1 must not equal the plain sum (P2's mask hides it).
  HomFixture f(2);
  HomomorphicSumProtocol proto(&f.net, f.players, HomomorphicSumConfig{});
  std::vector<std::vector<uint64_t>> inputs{{5}, {7}};
  auto shares = proto.Run(inputs, f.RngPtrs(), "h.").ValueOrDie();
  // With overwhelming probability the random mask is not 0 or tiny.
  EXPECT_NE(shares.s1[0], BigUInt(12));
  EXPECT_GT(shares.s1[0].BitLength(), 64u);
}

TEST(HomomorphicSumTest, InputValidation) {
  HomFixture f(3);
  HomomorphicSumProtocol proto(&f.net, f.players, HomomorphicSumConfig{});
  std::vector<std::vector<uint64_t>> ragged{{1}, {2, 3}, {4}};
  EXPECT_FALSE(proto.Run(ragged, f.RngPtrs(), "h.").ok());
  std::vector<std::vector<uint64_t>> wrong_count{{1}, {2}};
  EXPECT_FALSE(proto.Run(wrong_count, f.RngPtrs(), "h.").ok());
}

// ------------------------------------------------------------ packed mode --

HomomorphicSumConfig PackedConfig(uint64_t bound) {
  HomomorphicSumConfig config;
  config.paillier_bits = 512;
  config.counter_bound = BigUInt(bound);
  config.packing_epsilon_log2 = 40;
  return config;
}

TEST(HomomorphicSumTest, PackedSharesReconstructModN) {
  for (size_t m : {2u, 3u, 5u}) {
    HomFixture f(m);
    HomomorphicSumProtocol proto(&f.net, f.players,
                                 PackedConfig((1ull << 20) - 1));
    const size_t count = 30;  // Forces several ciphertexts per provider.
    std::vector<std::vector<uint64_t>> inputs(m, std::vector<uint64_t>(count));
    std::vector<uint64_t> expected(count, 0);
    Rng in(9);
    for (size_t c = 0; c < count; ++c) {
      for (size_t k = 0; k < m; ++k) {
        inputs[k][c] = in.UniformU64(1ull << 20);
        expected[c] += inputs[k][c];
      }
    }
    auto shares = proto.Run(inputs, f.RngPtrs(), "h.").ValueOrDie();
    EXPECT_TRUE(proto.last_run_packed()) << "m=" << m;
    EXPECT_GT(proto.last_run_slots(), 1u);
    const BigUInt& n = proto.modulus();
    for (size_t c = 0; c < count; ++c) {
      EXPECT_EQ(ModAdd(shares.s1[c], shares.s2[c], n), BigUInt(expected[c]))
          << "m=" << m << " c=" << c;
    }
    EXPECT_EQ(f.net.PendingCount(), 0u);
  }
}

TEST(HomomorphicSumTest, PackedMatchesUnpackedSums) {
  // The packed and unpacked paths must agree on the reconstructed values.
  const size_t m = 3;
  std::vector<std::vector<uint64_t>> inputs{
      {5, 0, 19, 3}, {7, 1, 2, 8}, {11, 4, 6, 100}};
  HomFixture fp(m);
  HomomorphicSumProtocol packed(&fp.net, fp.players, PackedConfig(1000));
  auto ps = packed.Run(inputs, fp.RngPtrs(), "h.").ValueOrDie();
  ASSERT_TRUE(packed.last_run_packed());
  HomFixture fu(m);
  HomomorphicSumProtocol unpacked(&fu.net, fu.players,
                                  HomomorphicSumConfig{});
  auto us = unpacked.Run(inputs, fu.RngPtrs(), "h.").ValueOrDie();
  ASSERT_FALSE(unpacked.last_run_packed());
  for (size_t c = 0; c < inputs[0].size(); ++c) {
    EXPECT_EQ(ModAdd(ps.s1[c], ps.s2[c], packed.modulus()),
              ModAdd(us.s1[c], us.s2[c], unpacked.modulus()));
  }
}

TEST(HomomorphicSumTest, PackedShrinksTraffic) {
  const size_t m = 3;
  const size_t count = 64;
  std::vector<std::vector<uint64_t>> inputs(m, std::vector<uint64_t>(count));
  for (size_t k = 0; k < m; ++k) {
    for (size_t c = 0; c < count; ++c) inputs[k][c] = 17 * k + c;
  }
  HomFixture fp(m);
  HomomorphicSumProtocol packed(&fp.net, fp.players,
                                PackedConfig((1ull << 20) - 1));
  ASSERT_TRUE(packed.Run(inputs, fp.RngPtrs(), "h.").ok());
  ASSERT_TRUE(packed.last_run_packed());
  HomFixture fu(m);
  HomomorphicSumProtocol unpacked(&fu.net, fu.players,
                                  HomomorphicSumConfig{});
  ASSERT_TRUE(unpacked.Run(inputs, fu.RngPtrs(), "h.").ok());
  // Same round/message structure, several-fold fewer ciphertext bytes.
  EXPECT_EQ(fp.net.Report().num_messages, fu.net.Report().num_messages);
  EXPECT_EQ(fp.net.Report().num_rounds, fu.net.Report().num_rounds);
  EXPECT_LT(fp.net.Report().num_bytes * 4, fu.net.Report().num_bytes);
}

TEST(HomomorphicSumTest, FallsBackWhenInputExceedsBound) {
  HomFixture f(3);
  HomomorphicSumProtocol proto(&f.net, f.players, PackedConfig(100));
  std::vector<std::vector<uint64_t>> inputs{{5, 101}, {7, 1}, {11, 4}};
  auto shares = proto.Run(inputs, f.RngPtrs(), "h.").ValueOrDie();
  EXPECT_FALSE(proto.last_run_packed());
  EXPECT_EQ(proto.last_run_slots(), 1u);
  // The fallback still aggregates correctly.
  const BigUInt& n = proto.modulus();
  EXPECT_EQ(ModAdd(shares.s1[0], shares.s2[0], n), BigUInt(23));
  EXPECT_EQ(ModAdd(shares.s1[1], shares.s2[1], n), BigUInt(106));
}

TEST(HomomorphicSumTest, IntegerSharesReconstructExactly) {
  const size_t m = 3;
  HomFixture f(m);
  HomomorphicSumProtocol proto(&f.net, f.players, PackedConfig(1ull << 16));
  std::vector<std::vector<uint64_t>> inputs{
      {0, 65536, 12, 900}, {1, 0, 40000, 2}, {2, 3, 5, 65536}};
  auto shares = proto.RunInteger(inputs, f.RngPtrs(), "h.").ValueOrDie();
  ASSERT_TRUE(proto.last_run_packed());
  ASSERT_EQ(shares.size(), inputs[0].size());
  for (size_t c = 0; c < shares.size(); ++c) {
    uint64_t expected = 0;
    for (size_t k = 0; k < m; ++k) expected += inputs[k][c];
    // s1 + s2 == sum over the integers, with s2 <= 0: the exact contract
    // Protocol 4's share-masking stage consumes.
    EXPECT_EQ(shares.At(c).Reconstruct(), BigInt(BigUInt(expected)));
    EXPECT_TRUE(shares.s2[c].IsNegative() || shares.s2[c].IsZero());
  }
}

TEST(HomomorphicSumTest, IntegerSharesRequireProvableBound) {
  HomFixture f(3);
  std::vector<std::vector<uint64_t>> inputs{{5}, {7}, {11}};
  // No bound configured: packed-only RunInteger must refuse.
  HomomorphicSumProtocol unbounded(&f.net, f.players,
                                   HomomorphicSumConfig{});
  auto no_bound = unbounded.RunInteger(inputs, f.RngPtrs(), "h.");
  ASSERT_FALSE(no_bound.ok());
  EXPECT_EQ(no_bound.status().code(), StatusCode::kFailedPrecondition);
  // Bound configured but violated by an input: same refusal, no silent
  // fallback (integer shares cannot come out of the unpacked path).
  HomomorphicSumProtocol bounded(&f.net, f.players, PackedConfig(10));
  std::vector<std::vector<uint64_t>> over{{5}, {11}, {2}};
  auto violated = bounded.RunInteger(over, f.RngPtrs(), "h.");
  ASSERT_FALSE(violated.ok());
  EXPECT_EQ(violated.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace psi
