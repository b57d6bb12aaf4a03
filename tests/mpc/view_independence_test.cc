// Semi-honest view-independence properties: the *distribution* of what a
// non-output party observes must not depend on the other parties' inputs
// (the simulation argument of Section 4.1, tested statistically).

#include <gtest/gtest.h>

#include <memory>

#include "common/stats.h"
#include "mpc/secure_sum.h"

namespace psi {
namespace {

// Collects the values player `observer` receives during Protocol 1 runs with
// the given inputs, as coarse histogram buckets over Z_S.
std::vector<uint64_t> ObserveShareHistogram(
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t seed,
    size_t observer, size_t runs, size_t buckets, uint64_t s_val) {
  std::vector<uint64_t> histogram(buckets, 0);
  Network net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> players{net.RegisterParty("P1"),
                               net.RegisterParty("P2"),
                               net.RegisterParty("P3")};
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(100);
  cfg.modulus_s = BigUInt(s_val);
  Rng r1(seed), r2(seed + 1), r3(seed + 2);
  std::vector<Rng*> rngs{&r1, &r2, &r3};
  for (size_t run = 0; run < runs; ++run) {
    SecureSumProtocol proto(&net, players, host, cfg);
    auto shares = proto.RunProtocol1(inputs, rngs, "vi.").ValueOrDie();
    uint64_t observed = proto.views()
                            .player_share_vectors[observer]
                            .Value(0)
                            .ToUint64()
                            .ValueOrDie();
    ++histogram[observed * buckets / s_val];
  }
  return histogram;
}

// Two-sample chi-squared statistic.
double TwoSampleChi2(const std::vector<uint64_t>& a,
                     const std::vector<uint64_t>& b) {
  double chi2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double ai = static_cast<double>(a[i]);
    double bi = static_cast<double>(b[i]);
    double total = ai + bi;
    if (total == 0) continue;
    // Equal sample sizes: expected half/half.
    chi2 += (ai - bi) * (ai - bi) / total;
  }
  return chi2;
}

TEST(ViewIndependenceTest, Protocol1ShareDistributionIgnoresInputs) {
  // Player P3's accumulated share must be distributed identically whether
  // the inputs are (0, 0, 0) or (33, 41, 26): 16 buckets, 4000 runs each.
  const uint64_t s_val = 4096;
  auto zeros = ObserveShareHistogram({{0}, {0}, {0}}, 900, /*observer=*/2,
                                     4000, 16, s_val);
  auto loaded = ObserveShareHistogram({{33}, {41}, {26}}, 901, /*observer=*/2,
                                      4000, 16, s_val);
  // 15 dof; 99.9th percentile ~ 37.7.
  EXPECT_LT(TwoSampleChi2(zeros, loaded), 38.0);
  // And each is individually uniform.
  EXPECT_LT(ChiSquaredUniform(zeros), 38.0);
  EXPECT_LT(ChiSquaredUniform(loaded), 38.0);
}

TEST(ViewIndependenceTest, Protocol1P1ShareAlsoInputIndependent) {
  const uint64_t s_val = 4096;
  auto zeros = ObserveShareHistogram({{0}, {0}, {0}}, 902, /*observer=*/0,
                                     4000, 16, s_val);
  auto loaded = ObserveShareHistogram({{99}, {1}, {0}}, 903, /*observer=*/0,
                                      4000, 16, s_val);
  EXPECT_LT(TwoSampleChi2(zeros, loaded), 38.0);
}

TEST(ViewIndependenceTest, ShareOfSameRunsDifferAcrossCounters) {
  // Within one batched run, shares of different counters are independent:
  // the share values of counter 0 and counter 1 must not be correlated.
  Network net;
  PartyId host = net.RegisterParty("H");
  std::vector<PartyId> players{net.RegisterParty("P1"),
                               net.RegisterParty("P2")};
  SecureSumConfig cfg;
  cfg.input_bound_a = BigUInt(10);
  cfg.modulus_s = BigUInt(1u << 20);
  Rng r1(1), r2(2);
  std::vector<Rng*> rngs{&r1, &r2};
  std::vector<double> share0, share1;
  for (int run = 0; run < 500; ++run) {
    SecureSumProtocol proto(&net, players, host, cfg);
    auto shares =
        proto.RunProtocol1({{5, 5}, {3, 3}}, rngs, "vi.").ValueOrDie();
    share0.push_back(shares.s1[0].ToDouble());
    share1.push_back(shares.s1[1].ToDouble());
  }
  EXPECT_LT(std::abs(PearsonCorrelation(share0, share1)), 0.12);
}

}  // namespace
}  // namespace psi
