#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/stats.h"

namespace psi {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkIsIndependentOfParentStream) {
  // A fork must not change the parent's subsequent output beyond the one
  // draw it consumes, and forks with different labels must differ.
  Rng parent1(7), parent2(7);
  Rng fork_a = parent1.Fork("a");
  Rng fork_b = parent2.Fork("b");
  EXPECT_NE(fork_a.NextU64(), fork_b.NextU64());
  // Parents continue identically after forking (same number of draws).
  for (int i = 0; i < 16; ++i) EXPECT_EQ(parent1.NextU64(), parent2.NextU64());
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(5);
  std::vector<uint64_t> buckets(16, 0);
  const int kDraws = 160000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.UniformU64(16)];
  // Chi-squared with 15 dof: 99.99th percentile ~ 44.3.
  EXPECT_LT(ChiSquaredUniform(buckets), 45.0);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformReal();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRealOpenNeverZeroOrOne) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformRealOpen();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRealMeanAndVariance) {
  Rng rng(19);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.UniformReal();
  EXPECT_NEAR(Mean(xs), 0.5, 0.01);
  EXPECT_NEAR(Variance(xs), 1.0 / 12.0, 0.005);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, SampleZMatchesTheoreticalCdf) {
  // Z has CDF F(mu) = 1 - 1/mu on [1, inf): P(M <= 2) = 0.5, P(M <= 4) = .75.
  Rng rng(29);
  int le2 = 0, le4 = 0, le10 = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    double m = rng.SampleZ();
    EXPECT_GE(m, 1.0);
    le2 += m <= 2.0;
    le4 += m <= 4.0;
    le10 += m <= 10.0;
  }
  EXPECT_NEAR(le2 / static_cast<double>(kDraws), 0.5, 0.01);
  EXPECT_NEAR(le4 / static_cast<double>(kDraws), 0.75, 0.01);
  EXPECT_NEAR(le10 / static_cast<double>(kDraws), 0.9, 0.01);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(31);
  auto perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (size_t v : perm) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, PermutationIsNotIdentityForLargeN) {
  Rng rng(37);
  auto perm = rng.Permutation(64);
  size_t fixed = 0;
  for (size_t i = 0; i < perm.size(); ++i) fixed += perm[i] == i;
  EXPECT_LT(fixed, 10u);  // Expected number of fixed points is 1.
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(41);
  std::vector<int> v{1, 2, 2, 3, 5, 8, 13};
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, FillBytesDeterministic) {
  Rng a(55), b(55);
  std::vector<uint8_t> ba(1000), bb(1000);
  a.FillBytes(ba.data(), ba.size());
  b.FillBytes(bb.data(), bb.size());
  EXPECT_EQ(ba, bb);
}

TEST(RngTest, ByteStreamLooksUnbiased) {
  Rng rng(59);
  std::vector<uint8_t> bytes(1 << 16);
  rng.FillBytes(bytes.data(), bytes.size());
  std::vector<uint64_t> counts(256, 0);
  for (uint8_t b : bytes) ++counts[b];
  // 255 dof; the 99.99th percentile is ~ 341.
  EXPECT_LT(ChiSquaredUniform(counts), 350.0);
}

// Parameterized sweep: rejection sampling must be exact for awkward bounds.
class UniformBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniformBoundTest, AllResiduesReachable) {
  uint64_t bound = GetParam();
  Rng rng(bound * 2654435761u + 1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.UniformU64(bound);
    ASSERT_LT(v, bound);
    if (bound <= 16) {
      seen.insert(v);
    }
  }
  if (bound <= 16) {
    EXPECT_EQ(seen.size(), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformBoundTest,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 1000,
                                           (1ull << 63) + 1));

}  // namespace
}  // namespace psi
