#include "bigint/montgomery.h"

#include <gtest/gtest.h>

#include <vector>

#include "bigint/modular.h"
#include "bigint/primes.h"

namespace psi {
namespace {

// Generic reference modpow (no Montgomery routing).
BigUInt ReferencePow(const BigUInt& base, const BigUInt& exp,
                     const BigUInt& m) {
  BigUInt result(1);
  BigUInt b = base % m;
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = (result * result) % m;
    if (exp.GetBit(i)) result = (result * b) % m;
  }
  return result;
}

TEST(MontgomeryTest, RejectsBadModuli) {
  EXPECT_FALSE(MontgomeryContext::Create(BigUInt(0)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigUInt(1)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigUInt(2)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigUInt(100)).ok());  // Even.
  EXPECT_TRUE(MontgomeryContext::Create(BigUInt(3)).ok());
}

TEST(MontgomeryTest, RoundTripThroughDomain) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    BigUInt m = BigUInt::RandomBits(&rng, 64 + rng.UniformU64(300));
    m.SetBit(0);
    if (m < BigUInt(3)) continue;
    auto ctx = MontgomeryContext::Create(m).ValueOrDie();
    BigUInt a = BigUInt::RandomBelow(&rng, m);
    EXPECT_EQ(ctx.FromMontgomery(ctx.ToMontgomery(a)), a);
  }
}

TEST(MontgomeryTest, MultiplyMatchesModMul) {
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    BigUInt m = BigUInt::RandomBits(&rng, 256);
    m.SetBit(0);
    m.SetBit(255);
    auto ctx = MontgomeryContext::Create(m).ValueOrDie();
    BigUInt a = BigUInt::RandomBelow(&rng, m);
    BigUInt b = BigUInt::RandomBelow(&rng, m);
    BigUInt product = ctx.FromMontgomery(
        ctx.Multiply(ctx.ToMontgomery(a), ctx.ToMontgomery(b)));
    EXPECT_EQ(product, ModMul(a, b, m));
  }
}

TEST(MontgomeryTest, PowMatchesReferenceAcrossSizes) {
  Rng rng(3);
  for (size_t bits : {64u, 128u, 512u, 1024u}) {
    for (int trial = 0; trial < 10; ++trial) {
      BigUInt m = BigUInt::RandomBits(&rng, bits);
      m.SetBit(0);
      m.SetBit(bits - 1);
      BigUInt base = BigUInt::RandomBelow(&rng, m);
      BigUInt exp = BigUInt::RandomBits(&rng, bits);
      auto ctx = MontgomeryContext::Create(m).ValueOrDie();
      ASSERT_EQ(ctx.Pow(base, exp), ReferencePow(base, exp, m))
          << "bits " << bits;
    }
  }
}

TEST(MontgomeryTest, PowEdgeCases) {
  BigUInt m(1000003);  // Odd prime.
  auto ctx = MontgomeryContext::Create(m).ValueOrDie();
  EXPECT_EQ(ctx.Pow(BigUInt(5), BigUInt(0)), BigUInt(1));
  EXPECT_EQ(ctx.Pow(BigUInt(0), BigUInt(5)), BigUInt(0));
  EXPECT_EQ(ctx.Pow(BigUInt(0), BigUInt(0)), BigUInt(1));
  EXPECT_EQ(ctx.Pow(BigUInt(1), BigUInt(1u << 20)), BigUInt(1));
  // Base larger than the modulus reduces first.
  EXPECT_EQ(ctx.Pow(m + BigUInt(2), BigUInt(3)), BigUInt(8));
}

TEST(MontgomeryTest, ModPowRoutesThroughMontgomeryConsistently) {
  // The public ModPow must agree with the naive reference for odd moduli
  // (Montgomery path) and even moduli (generic path) alike.
  Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    BigUInt m = BigUInt::RandomBits(&rng, 200);
    if (m < BigUInt(3)) continue;
    BigUInt base = BigUInt::RandomBits(&rng, 300);
    BigUInt exp = BigUInt::RandomBits(&rng, 100);
    ASSERT_EQ(ModPow(base, exp, m), ReferencePow(base, exp, m))
        << (m.IsOdd() ? "odd" : "even") << " modulus trial " << trial;
  }
}

TEST(MontgomeryTest, WindowedPowMatchesReferenceOnLargeModuli) {
  // The fixed-window path kicks in for big exponents; cross-check it against
  // the naive square-and-multiply reference over random 512..2048-bit odd
  // moduli (window sizes 4 and 5 per WindowBitsFor).
  Rng rng(6);
  for (size_t bits : {512u, 1024u, 2048u}) {
    for (int trial = 0; trial < 3; ++trial) {
      BigUInt m = BigUInt::RandomBits(&rng, bits);
      m.SetBit(0);
      m.SetBit(bits - 1);
      BigUInt base = BigUInt::RandomBelow(&rng, m);
      BigUInt exp = BigUInt::RandomBits(&rng, bits);
      auto ctx = MontgomeryContext::Create(m).ValueOrDie();
      ASSERT_EQ(ctx.Pow(base, exp), ReferencePow(base, exp, m))
          << "bits " << bits << " trial " << trial;
    }
  }
}

TEST(MontgomeryTest, WindowedPowExponentStructureEdges) {
  // Exponents whose windows are all-zero, all-one, or straddle the top
  // digit stress the first-digit and skip-zero-window logic.
  Rng rng(7);
  BigUInt m = BigUInt::RandomBits(&rng, 512);
  m.SetBit(0);
  m.SetBit(511);
  auto ctx = MontgomeryContext::Create(m).ValueOrDie();
  BigUInt base = BigUInt::RandomBelow(&rng, m);
  std::vector<BigUInt> exps;
  exps.push_back(BigUInt::PowerOfTwo(511));                // Lone top bit.
  exps.push_back(BigUInt::PowerOfTwo(512) - BigUInt(1));   // All ones.
  exps.push_back(BigUInt::PowerOfTwo(253));                // Mid-digit bit.
  exps.push_back(BigUInt(1));
  exps.push_back(BigUInt((1u << 16) - 1));                 // Short exponent.
  for (const auto& exp : exps) {
    ASSERT_EQ(ctx.Pow(base, exp), ReferencePow(base, exp, m))
        << "exp bits " << exp.BitLength();
  }
}

TEST(MontgomeryTest, FermatWithRealPrime) {
  Rng rng(5);
  BigUInt p = RandomPrime(&rng, 512);
  auto ctx = MontgomeryContext::Create(p).ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    BigUInt a = BigUInt::RandomBelow(&rng, p - BigUInt(2)) + BigUInt(1);
    EXPECT_TRUE(ctx.Pow(a, p - BigUInt(1)).IsOne());
  }
}

}  // namespace
}  // namespace psi
