#include "bigint/modular.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace psi {
namespace {

TEST(ModularTest, ModAddWrapsCorrectly) {
  BigUInt m(100);
  EXPECT_EQ(ModAdd(BigUInt(30), BigUInt(40), m), BigUInt(70));
  EXPECT_EQ(ModAdd(BigUInt(60), BigUInt(70), m), BigUInt(30));
  EXPECT_EQ(ModAdd(BigUInt(99), BigUInt(1), m), BigUInt(0));
}

TEST(ModularTest, ModSubWrapsCorrectly) {
  BigUInt m(100);
  EXPECT_EQ(ModSub(BigUInt(40), BigUInt(30), m), BigUInt(10));
  EXPECT_EQ(ModSub(BigUInt(30), BigUInt(40), m), BigUInt(90));
  EXPECT_EQ(ModSub(BigUInt(0), BigUInt(1), m), BigUInt(99));
  EXPECT_EQ(ModSub(BigUInt(5), BigUInt(5), m), BigUInt(0));
}

TEST(ModularTest, ModMulReduces) {
  BigUInt m(97);
  EXPECT_EQ(ModMul(BigUInt(50), BigUInt(60), m), BigUInt(3000 % 97));
}

TEST(ModularTest, ModPowKnownValues) {
  EXPECT_EQ(ModPow(BigUInt(2), BigUInt(10), BigUInt(1000)), BigUInt(24));
  EXPECT_EQ(ModPow(BigUInt(3), BigUInt(0), BigUInt(7)), BigUInt(1));
  EXPECT_EQ(ModPow(BigUInt(0), BigUInt(0), BigUInt(7)), BigUInt(1));
  EXPECT_EQ(ModPow(BigUInt(0), BigUInt(5), BigUInt(7)), BigUInt(0));
  EXPECT_EQ(ModPow(BigUInt(5), BigUInt(3), BigUInt(1)), BigUInt(0));
}

TEST(ModularTest, ModPowFermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p and gcd(a, p) = 1.
  BigUInt p = BigUInt::FromDecimalString("170141183460469231731687303715884105727")
                  .ValueOrDie();  // 2^127 - 1, prime.
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    BigUInt a = BigUInt::RandomBelow(&rng, p - BigUInt(1)) + BigUInt(1);
    EXPECT_TRUE(ModPow(a, p - BigUInt(1), p).IsOne());
  }
}

TEST(ModularTest, ModPowLargeExponentConsistency) {
  // (a^e1)^e2 == a^(e1*e2) mod m.
  Rng rng(19);
  BigUInt m = BigUInt::RandomBits(&rng, 256);
  m.SetBit(0);  // Odd modulus.
  BigUInt a = BigUInt::RandomBelow(&rng, m);
  BigUInt e1(12345), e2(678);
  EXPECT_EQ(ModPow(ModPow(a, e1, m), e2, m), ModPow(a, e1 * e2, m));
}

TEST(ModularTest, GcdKnownValues) {
  EXPECT_EQ(Gcd(BigUInt(48), BigUInt(36)), BigUInt(12));
  EXPECT_EQ(Gcd(BigUInt(17), BigUInt(13)), BigUInt(1));
  EXPECT_EQ(Gcd(BigUInt(0), BigUInt(5)), BigUInt(5));
  EXPECT_EQ(Gcd(BigUInt(5), BigUInt(0)), BigUInt(5));
  EXPECT_EQ(Gcd(BigUInt(0), BigUInt(0)), BigUInt(0));
}

TEST(ModularTest, GcdDividesBoth) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    BigUInt a = BigUInt::RandomBits(&rng, 128);
    BigUInt b = BigUInt::RandomBits(&rng, 96);
    BigUInt g = Gcd(a, b);
    if (g.IsZero()) continue;
    EXPECT_TRUE((a % g).IsZero());
    EXPECT_TRUE((b % g).IsZero());
  }
}

// The classic Euclid loop Gcd used before the binary gcd: the reference.
BigUInt EuclidGcd(BigUInt a, BigUInt b) {
  while (!b.IsZero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

TEST(ModularTest, GcdMatchesEuclidReference) {
  Rng rng(37);
  std::vector<std::pair<BigUInt, BigUInt>> cases;
  for (size_t bits : {0U, 1U, 2U, 63U, 64U, 65U, 127U, 128U, 512U, 1000U, 1024U, 2048U}) {
    for (size_t i = 0; i < 8; ++i) {
      BigUInt a = BigUInt::RandomBits(&rng, bits);
      BigUInt b = BigUInt::RandomBits(&rng, (bits * (i + 1)) / 8);
      cases.emplace_back(a, b);
      cases.emplace_back(b, a);
      cases.emplace_back(a, a);
      cases.emplace_back(a, BigUInt());
      // Shared factors of two and a shared odd factor.
      BigUInt c = BigUInt::RandomBits(&rng, 100) + BigUInt(1);
      cases.emplace_back((a << 7) * c, (b << 3) * c);
    }
    cases.emplace_back(BigUInt::PowerOfTwo(bits), BigUInt::PowerOfTwo(bits / 2));
    cases.emplace_back(BigUInt::PowerOfTwo(bits), BigUInt::PowerOfTwo(bits) + BigUInt(1));
  }
  // RSA keygen's shape: a small public exponent against a 1024-bit phi.
  for (int i = 0; i < 16; ++i) {
    BigUInt phi = BigUInt::RandomBits(&rng, 1024);
    cases.emplace_back(BigUInt(65537), phi);
    cases.emplace_back(BigUInt(65537), phi * BigUInt(65537));
  }
  for (const auto& [a, b] : cases) {
    EXPECT_EQ(Gcd(a, b), EuclidGcd(a, b))
        << "a=" << a.ToHexString() << " b=" << b.ToHexString();
  }
}

TEST(ModularTest, LcmTimesGcdEqualsProduct) {
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    BigUInt a = BigUInt::RandomBits(&rng, 64) + BigUInt(1);
    BigUInt b = BigUInt::RandomBits(&rng, 64) + BigUInt(1);
    EXPECT_EQ(Lcm(a, b) * Gcd(a, b), a * b);
  }
  EXPECT_TRUE(Lcm(BigUInt(0), BigUInt(7)).IsZero());
}

TEST(ModularTest, ModInverseRoundTrip) {
  Rng rng(31);
  BigUInt m = BigUInt::FromDecimalString("1000000007").ValueOrDie();
  for (int i = 0; i < 100; ++i) {
    BigUInt a = BigUInt::RandomBelow(&rng, m - BigUInt(1)) + BigUInt(1);
    BigUInt inv = ModInverse(a, m).ValueOrDie();
    EXPECT_TRUE(ModMul(a, inv, m).IsOne());
    EXPECT_LT(inv, m);
  }
}

TEST(ModularTest, ModInverseRejectsNonCoprime) {
  EXPECT_FALSE(ModInverse(BigUInt(6), BigUInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigUInt(0), BigUInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigUInt(3), BigUInt(1)).ok());
}

TEST(ModularTest, ModInverseLargeModulus) {
  Rng rng(37);
  BigUInt m = BigUInt::PowerOfTwo(255);
  for (int i = 0; i < 20; ++i) {
    BigUInt a = BigUInt::RandomBelow(&rng, m);
    a.SetBit(0);  // Odd => coprime with 2^255.
    BigUInt inv = ModInverse(a, m).ValueOrDie();
    EXPECT_TRUE(ModMul(a, inv, m).IsOne());
  }
}

}  // namespace
}  // namespace psi
