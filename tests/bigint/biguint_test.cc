#include "bigint/biguint.h"

#include <gtest/gtest.h>

#include <cmath>

namespace psi {
namespace {

TEST(BigUIntTest, DefaultIsZero) {
  BigUInt v;
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.BitLength(), 0u);
  EXPECT_EQ(v.ToDecimalString(), "0");
  EXPECT_EQ(v.ToHexString(), "0");
}

TEST(BigUIntTest, SmallValueBasics) {
  BigUInt v(42);
  EXPECT_FALSE(v.IsZero());
  EXPECT_TRUE(v.IsEven());
  EXPECT_EQ(v.BitLength(), 6u);
  EXPECT_EQ(v.ToUint64().ValueOrDie(), 42u);
  EXPECT_EQ(v.ToDecimalString(), "42");
  EXPECT_EQ(v.ToHexString(), "2a");
}

TEST(BigUIntTest, AdditionWithCarryAcrossLimbs) {
  BigUInt max64(UINT64_MAX);
  BigUInt sum = max64 + BigUInt(1);
  EXPECT_EQ(sum.BitLength(), 65u);
  EXPECT_EQ(sum.ToHexString(), "10000000000000000");
  EXPECT_EQ(sum - BigUInt(1), max64);
}

TEST(BigUIntTest, SubtractionBorrowAcrossLimbs) {
  BigUInt big = BigUInt::PowerOfTwo(128);
  BigUInt r = big - BigUInt(1);
  EXPECT_EQ(r.BitLength(), 128u);
  EXPECT_EQ(r + BigUInt(1), big);
}

TEST(BigUIntTest, CheckedSubDetectsUnderflow) {
  auto r = BigUInt(3).CheckedSub(BigUInt(5));
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(BigUInt(5).CheckedSub(BigUInt(3)).ValueOrDie(), BigUInt(2));
}

TEST(BigUIntTest, MultiplicationKnownValues) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  BigUInt max64(UINT64_MAX);
  BigUInt sq = max64 * max64;
  BigUInt expected = BigUInt::PowerOfTwo(128) - BigUInt::PowerOfTwo(65) +
                     BigUInt(1);
  EXPECT_EQ(sq, expected);
  EXPECT_EQ(BigUInt(0) * max64, BigUInt(0));
  EXPECT_EQ(BigUInt(1) * max64, max64);
}

TEST(BigUIntTest, DecimalParseKnownValue) {
  auto v = BigUInt::FromDecimalString("340282366920938463463374607431768211456")
               .ValueOrDie();  // 2^128
  EXPECT_EQ(v, BigUInt::PowerOfTwo(128));
}

TEST(BigUIntTest, DecimalParseRejectsGarbage) {
  EXPECT_FALSE(BigUInt::FromDecimalString("").ok());
  EXPECT_FALSE(BigUInt::FromDecimalString("12a3").ok());
  EXPECT_FALSE(BigUInt::FromDecimalString("-5").ok());
}

TEST(BigUIntTest, HexParseRoundTrip) {
  auto v = BigUInt::FromHexString("deadbeefcafebabe0123456789").ValueOrDie();
  EXPECT_EQ(v.ToHexString(), "deadbeefcafebabe0123456789");
  EXPECT_FALSE(BigUInt::FromHexString("xyz").ok());
}

TEST(BigUIntTest, ShiftsMatchMultiplication) {
  BigUInt v(0x123456789abcdefull);
  EXPECT_EQ(v << 1, v * BigUInt(2));
  EXPECT_EQ(v << 64, v * BigUInt::PowerOfTwo(64));
  EXPECT_EQ(v << 100, v * BigUInt::PowerOfTwo(100));
  EXPECT_EQ((v << 100) >> 100, v);
  EXPECT_EQ(v >> 200, BigUInt(0));
  EXPECT_EQ(v >> 0, v);
}

TEST(BigUIntTest, GetSetBit) {
  BigUInt v;
  v.SetBit(200);
  EXPECT_EQ(v, BigUInt::PowerOfTwo(200));
  EXPECT_TRUE(v.GetBit(200));
  EXPECT_FALSE(v.GetBit(199));
  EXPECT_FALSE(v.GetBit(100000));
}

TEST(BigUIntTest, ComparisonOrdering) {
  BigUInt a(5), b(7), c = BigUInt::PowerOfTwo(64);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_GT(c, a);
  EXPECT_EQ(a, BigUInt(5));
  EXPECT_LE(a, a);
}

TEST(BigUIntTest, DivModSingleLimbDivisor) {
  auto v = BigUInt::FromDecimalString("123456789012345678901234567890")
               .ValueOrDie();
  BigUInt q, r;
  BigUInt::DivMod(v, BigUInt(97), &q, &r);
  EXPECT_EQ(q * BigUInt(97) + r, v);
  EXPECT_LT(r, BigUInt(97));
}

TEST(BigUIntTest, DivModMultiLimbKnownValue) {
  // (2^192 + 5) / (2^64 + 3)
  BigUInt num = BigUInt::PowerOfTwo(192) + BigUInt(5);
  BigUInt den = BigUInt::PowerOfTwo(64) + BigUInt(3);
  BigUInt q, r;
  BigUInt::DivMod(num, den, &q, &r);
  EXPECT_EQ(q * den + r, num);
  EXPECT_LT(r, den);
}

TEST(BigUIntTest, DivModNumeratorSmallerThanDenominator) {
  BigUInt q, r;
  BigUInt::DivMod(BigUInt(5), BigUInt::PowerOfTwo(100), &q, &r);
  EXPECT_TRUE(q.IsZero());
  EXPECT_EQ(r, BigUInt(5));
}

// The qhat-correction path of Knuth D triggers on specific patterns; this
// randomized sweep hits it reliably.
TEST(BigUIntTest, DivModRandomizedInvariant) {
  Rng rng(4242);
  for (int i = 0; i < 3000; ++i) {
    BigUInt a = BigUInt::RandomBits(&rng, 1 + rng.UniformU64(512));
    BigUInt b = BigUInt::RandomBits(&rng, 1 + rng.UniformU64(512));
    if (b.IsZero()) b = BigUInt(1);
    BigUInt q, r;
    BigUInt::DivMod(a, b, &q, &r);
    ASSERT_EQ(q * b + r, a);
    ASSERT_LT(r, b);
  }
}

TEST(BigUIntTest, DivModAddBackCase) {
  // Constructed to exercise the rare add-back branch: divisor with
  // maximum-value high limbs.
  BigUInt den = (BigUInt(UINT64_MAX) << 64) + BigUInt(UINT64_MAX);
  BigUInt num = (den << 64) - BigUInt(1);
  BigUInt q, r;
  BigUInt::DivMod(num, den, &q, &r);
  EXPECT_EQ(q * den + r, num);
  EXPECT_LT(r, den);
}

TEST(BigUIntTest, DecimalRoundTripRandomized) {
  Rng rng(777);
  for (int i = 0; i < 200; ++i) {
    BigUInt v = BigUInt::RandomBits(&rng, 1 + rng.UniformU64(600));
    EXPECT_EQ(BigUInt::FromDecimalString(v.ToDecimalString()).ValueOrDie(), v);
  }
}

TEST(BigUIntTest, BytesRoundTrip) {
  Rng rng(888);
  for (int i = 0; i < 100; ++i) {
    BigUInt v = BigUInt::RandomBits(&rng, 1 + rng.UniformU64(300));
    EXPECT_EQ(BigUInt::FromLittleEndianBytes(v.ToLittleEndianBytes()), v);
  }
  EXPECT_TRUE(BigUInt::FromLittleEndianBytes({}).IsZero());
}

TEST(BigUIntTest, ToUint64Overflow) {
  EXPECT_TRUE(BigUInt(UINT64_MAX).ToUint64().ok());
  EXPECT_EQ(BigUInt::PowerOfTwo(64).ToUint64().status().code(),
            StatusCode::kOutOfRange);
}

TEST(BigUIntTest, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigUInt(0).ToDouble(), 0.0);
  EXPECT_DOUBLE_EQ(BigUInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigUInt::PowerOfTwo(100).ToDouble(), std::ldexp(1.0, 100));
  // Relative error of top-64-bit truncation is < 2^-52.
  BigUInt v = BigUInt::FromDecimalString("98765432109876543210987654321")
                  .ValueOrDie();
  double expected = 9.8765432109876543210987654321e28;
  EXPECT_NEAR(v.ToDouble() / expected, 1.0, 1e-12);
}

TEST(BigUIntTest, DivideToDoubleExactness) {
  EXPECT_DOUBLE_EQ(DivideToDouble(BigUInt(1), BigUInt(2)), 0.5);
  EXPECT_DOUBLE_EQ(DivideToDouble(BigUInt(0), BigUInt(9)), 0.0);
  EXPECT_DOUBLE_EQ(DivideToDouble(BigUInt(9), BigUInt(0)), 0.0);  // Convention.
  // Huge operands with a small exact ratio.
  BigUInt a = BigUInt::PowerOfTwo(300) * BigUInt(3);
  BigUInt b = BigUInt::PowerOfTwo(300) * BigUInt(4);
  EXPECT_DOUBLE_EQ(DivideToDouble(a, b), 0.75);
}

TEST(BigUIntTest, BigUIntFromDoubleValues) {
  EXPECT_TRUE(BigUIntFromDouble(0.0).ValueOrDie().IsZero());
  EXPECT_TRUE(BigUIntFromDouble(0.999).ValueOrDie().IsZero());
  EXPECT_EQ(BigUIntFromDouble(1.0).ValueOrDie(), BigUInt(1));
  EXPECT_EQ(BigUIntFromDouble(123.99).ValueOrDie(), BigUInt(123));
  EXPECT_EQ(BigUIntFromDouble(std::ldexp(1.0, 100)).ValueOrDie(),
            BigUInt::PowerOfTwo(100));
  EXPECT_FALSE(BigUIntFromDouble(-1.0).ok());
  EXPECT_FALSE(BigUIntFromDouble(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(BigUIntFromDouble(std::nan("")).ok());
}

TEST(BigUIntTest, RandomBelowStaysInRangeAndCoversIt) {
  Rng rng(999);
  BigUInt bound(10);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 2000; ++i) {
    BigUInt v = BigUInt::RandomBelow(&rng, bound);
    ASSERT_LT(v, bound);
    ++seen[v.ToUint64().ValueOrDie()];
  }
  for (int count : seen) EXPECT_GT(count, 100);  // ~200 expected each.
}

TEST(BigUIntTest, RandomBitsExactWidthDistribution) {
  Rng rng(1001);
  for (int i = 0; i < 50; ++i) {
    BigUInt v = BigUInt::RandomBits(&rng, 130);
    EXPECT_LE(v.BitLength(), 130u);
  }
}

TEST(BigUIntTest, SerializationRoundTrip) {
  Rng rng(1003);
  BinaryWriter w;
  std::vector<BigUInt> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(BigUInt::RandomBits(&rng, rng.UniformU64(400)));
    WriteBigUInt(&w, values.back());
  }
  BinaryReader r(w.buffer());
  for (const auto& expected : values) {
    BigUInt v;
    ASSERT_TRUE(ReadBigUInt(&r, &v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BigUIntTest, ReadBigUIntZeroLimbsIsZero) {
  BinaryWriter w;
  w.WriteVarU64(0);
  BinaryReader r(w.buffer());
  BigUInt v(99);
  ASSERT_TRUE(ReadBigUInt(&r, &v).ok());
  EXPECT_TRUE(v.IsZero());
  EXPECT_EQ(v.num_limbs(), 0u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BigUIntTest, ReadBigUIntNormalisesZeroTopLimbs) {
  // A non-canonical encoding padded with zero top limbs decodes to the
  // canonical value, both below and above the 32 limbs staged on the stack.
  for (size_t width : {4u, 40u}) {
    std::vector<uint64_t> limbs(width, 0);
    limbs[0] = 5;
    limbs[1] = 7;
    BinaryWriter w;
    w.WriteVarU64(limbs.size());
    for (uint64_t limb : limbs) w.WriteU64(limb);
    BinaryReader r(w.buffer());
    BigUInt v;
    ASSERT_TRUE(ReadBigUInt(&r, &v).ok());
    EXPECT_EQ(v, (BigUInt(7) << 64) + BigUInt(5)) << "width " << width;
    EXPECT_EQ(v.num_limbs(), 2u);
    EXPECT_TRUE(r.AtEnd());

    // All-zero limbs are zero.
    BinaryWriter zeros;
    zeros.WriteVarU64(width);
    for (size_t i = 0; i < width; ++i) zeros.WriteU64(0);
    BinaryReader rz(zeros.buffer());
    ASSERT_TRUE(ReadBigUInt(&rz, &v).ok());
    EXPECT_TRUE(v.IsZero()) << "width " << width;
  }
}

TEST(BigUIntTest, ReadBigUIntWideValuesRoundTrip) {
  Rng rng(1004);
  for (size_t bits : {2047u, 2048u, 2049u, 4096u}) {
    BigUInt value = BigUInt::RandomBits(&rng, bits);
    BinaryWriter w;
    WriteBigUInt(&w, value);
    BinaryReader r(w.buffer());
    BigUInt v;
    ASSERT_TRUE(ReadBigUInt(&r, &v).ok());
    EXPECT_EQ(v, value) << "bits " << bits;
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BigUIntTest, ReadBigUIntRejectsCountBeyondBuffer) {
  // Three limbs declared, two present: rejected before any limb is read,
  // and the output keeps its old value.
  BinaryWriter w;
  w.WriteVarU64(3);
  w.WriteU64(1);
  w.WriteU64(2);
  BinaryReader r(w.buffer());
  BigUInt v(42);
  Status st = ReadBigUInt(&r, &v);
  EXPECT_EQ(st.code(), StatusCode::kSerializationError);
  EXPECT_EQ(v, BigUInt(42));

  // A huge count in a tiny buffer never drives an allocation.
  BinaryWriter huge;
  huge.WriteVarU64(uint64_t{1} << 60);
  BinaryReader rh(huge.buffer());
  EXPECT_EQ(ReadBigUInt(&rh, &v).code(), StatusCode::kSerializationError);
}

TEST(BigUIntTest, SerializedSizeMatchesActual) {
  Rng rng(1005);
  for (int i = 0; i < 50; ++i) {
    BigUInt v = BigUInt::RandomBits(&rng, rng.UniformU64(1000));
    BinaryWriter w;
    WriteBigUInt(&w, v);
    EXPECT_EQ(w.size(), v.SerializedSize());
  }
}

// Associativity / distributivity spot checks over random operands.
TEST(BigUIntTest, AlgebraicIdentities) {
  Rng rng(1007);
  for (int i = 0; i < 200; ++i) {
    BigUInt a = BigUInt::RandomBits(&rng, 200);
    BigUInt b = BigUInt::RandomBits(&rng, 180);
    BigUInt c = BigUInt::RandomBits(&rng, 160);
    ASSERT_EQ((a + b) + c, a + (b + c));
    ASSERT_EQ(a * (b + c), a * b + a * c);
    ASSERT_EQ((a + b) * c, c * a + c * b);
  }
}

TEST(BigUIntTest, KaratsubaMatchesSchoolbookProducts) {
  // Operand sizes straddle the Karatsuba threshold (32 limbs = 2048 bits).
  Rng rng(1009);
  for (size_t bits : {1000u, 2000u, 3000u, 5000u, 9000u}) {
    BigUInt a = BigUInt::RandomBits(&rng, bits);
    BigUInt b = BigUInt::RandomBits(&rng, bits + 171);
    BigUInt p = a * b;
    if (!b.IsZero()) {
      EXPECT_EQ(p / b, a);
      EXPECT_TRUE((p % b).IsZero());
    }
  }
}

}  // namespace
}  // namespace psi
