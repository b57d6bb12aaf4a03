// Differential tests for batched exponentiation: MontgomeryContext::PowBatch
// and ModPowBatch must equal per-base Pow/ModPow bit for bit, whichever path
// serves them (the AVX-512 IFMA lanes, the scalar engine loop, the heap
// loop).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bigint/limb_kernel.h"
#include "bigint/modular.h"
#include "bigint/montgomery.h"

namespace psi {
namespace {

constexpr size_t kBatchSizes[] = {0, 1, 7, 8, 9, 17, 320};

// Odd moduli of exactly `bits` bits, including both ends of the width: the
// IFMA radix needs 4n < 2^(52*D), tightest when n is all ones.
std::vector<BigUInt> Moduli(Rng* rng, size_t bits) {
  BigUInt all_ones = BigUInt::PowerOfTwo(bits) - BigUInt(1);
  BigUInt top_only = BigUInt::PowerOfTwo(bits - 1) + BigUInt(1);
  BigUInt random = BigUInt::RandomBits(rng, bits);
  random.SetBit(bits - 1);
  random.SetBit(0);
  return {all_ones, top_only, random};
}

// Exponents covering every window width WindowBitsFor picks (1 to 5 bits),
// the RSA public exponent, and the trivial 0 and 1.
std::vector<BigUInt> Exponents(Rng* rng) {
  return {BigUInt(0),
          BigUInt(1),
          BigUInt(3),
          BigUInt(65537),
          BigUInt::RandomBits(rng, 90),
          BigUInt::RandomBits(rng, 255),
          BigUInt::RandomBits(rng, 512),
          BigUInt::RandomBits(rng, 1100)};
}

// `count` bases below n, with the edge values 0, 1, n-1 and bases >= n
// (including ones wider than n) planted at the front.
std::vector<BigUInt> Bases(Rng* rng, const BigUInt& n, size_t count) {
  std::vector<BigUInt> edges = {BigUInt(0),          BigUInt(1),
                                n - BigUInt(1),      n,
                                n + BigUInt(1),      n * n + BigUInt(5),
                                n * BigUInt(3)};
  std::vector<BigUInt> bases;
  for (size_t i = 0; i < count; ++i) {
    bases.push_back(i < edges.size() ? edges[i]
                                     : BigUInt::RandomBelow(rng, n));
  }
  return bases;
}

// Hex strings, so a mismatch prints values instead of object bytes.
std::vector<std::string> Hex(const std::vector<BigUInt>& values) {
  std::vector<std::string> out;
  for (const BigUInt& v : values) out.push_back(v.ToHexString());
  return out;
}

std::vector<BigUInt> PerBasePow(const MontgomeryContext& ctx,
                                const std::vector<BigUInt>& bases,
                                const BigUInt& exp) {
  std::vector<BigUInt> out;
  for (const BigUInt& b : bases) out.push_back(ctx.Pow(b, exp));
  return out;
}

TEST(PowBatchTest, IfmaLanesMatchScalarEnginePow) {
  if (!limb_kernel::IfmaKernelsAvailable()) {
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU (or portable kernels)";
  }
  Rng rng(2024);
  for (size_t bits : {256u, 512u}) {
    for (const BigUInt& n : Moduli(&rng, bits)) {
      auto ctx = MontgomeryContext::Create(n).ValueOrDie();
      ASSERT_NE(ctx.fixed_engine(), nullptr);
      for (const BigUInt& exp : Exponents(&rng)) {
        for (size_t count : kBatchSizes) {
          // 320 bases per exponent is slow on the scalar side; one
          // exponent is enough to cover the long batch.
          if (count == 320 && exp.BitLength() != 255) continue;
          const std::vector<BigUInt> bases = Bases(&rng, n, count);
          EXPECT_EQ(Hex(ctx.PowBatch(bases, exp)), Hex(PerBasePow(ctx, bases, exp)))
              << bits << "-bit n, " << exp.BitLength() << "-bit exp, "
              << count << " bases";
        }
      }
    }
  }
}

TEST(PowBatchTest, IfmaLanesCanonicalizeZeroResidues) {
  // Under a prime-power modulus a nonzero base can have a zero power, and
  // almost-Montgomery arithmetic may then carry n instead of 0 to the end:
  // the result must still come out as 0.
  if (!limb_kernel::IfmaKernelsAvailable()) {
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU (or portable kernels)";
  }
  Rng rng(3);
  for (size_t k : {161u, 323u}) {  // 3^161: 256 bits; 3^323: 512 bits.
    BigUInt n(1), three(3);
    for (size_t i = 0; i < k; ++i) n = n * three;
    auto ctx = MontgomeryContext::Create(n).ValueOrDie();
    std::vector<BigUInt> bases;
    BigUInt power(1);
    for (size_t i = 0; i < 24; ++i) {
      bases.push_back(power);
      for (size_t j = 0; j < k / 24 + 1; ++j) power = power * three;
    }
    for (const BigUInt& exp : {BigUInt(2), BigUInt(3), BigUInt(65537),
                               BigUInt::RandomBits(&rng, 255)}) {
      EXPECT_EQ(Hex(ctx.PowBatch(bases, exp)), Hex(PerBasePow(ctx, bases, exp)))
          << "3^" << k << ", " << exp.BitLength() << "-bit exp";
    }
  }
}

TEST(PowBatchTest, BatchMatchesHeapPath) {
  // Engine-backed batches (IFMA or the scalar loop) against the heap-only
  // context's batch and per-base Pow. Also covers widths no batch kernel
  // serves (1024-bit: the default loop over the engine's Pow).
  Rng rng(7);
  for (size_t bits : {256u, 512u, 1024u}) {
    const BigUInt n = Moduli(&rng, bits)[2];
    auto fixed = MontgomeryContext::Create(n).ValueOrDie();
    auto heap = MontgomeryContext::Create(n, EngineMode::kHeapOnly).ValueOrDie();
    ASSERT_EQ(heap.fixed_engine(), nullptr);
    for (const BigUInt& exp : {BigUInt(65537), BigUInt::RandomBits(&rng, 200)}) {
      for (size_t count : kBatchSizes) {
        const std::vector<BigUInt> bases = Bases(&rng, n, count);
        const std::vector<BigUInt> want = heap.PowBatch(bases, exp);
        EXPECT_EQ(Hex(want), Hex(PerBasePow(heap, bases, exp)));
        EXPECT_EQ(Hex(fixed.PowBatch(bases, exp)), Hex(want))
            << bits << "-bit n, " << count << " bases";
      }
    }
  }
}

TEST(PowBatchTest, ModPowBatchMatchesModPow) {
  // Every ModPow route: Montgomery contexts (engine, and heap under the
  // guard), tiny exponents and small or even moduli on the generic path.
  Rng rng(11);
  const BigUInt n256 = Moduli(&rng, 256)[2];
  const BigUInt n512 = Moduli(&rng, 512)[2];
  const BigUInt small_odd(1000003);
  const BigUInt even = n256 + BigUInt(1);
  for (bool heap_only : {false, true}) {
    std::optional<ScopedHeapOnlyModPow> guard;
    if (heap_only) guard.emplace();
    for (const BigUInt& m : {n256, n512, small_odd, even, BigUInt(1)}) {
      for (const BigUInt& exp :
           {BigUInt(0), BigUInt(5), BigUInt(65537),
            BigUInt::RandomBits(&rng, 256)}) {
        const std::vector<BigUInt> bases = Bases(&rng, m + BigUInt(2), 17);
        std::vector<BigUInt> want;
        for (const BigUInt& b : bases) want.push_back(ModPow(b, exp, m));
        EXPECT_EQ(Hex(ModPowBatch(bases, exp, m)), Hex(want))
            << m.BitLength() << "-bit m, " << exp.BitLength()
            << "-bit exp, heap_only " << heap_only;
      }
    }
  }
}

TEST(PowBatchTest, VariantNameNamesTheBatchKernel) {
  const char* name = limb_kernel::VariantName(limb_kernel::ActiveVariant());
  if (limb_kernel::IfmaKernelsAvailable()) {
    EXPECT_STREQ(name, "x86-adx+ifma");
  } else {
    EXPECT_EQ(std::string(name).find("ifma"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace psi
