// Differential tests for the fixed-width big-integer engine: every
// fixed-width limb kernel and FixedMontEngine operation is checked limb for
// limb against the heap BigUInt path across all instantiated widths
// (4/8/16/32/64 limbs), on random operands and on the edge operands the
// kernels are most likely to get wrong (0, 1, modulus-1, values straddling
// R). A separate case pins the portable and x86 kernel variants to
// identical limbs, so runtime dispatch can never change a transcript. The
// kernels work on raw little-endian limb arrays; the suite keeps the name
// of the fixed-width integer type it was first written for.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "bigint/biguint.h"
#include "bigint/fixed_mont.h"
#include "bigint/limb_kernel.h"
#include "bigint/modular.h"
#include "bigint/montgomery.h"
#include "common/random.h"
#include "crypto/paillier.h"

namespace psi {
namespace {

#if PSI_LIMB_KERNEL_X86
// -n^-1 mod 2^64 by Newton-Hensel, as MontgomeryContext computes it. Only
// the portable-vs-x86 kernel comparison needs it; the portable-only build
// compiles that test body out.
uint64_t NPrime(const BigUInt& n) {
  const uint64_t odd = n.limb(0);
  uint64_t x = odd;
  for (int i = 0; i < 6; ++i) x *= 2 - odd * x;
  return ~x + 1;
}
#endif  // PSI_LIMB_KERNEL_X86

// A random odd modulus of exactly `limbs` limbs (top bit set).
BigUInt RandomModulus(Rng* rng, size_t limbs) {
  BigUInt m = BigUInt::RandomBits(rng, limbs * 64);
  m.SetBit(limbs * 64 - 1);
  m.SetBit(0);
  return m;
}

// Loads v into an L-limb array (high limbs zero), as the engine's boundary
// does. Precondition: v.num_limbs() <= L.
template <size_t L>
void ToLimbs(const BigUInt& v, uint64_t* out) {
  for (size_t i = 0; i < L; ++i) out[i] = v.limb(i);
}

template <size_t L>
BigUInt FromLimbs(const uint64_t* limbs) {
  return BigUInt::FromLimbs(limbs, L);
}

template <size_t L>
void CheckAddSubMul(Rng* rng) {
  const BigUInt truncator = BigUInt(1) << (L * 64);
  for (int trial = 0; trial < 50; ++trial) {
    BigUInt a = BigUInt::RandomBits(rng, L * 64);
    BigUInt b = BigUInt::RandomBits(rng, L * 64);
    uint64_t fa[L], fb[L];
    ToLimbs<L>(a, fa);
    ToLimbs<L>(b, fb);

    uint64_t sum[L];
    const uint64_t carry = limb_kernel::AddFixed<L>(fa, fb, sum);
    const BigUInt want_sum = a + b;
    EXPECT_EQ(FromLimbs<L>(sum), want_sum % truncator) << "width " << L;
    EXPECT_EQ(carry, want_sum >= truncator ? 1u : 0u) << "width " << L;

    uint64_t diff[L];
    const uint64_t borrow = limb_kernel::SubFixed<L>(fa, fb, diff);
    if (a >= b) {
      EXPECT_EQ(FromLimbs<L>(diff), a - b) << "width " << L;
      EXPECT_EQ(borrow, 0u) << "width " << L;
    } else {
      EXPECT_EQ(FromLimbs<L>(diff), truncator - (b - a)) << "width " << L;
      EXPECT_EQ(borrow, 1u) << "width " << L;
    }

    uint64_t prod[2 * L];
    limb_kernel::MulFixed<L>(fa, fb, prod);
    EXPECT_EQ(FromLimbs<2 * L>(prod), a * b) << "width " << L;

    EXPECT_EQ(limb_kernel::CompareFixed<L>(fa, fb),
              a < b ? -1 : (a == b ? 0 : 1));
    EXPECT_EQ(limb_kernel::CompareFixed<L>(fa, fa), 0);
  }
  // Edge operands: zero and all-ones.
  const uint64_t zero[L] = {};
  uint64_t ones[L];
  ToLimbs<L>(truncator - BigUInt(1), ones);
  uint64_t out[L];
  EXPECT_EQ(limb_kernel::AddFixed<L>(ones, ones, out), 1u);
  EXPECT_EQ(FromLimbs<L>(out), truncator - BigUInt(2));
  EXPECT_EQ(limb_kernel::SubFixed<L>(zero, ones, out), 1u);
  EXPECT_EQ(FromLimbs<L>(out), BigUInt(1));
  uint64_t sq[2 * L];
  limb_kernel::MulFixed<L>(ones, ones, sq);
  const BigUInt max = truncator - BigUInt(1);
  EXPECT_EQ(FromLimbs<2 * L>(sq), max * max);
  EXPECT_EQ(limb_kernel::CompareFixed<L>(zero, ones), -1);
}

TEST(FixedUIntTest, AddSubMulMatchBigUIntAllWidths) {
  Rng rng(71);
  CheckAddSubMul<4>(&rng);
  CheckAddSubMul<8>(&rng);
  CheckAddSubMul<16>(&rng);
  CheckAddSubMul<32>(&rng);
  CheckAddSubMul<64>(&rng);
}

TEST(FixedUIntTest, RoundTripAndFits) {
  // The engine's boundary: a BigUInt that fits L limbs survives the trip
  // into an L-limb array and back, zero-padded when it is shorter.
  Rng rng(72);
  for (int trial = 0; trial < 20; ++trial) {
    BigUInt v = BigUInt::RandomBits(&rng, 8 * 64);
    ASSERT_LE(v.num_limbs(), 8u);
    uint64_t limbs8[8], limbs16[16];
    ToLimbs<8>(v, limbs8);
    EXPECT_EQ(FromLimbs<8>(limbs8), v);
    ToLimbs<16>(v, limbs16);
    EXPECT_EQ(FromLimbs<16>(limbs16), v);
    for (size_t i = 8; i < 16; ++i) EXPECT_EQ(limbs16[i], 0u);
  }
  const BigUInt wide = BigUInt(1) << (9 * 64);
  EXPECT_GT(wide.num_limbs(), 8u);
}

// The operand set MontMul differentials sweep: random residues plus the
// boundary values (0, 1, n-1) and values straddling R mod n (Montgomery 1
// plus/minus small deltas, where the conditional-subtract decision flips).
std::vector<BigUInt> EdgeResidues(Rng* rng, const BigUInt& n,
                                  const BigUInt& r_mod_n) {
  std::vector<BigUInt> v;
  v.push_back(BigUInt(0));
  v.push_back(BigUInt(1));
  v.push_back(n - BigUInt(1));
  v.push_back(r_mod_n);
  v.push_back((r_mod_n + BigUInt(1)) % n);
  v.push_back((r_mod_n + n - BigUInt(1)) % n);
  for (int i = 0; i < 4; ++i) v.push_back(BigUInt::RandomBelow(rng, n));
  return v;
}

template <size_t L>
void CheckMontgomeryDifferential(Rng* rng) {
  const BigUInt n = RandomModulus(rng, L);
  auto fixed = MontgomeryContext::Create(n).ValueOrDie();
  auto heap = MontgomeryContext::Create(n, EngineMode::kHeapOnly).ValueOrDie();
  ASSERT_NE(fixed.fixed_engine(), nullptr) << "width " << L;
  ASSERT_EQ(heap.fixed_engine(), nullptr) << "width " << L;
  ASSERT_EQ(fixed.fixed_engine()->limbs(), L);

  const auto operands = EdgeResidues(rng, n, fixed.OneMontgomery());
  for (const BigUInt& a : operands) {
    EXPECT_EQ(fixed.ToMontgomery(a), heap.ToMontgomery(a)) << "width " << L;
    EXPECT_EQ(fixed.FromMontgomery(a), heap.FromMontgomery(a))
        << "width " << L;
    for (const BigUInt& b : operands) {
      EXPECT_EQ(fixed.Multiply(a, b), heap.Multiply(a, b)) << "width " << L;
    }
  }

  // Pow: random exponents plus degenerate ones.
  std::vector<BigUInt> exps{BigUInt(0), BigUInt(1), BigUInt(2),
                            n - BigUInt(1),
                            BigUInt::RandomBits(rng, L * 64),
                            BigUInt::RandomBits(rng, 17)};
  for (const BigUInt& base : operands) {
    for (const BigUInt& e : exps) {
      EXPECT_EQ(fixed.Pow(base, e), heap.Pow(base, e))
          << "width " << L << " base " << base.ToHexString();
    }
  }
}

TEST(FixedUIntTest, MontgomeryEngineMatchesHeapAllWidths) {
  Rng rng(73);
  CheckMontgomeryDifferential<4>(&rng);
  CheckMontgomeryDifferential<8>(&rng);
  CheckMontgomeryDifferential<16>(&rng);
  CheckMontgomeryDifferential<32>(&rng);
  CheckMontgomeryDifferential<64>(&rng);
}

TEST(FixedUIntTest, EngineAttachesOnlyOnExactWidthMatch) {
  Rng rng(74);
  // 5 limbs is not an instantiated geometry; 4 is.
  auto odd_width = MontgomeryContext::Create(RandomModulus(&rng, 5));
  ASSERT_TRUE(odd_width.ok());
  EXPECT_EQ(odd_width.ValueOrDie().fixed_engine(), nullptr);
  auto matching = MontgomeryContext::Create(RandomModulus(&rng, 4));
  ASSERT_TRUE(matching.ok());
  EXPECT_NE(matching.ValueOrDie().fixed_engine(), nullptr);
}

template <size_t L>
void CheckKernelVariantsAgree(Rng* rng) {
#if PSI_LIMB_KERNEL_X86
  if (!limb_kernel::X86KernelsAvailable()) GTEST_SKIP();
  const BigUInt n = RandomModulus(rng, L);
  const uint64_t n0 = NPrime(n);
  uint64_t fn[L];
  ToLimbs<L>(n, fn);
  for (int trial = 0; trial < 30; ++trial) {
    BigUInt a = BigUInt::RandomBelow(rng, n);
    BigUInt b = trial == 0 ? n - BigUInt(1) : BigUInt::RandomBelow(rng, n);
    uint64_t fa[L], fb[L];
    ToLimbs<L>(a, fa);
    ToLimbs<L>(b, fb);
    uint64_t portable[L], x86[L];
    limb_kernel::MontMulFixedPortable<L>(fa, fb, fn, n0, portable);
    limb_kernel::MontMulFixedX86<L>(fa, fb, fn, n0, x86);
    ASSERT_EQ(std::memcmp(portable, x86, sizeof(portable)), 0)
        << "width " << L << " trial " << trial;

    uint64_t mul_p[2 * L] = {};
    uint64_t mul_x[2 * L] = {};
    limb_kernel::MulPortable(fa, L, fb, L, mul_p);
    limb_kernel::MulX86(fa, L, fb, L, mul_x);
    ASSERT_EQ(std::memcmp(mul_p, mul_x, sizeof(mul_p)), 0) << "width " << L;
  }
#else
  (void)rng;
  GTEST_SKIP() << "x86 kernels not compiled in";
#endif
}

TEST(FixedUIntTest, PortableAndX86KernelsProduceIdenticalLimbs) {
  Rng rng(75);
  CheckKernelVariantsAgree<4>(&rng);
  CheckKernelVariantsAgree<8>(&rng);
  CheckKernelVariantsAgree<16>(&rng);
  CheckKernelVariantsAgree<32>(&rng);
  CheckKernelVariantsAgree<64>(&rng);
}

TEST(FixedUIntTest, ScopedHeapOnlyModPowMatchesEnginePath) {
  Rng rng(76);
  const BigUInt n = RandomModulus(&rng, 8);
  const BigUInt base = BigUInt::RandomBelow(&rng, n);
  const BigUInt exp = BigUInt::RandomBits(&rng, 512);
  const BigUInt with_engine = ModPow(base, exp, n);
  {
    ScopedHeapOnlyModPow heap_only;
    auto ctx = MontgomeryContext::Create(n).ValueOrDie();
    EXPECT_EQ(ctx.fixed_engine(), nullptr)
        << "guard must force heap contexts even under EngineMode::kAuto";
    EXPECT_EQ(ModPow(base, exp, n), with_engine);
  }
  // Engine path restored after the guard dies.
  auto ctx = MontgomeryContext::Create(n).ValueOrDie();
  EXPECT_NE(ctx.fixed_engine(), nullptr);
  EXPECT_EQ(ModPow(base, exp, n), with_engine);
}

TEST(FixedUIntTest, PaillierDecryptMatchesUnderHeapGuard) {
  Rng rng(77);
  auto kp = PaillierGenerateKeyPair(&rng, 256).ValueOrDie();
  const BigUInt m(123456789u);
  const BigUInt c = PaillierEncrypt(kp.public_key, m, &rng).ValueOrDie();
  const BigUInt fast = PaillierDecryptCrt(kp.private_key, c).ValueOrDie();
  EXPECT_EQ(fast, m);
  {
    ScopedHeapOnlyModPow heap_only;
    EXPECT_EQ(PaillierDecryptCrt(kp.private_key, c).ValueOrDie(), fast);
    EXPECT_EQ(PaillierDecrypt(kp.private_key, c).ValueOrDie(), fast);
  }
}

}  // namespace
}  // namespace psi
