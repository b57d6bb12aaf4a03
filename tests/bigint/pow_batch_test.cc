// Differential tests for batched exponentiation: MontgomeryContext::PowBatch
// and ModPowBatch must equal per-base Pow/ModPow bit for bit, whichever path
// serves them (the AVX-512 IFMA lanes, the scalar engine loop, the heap
// loop), and the IFMA kernel's two-walk form must equal two one-walk calls
// and scalar Pow.

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "bigint/limb_kernel.h"
#include "bigint/modular.h"
#include "bigint/montgomery.h"
#include "bigint/pow_window.h"

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

#if PSI_LIMB_KERNEL_X86
// -- PowBatchIfma called directly --------------------------------------------

constexpr size_t kLanes = limb_kernel::kIfmaLanes;
constexpr uint64_t kDigitMask = (uint64_t{1} << 52) - 1;

// v as D radix-2^52 digits, written `stride` words apart.
void ToDigits52(const BigUInt& v, size_t d, uint64_t* out, size_t stride) {
  for (size_t j = 0; j < d; ++j) {
    uint64_t digit = 0;
    for (size_t b = 0; b < 52; ++b) {
      if (v.GetBit(j * 52 + b)) digit |= uint64_t{1} << b;
    }
    out[j * stride] = digit;
  }
}

BigUInt FromDigits52(const uint64_t* in, size_t d) {
  BigUInt v;
  for (size_t j = d; j-- > 0;) v = (v << 52) + BigUInt(in[j * kLanes]);
  return v;
}

// One walk's operands: a modulus, up to eight bases (< 2n) and its digits.
struct WalkCase {
  BigUInt n;
  std::vector<BigUInt> bases;
  std::vector<uint8_t> digits;  // Most significant first.
};

// The exponent a digit sequence encodes.
BigUInt ExponentOf(const std::vector<uint8_t>& digits, size_t w) {
  BigUInt e;
  for (uint8_t d : digits) e = (e << w) + BigUInt(d);
  return e;
}

// Runs K walks in one PowBatchIfma<D, K> call; returns each walk's live
// lanes as canonical residues.
template <size_t D, size_t K>
std::array<std::vector<BigUInt>, K> RunKernel(
    const std::array<WalkCase, K>& cases, size_t w) {
  struct Buffers {
    uint64_t n[D], rr[D], base[D * kLanes] = {}, out[D * kLanes];
  };
  std::array<Buffers, K> buf;
  std::array<limb_kernel::IfmaWalk, K> walks;
  const size_t num_digits = cases[0].digits.size();
  for (size_t k = 0; k < K; ++k) {
    const BigUInt& n = cases[k].n;
    EXPECT_EQ(cases[k].digits.size(), num_digits);
    ToDigits52(n, D, buf[k].n, 1);
    ToDigits52(BigUInt::PowerOfTwo(104 * D) % n, D, buf[k].rr, 1);
    for (size_t l = 0; l < cases[k].bases.size(); ++l) {
      ToDigits52(cases[k].bases[l], D, buf[k].base + l, kLanes);
    }
    // k0 = -n^-1 mod 2^52 by Newton's iteration on the low word.
    uint64_t inv = n.limb(0);
    for (int i = 0; i < 6; ++i) inv *= 2 - n.limb(0) * inv;
    walks[k] = {buf[k].base, buf[k].n, (0 - inv) & kDigitMask, buf[k].rr,
                cases[k].digits.data(), buf[k].out};
  }
  limb_kernel::PowBatchIfma<D, K>(walks.data(), num_digits, w);
  std::array<std::vector<BigUInt>, K> out;
  for (size_t k = 0; k < K; ++k) {
    for (size_t l = 0; l < cases[k].bases.size(); ++l) {
      BigUInt v = FromDigits52(buf[k].out + l, D);
      EXPECT_LE(v, cases[k].n);
      out[k].push_back(v == cases[k].n ? BigUInt() : v);
    }
  }
  return out;
}

// The paired walk against one-walk calls and scalar Pow, lane for lane.
void ExpectPairMatches(const WalkCase& a, const WalkCase& b, size_t w,
                       const std::string& what) {
  const auto paired = RunKernel<limb_kernel::IfmaDigits(4), 2>({a, b}, w);
  const auto single_a = RunKernel<limb_kernel::IfmaDigits(4), 1>({a}, w);
  const auto single_b = RunKernel<limb_kernel::IfmaDigits(4), 1>({b}, w);
  EXPECT_EQ(Hex(paired[0]), Hex(single_a[0])) << what;
  EXPECT_EQ(Hex(paired[1]), Hex(single_b[0])) << what;
  const WalkCase* both[] = {&a, &b};
  for (size_t k = 0; k < 2; ++k) {
    auto ctx = MontgomeryContext::Create(both[k]->n).ValueOrDie();
    EXPECT_EQ(Hex(paired[k]),
              Hex(PerBasePow(ctx, both[k]->bases,
                             ExponentOf(both[k]->digits, w))))
        << what << ", walk " << k;
  }
}

// `lanes` bases for n: the edges 0, 1, n-1, n and 2n-1 first, then random
// values below 2n (the kernel's input bound).
std::vector<BigUInt> KernelBases(Rng* rng, const BigUInt& n, size_t lanes) {
  std::vector<BigUInt> edges = {BigUInt(0), BigUInt(1), n - BigUInt(1), n,
                                n + n - BigUInt(1)};
  std::vector<BigUInt> bases;
  for (size_t i = 0; i < lanes; ++i) {
    bases.push_back(i < edges.size() ? edges[i]
                                     : BigUInt::RandomBelow(rng, n + n));
  }
  return bases;
}

// The digits of `exp` at window w, padded with leading zeros to `count`.
std::vector<uint8_t> DigitsOf(const BigUInt& exp, size_t w, size_t count) {
  std::vector<uint8_t> digits(count);
  for (size_t t = 0; t < count; ++t) {
    digits[t] =
        static_cast<uint8_t>(internal::ExpDigit(exp, (count - 1 - t) * w, w));
  }
  return digits;
}

TEST(PowBatchTest, PairedWalkMatchesSingleWalksAndPow) {
  if (!limb_kernel::IfmaKernelsAvailable()) {
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU (or portable kernels)";
  }
  Rng rng(23);
  const std::vector<BigUInt> moduli = Moduli(&rng, 256);
  // Exponent pairs of unequal length, so one walk is padded, plus equal
  // lengths, zero and one.
  const std::pair<size_t, size_t> lengths[] = {
      {255, 255}, {256, 200}, {17, 256}, {0, 130}, {1, 2}, {90, 96}};
  for (size_t i = 0; i < std::size(lengths); ++i) {
    const BigUInt ea = BigUInt::RandomBits(&rng, lengths[i].first);
    const BigUInt eb = BigUInt::RandomBits(&rng, lengths[i].second);
    const size_t bits = std::max(ea.BitLength(), eb.BitLength());
    const size_t w = internal::WindowBitsFor(bits);
    const size_t count = std::max<size_t>(1, (bits + w - 1) / w);
    for (size_t lanes = 1; lanes <= kLanes; ++lanes) {
      const BigUInt& na = moduli[i % moduli.size()];
      const BigUInt& nb = moduli[(i + 1) % moduli.size()];
      const WalkCase a{na, KernelBases(&rng, na, lanes), DigitsOf(ea, w, count)};
      const WalkCase b{nb, KernelBases(&rng, nb, lanes), DigitsOf(eb, w, count)};
      ExpectPairMatches(a, b, w,
                        "exp bits " + std::to_string(ea.BitLength()) + "/" +
                            std::to_string(eb.BitLength()) + ", " +
                            std::to_string(lanes) + " lanes");
    }
  }
}

TEST(PowBatchTest, PairedWalkZeroDigitInOneWalkOnly) {
  // Digit sequences written out directly: positions where only one walk's
  // digit is zero (that walk multiplies by R mod n), where both are zero
  // (the multiply is skipped), and a leading zero digit in each walk.
  if (!limb_kernel::IfmaKernelsAvailable()) {
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU (or portable kernels)";
  }
  Rng rng(29);
  const BigUInt na = Moduli(&rng, 256)[2];
  const BigUInt nb = Moduli(&rng, 256)[0];
  for (size_t w : {1u, 3u, 4u, 5u}) {
    const uint8_t top = static_cast<uint8_t>((1u << w) - 1);
    const std::vector<uint8_t> da = {0, top, 0, 1, 0, top, 0, 0, 1};
    const std::vector<uint8_t> db = {1, 0, 0, top, 1, 0, 0, top, 0};
    ExpectPairMatches({na, KernelBases(&rng, na, kLanes), da},
                      {nb, KernelBases(&rng, nb, kLanes), db}, w,
                      "w " + std::to_string(w));
    // All-zero digits in one walk: its exponent is 0, every result 1.
    ExpectPairMatches({na, KernelBases(&rng, na, 3),
                       std::vector<uint8_t>(da.size(), 0)},
                      {nb, KernelBases(&rng, nb, 3), db}, w,
                      "zero exponent, w " + std::to_string(w));
  }
}

TEST(PowBatchTest, PairedWalkCanonicalizesZeroResiduesInBothWalks) {
  // Prime-power moduli 3^161 and 5^110 (both 256 bits): powers of 3 and of
  // 5 reach a zero residue, which almost-Montgomery arithmetic may carry as
  // n instead of 0, in either walk.
  if (!limb_kernel::IfmaKernelsAvailable()) {
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU (or portable kernels)";
  }
  auto power = [](uint64_t b, size_t k) {
    BigUInt v(1);
    for (size_t i = 0; i < k; ++i) v = v * BigUInt(b);
    return v;
  };
  const BigUInt na = power(3, 161), nb = power(5, 110);
  ASSERT_EQ(na.BitLength(), 256u);
  ASSERT_EQ(nb.BitLength(), 256u);
  std::vector<BigUInt> ba, bb;
  for (size_t l = 0; l < kLanes; ++l) {
    ba.push_back(power(3, 20 * l + 1));
    bb.push_back(power(5, 14 * l + 1));
  }
  Rng rng(31);
  for (const BigUInt& exp :
       {BigUInt(2), BigUInt(65537), BigUInt::RandomBits(&rng, 255)}) {
    const size_t w = internal::WindowBitsFor(exp.BitLength());
    const size_t count = (exp.BitLength() + w - 1) / w;
    ExpectPairMatches({na, ba, DigitsOf(exp, w, count)},
                      {nb, bb, DigitsOf(exp, w, count)}, w,
                      std::to_string(exp.BitLength()) + "-bit exp");
  }
}

TEST(PowBatchTest, SingleWalkAt512BitsMatchesPow) {
  // D = 10 keeps one walk per call; the kernel against scalar Pow directly.
  if (!limb_kernel::IfmaKernelsAvailable()) {
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU (or portable kernels)";
  }
  Rng rng(37);
  for (const BigUInt& n : Moduli(&rng, 512)) {
    const BigUInt exp = BigUInt::RandomBits(&rng, 512);
    const size_t w = internal::WindowBitsFor(exp.BitLength());
    const size_t count = (exp.BitLength() + w - 1) / w;
    const WalkCase c{n, KernelBases(&rng, n, kLanes), DigitsOf(exp, w, count)};
    auto ctx = MontgomeryContext::Create(n).ValueOrDie();
    EXPECT_EQ(Hex(RunKernel<limb_kernel::IfmaDigits(8), 1>({c}, w)[0]),
              Hex(PerBasePow(ctx, c.bases, exp)));
  }
}
#endif  // PSI_LIMB_KERNEL_X86

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
