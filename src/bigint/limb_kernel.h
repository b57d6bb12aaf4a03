// Limb kernels: the word-level primitives under every fixed-width big-integer
// operation (fixed_mont.h) and under BigUInt's schoolbook multiply. Two
// implementations of each kernel exist:
//
//   * a portable C++ one built on `unsigned __int128` (always compiled), and
//   * an x86-64 BMI2/ADX variant — hand-scheduled mulx/adcx/adox rows in
//     inline asm for the fixed-width Montgomery multiply, carry-chain
//     intrinsics for the runtime-length kernels — compiled with
//     `__attribute__((target("bmi2,adx")))` and selected by a one-time
//     runtime CPUID check.
//
// On CPUs that also have AVX-512 IFMA the same check enables one more
// kernel, PowBatchIfma (limb_kernel_ifma.cc): eight exponentiations that
// share a modulus and an exponent, walked together in the eight 64-bit
// lanes of a zmm register, and optionally a second such walk under another
// modulus interleaved with the first (docs/PERF.md "Batched
// exponentiation").
//
// Both variants compute the same exact integers, so kernel selection can
// never change a protocol transcript — only wall-clock. The CMake option
// PSI_PORTABLE_KERNELS=ON (macro PSI_FORCE_PORTABLE_KERNELS) compiles the
// dispatch down to the portable path so CI can keep it from rotting.
//
// Fixed-width entry points are templates over the limb count: the loop
// bounds are compile-time constants, so the compiler fully unrolls or
// vectorizes them against stack buffers — no allocation, no dynamic sizing.

#ifndef PSI_BIGINT_LIMB_KERNEL_H_
#define PSI_BIGINT_LIMB_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "common/annotations.h"

#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(PSI_FORCE_PORTABLE_KERNELS)
#define PSI_LIMB_KERNEL_X86 1
#include <immintrin.h>
#include <x86intrin.h>
#else
#define PSI_LIMB_KERNEL_X86 0
#endif

namespace psi {
namespace limb_kernel {

__extension__ typedef unsigned __int128 u128;

/// \brief Which kernel implementation the process-wide dispatch selected.
enum class Variant {
  kPortable,    ///< unsigned __int128 arithmetic, any platform.
  kX86Adx,      ///< mulx/adcx/adox carry chains (x86-64 with BMI2+ADX).
  kX86AdxIfma,  ///< kX86Adx plus the AVX-512 IFMA batch exponentiation.
};

/// \brief The variant every dispatched kernel call uses, decided once per
/// process: kX86AdxIfma when the binary carries the x86 kernels and CPUID
/// reports BMI2+ADX+AVX512F+AVX512IFMA, kX86Adx without the AVX-512 pair,
/// else kPortable.
Variant ActiveVariant();

/// \brief True when the x86 kernels are compiled in AND this CPU can run
/// them. Tests use this to compare both implementations limb for limb.
bool X86KernelsAvailable();

/// \brief True when PowBatchIfma is compiled in AND this CPU can run it.
bool IfmaKernelsAvailable();

/// \brief Human-readable variant name ("portable" / "x86-adx" /
/// "x86-adx+ifma").
const char* VariantName(Variant v);

/// \brief True when the scalar x86 kernels serve this process (either x86
/// variant).
inline bool X86Active() { return ActiveVariant() != Variant::kPortable; }

// -- portable kernels ---------------------------------------------------------

/// out[0 .. an+bn) = a * b, schoolbook, runtime lengths. `out` must not
/// alias the inputs and must be zero-initialized by the caller.
void MulPortable(const uint64_t* a, size_t an, const uint64_t* b, size_t bn,
                 uint64_t* out);

#if PSI_LIMB_KERNEL_X86
// -- x86-64 BMI2/ADX kernels --------------------------------------------------
// Only call when X86KernelsAvailable(); running them on an older CPU is an
// illegal-instruction fault, not a wrong answer.

void MulX86(const uint64_t* a, size_t an, const uint64_t* b, size_t bn,
            uint64_t* out);

// -- AVX-512 IFMA batch exponentiation ----------------------------------------
// Only call when IfmaKernelsAvailable().

/// Exponentiations one PowBatchIfma call walks together, one per lane.
inline constexpr size_t kIfmaLanes = 8;

/// Radix-2^52 digits for an L-limb modulus n: the fewest D with
/// 4n < R = 2^(52*D), the bound that lets almost-Montgomery multiplication
/// skip its final subtraction.
constexpr size_t IfmaDigits(size_t limbs) { return (64 * limbs + 2 + 51) / 52; }

/// One exponentiation walk of a PowBatchIfma call: kIfmaLanes bases raised
/// to one exponent modulo one modulus, one base per lane. Every D-digit
/// operand is stored digit-major: digit j of lane l at [j * 8 + l], each
/// digit < 2^52. `n` is the odd modulus with 4n < 2^(52*D), `k0` =
/// -n^-1 mod 2^52, `rr` = 2^(104*D) mod n, and each base < 2n. `digits`
/// holds the exponent's fixed-window digits, most significant first. Each
/// out lane is <= n, equal to n only when the result is 0 mod n.
struct IfmaWalk {
  const uint64_t* base;
  const uint64_t* n;
  uint64_t k0;
  const uint64_t* rr;
  PSI_SECRET const uint8_t* digits;
  uint64_t* out;
};

/// Runs K independent walks in one instruction stream: every Montgomery
/// multiply issues the multiply-adds of all K walks interleaved, so one
/// walk's latency hides behind the other's work. The walks share the window
/// width `w` (1 <= w <= 5) and `num_digits` >= 1; a shorter exponent is
/// padded with leading zero digits. A walk's zero digit multiplies by R
/// mod n (table row 0), and the multiply step is skipped only when every
/// walk's digit is zero. Instantiated for K = 1 at D = IfmaDigits(4) and
/// IfmaDigits(8), and for K = 2 at D = IfmaDigits(4) only (docs/PERF.md
/// "Batched exponentiation").
template <size_t D, size_t K>
void PowBatchIfma(const IfmaWalk* walks, size_t num_digits, size_t w);
#endif  // PSI_LIMB_KERNEL_X86

/// Schoolbook multiply through the active variant (BigUInt's base case).
/// `out` must not alias the inputs; caller zero-initializes.
inline void Mul(const uint64_t* a, size_t an, const uint64_t* b, size_t bn,
                uint64_t* out) {
#if PSI_LIMB_KERNEL_X86
  if (X86Active()) {
    MulX86(a, an, b, bn, out);
    return;
  }
#endif
  MulPortable(a, an, b, bn, out);
}

// -- fixed-width kernels (header-only, compile-time unrolled) -----------------

/// out = a + b over L limbs; returns the carry out (0 or 1).
template <size_t L>
inline uint64_t AddFixed(const uint64_t* a, const uint64_t* b, uint64_t* out) {
  uint64_t carry = 0;
  for (size_t i = 0; i < L; ++i) {
    u128 sum = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  return carry;
}

/// out = a - b over L limbs; returns the borrow out (0 or 1).
template <size_t L>
inline uint64_t SubFixed(const uint64_t* a, const uint64_t* b, uint64_t* out) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < L; ++i) {
    u128 lhs = a[i];
    u128 rhs = static_cast<u128>(b[i]) + borrow;
    out[i] = static_cast<uint64_t>(lhs - rhs);
    borrow = lhs < rhs ? 1 : 0;
  }
  return borrow;
}

/// Three-way compare over L limbs (-1, 0, 1).
template <size_t L>
inline int CompareFixed(const uint64_t* a, const uint64_t* b) {
  for (size_t i = L; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// out[0 .. 2L) = a * b, schoolbook with compile-time bounds. `out` must not
/// alias the inputs; the kernel zeroes it.
template <size_t L>
inline void MulFixedSchoolbook(const uint64_t* a, const uint64_t* b,
                               uint64_t* out) {
  for (size_t i = 0; i < 2 * L; ++i) out[i] = 0;
  for (size_t i = 0; i < L; ++i) {
    uint64_t carry = 0;
    const u128 ai = a[i];
    for (size_t j = 0; j < L; ++j) {
      u128 cur = static_cast<u128>(out[i + j]) + ai * b[j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + L] = carry;
  }
}

/// Limb count at or above which MulFixed splits one Karatsuba level before
/// hitting the schoolbook base case. Stack-buffer Karatsuba has no
/// allocation cost, but the three extra add/sub passes still only amortize
/// on wide operands; 32 limbs (2048-bit operands, the Paillier n^2 width at
/// 1024-bit keys) is where the measured crossover sits — see the sweep
/// notes in biguint.cc next to kKaratsubaThreshold.
constexpr size_t kFixedKaratsubaLimbs = 32;

/// out[0 .. 2L) = a * b: one Karatsuba split for wide fixed operands (L
/// even and >= kFixedKaratsubaLimbs), schoolbook otherwise. All scratch is
/// on the stack.
template <size_t L>
inline void MulFixed(const uint64_t* a, const uint64_t* b, uint64_t* out) {
  if constexpr (L >= kFixedKaratsubaLimbs && L % 2 == 0) {
    constexpr size_t H = L / 2;
    // z0 = a0*b0, z2 = a1*b1 straight into the output halves.
    MulFixed<H>(a, b, out);
    MulFixed<H>(a + H, b + H, out + L);
    // (a0+a1), (b0+b1) with their carry bits.
    uint64_t as[H], bs[H], z1[L];
    const uint64_t ac = AddFixed<H>(a, a + H, as);
    const uint64_t bc = AddFixed<H>(b, b + H, bs);
    MulFixed<H>(as, bs, z1);
    // z1 += carry cross terms: ac*bs and bc*as shifted by H, plus ac*bc at 2H
    // (kept in a single carry accumulator since z1 is only 2H limbs wide).
    uint64_t hi = ac & bc;  // The 2H-limb coefficient of (a0+a1)(b0+b1).
    if (ac != 0) {
      uint64_t c = 0;
      for (size_t i = 0; i < H; ++i) {
        u128 sum = static_cast<u128>(z1[H + i]) + bs[i] + c;
        z1[H + i] = static_cast<uint64_t>(sum);
        c = static_cast<uint64_t>(sum >> 64);
      }
      hi += c;
    }
    if (bc != 0) {
      uint64_t c = 0;
      for (size_t i = 0; i < H; ++i) {
        u128 sum = static_cast<u128>(z1[H + i]) + as[i] + c;
        z1[H + i] = static_cast<uint64_t>(sum);
        c = static_cast<uint64_t>(sum >> 64);
      }
      hi += c;
    }
    // z1 -= z0 + z2 (the middle term), borrowing out of `hi`.
    hi -= SubFixed<L>(z1, out, z1);
    hi -= SubFixed<L>(z1, out + L, z1);
    // out += z1 << (64*H).
    uint64_t c = 0;
    for (size_t i = 0; i < L; ++i) {
      u128 sum = static_cast<u128>(out[H + i]) + z1[i] + c;
      out[H + i] = static_cast<uint64_t>(sum);
      c = static_cast<uint64_t>(sum >> 64);
    }
    // Fold the middle term's high coefficient into the top half.
    u128 top = static_cast<u128>(out[L + H]) + hi + c;
    out[L + H] = static_cast<uint64_t>(top);
    c = static_cast<uint64_t>(top >> 64);
    for (size_t i = L + H + 1; i < 2 * L && c != 0; ++i) {
      u128 sum = static_cast<u128>(out[i]) + c;
      out[i] = static_cast<uint64_t>(sum);
      c = static_cast<uint64_t>(sum >> 64);
    }
  } else {
    MulFixedSchoolbook<L>(a, b, out);
  }
}

/// Fused CIOS Montgomery multiply over a compile-time width:
/// out = a*b*R^-1 mod n with R = 2^(64*L). Preconditions: n odd,
/// n0 = -n^-1 mod 2^64, a < n, b < n; then out < n. Each row folds the
/// a[i]*b pass and the m*n reduction pass into ONE walk over the
/// accumulator with two independent carry words (c1 for the product chain,
/// c2 for the reduction chain): the chains have no data dependence on each
/// other within a column, so the out-of-order core overlaps them, which
/// measures ~20% faster than the classic two-pass CIOS at 16 limbs.
template <size_t L>
inline void MontMulFixedPortable(const uint64_t* a, const uint64_t* b,
                                 const uint64_t* n, uint64_t n0,
                                 uint64_t* out) {
  uint64_t t[L + 2] = {};
  for (size_t i = 0; i < L; ++i) {
    const u128 ai = a[i];
    // Column 0 decides m so the reduced low limb cancels exactly.
    u128 cur = static_cast<u128>(t[0]) + ai * b[0];
    const u128 m = static_cast<uint64_t>(static_cast<uint64_t>(cur) * n0);
    u128 red = static_cast<u128>(static_cast<uint64_t>(cur)) + m * n[0];
    uint64_t c1 = static_cast<uint64_t>(cur >> 64);
    uint64_t c2 = static_cast<uint64_t>(red >> 64);
    for (size_t j = 1; j < L; ++j) {
      cur = static_cast<u128>(t[j]) + ai * b[j] + c1;
      c1 = static_cast<uint64_t>(cur >> 64);
      red = static_cast<u128>(static_cast<uint64_t>(cur)) + m * n[j] + c2;
      c2 = static_cast<uint64_t>(red >> 64);
      t[j - 1] = static_cast<uint64_t>(red);
    }
    u128 last = static_cast<u128>(t[L]) + c1;
    last += c2;
    t[L - 1] = static_cast<uint64_t>(last);
    t[L] = t[L + 1] + static_cast<uint64_t>(last >> 64);
    t[L + 1] = 0;
  }
  // CIOS keeps t < 2n throughout, so one conditional subtract finishes.
  if (t[L] != 0 || CompareFixed<L>(t, n) >= 0) {
    SubFixed<L>(t, n, out);
  } else {
    for (size_t i = 0; i < L; ++i) out[i] = t[i];
  }
}

#if PSI_LIMB_KERNEL_X86
/// One multiply-accumulate row, t[0..L) += mult * src[0..L), as a single
/// asm block: per limb one `mulx` plus an `adox` chain (OF) for the
/// accumulator adds and an `adcx` chain (CF) for the high-limb ripple.
/// `.rept` unrolls the body at assemble time, so no loop counter ever
/// touches the flags the chains live in. The carry state that remains
/// after the last limb (the final high word plus one bit in each flag) is
/// returned for the caller to fold into t[L..L+2).
template <size_t L>
__attribute__((target("bmi2,adx"), always_inline)) inline void RowAddMulX86(
    uint64_t* t, const uint64_t* src, uint64_t mult, uint64_t* hi_out,
    uint64_t* of_out, uint64_t* cf_out) {
  uint64_t hi, of, cf;
  uint64_t* tp = t;
  const uint64_t* sp = src;
  asm volatile(
      "xor %k[hi], %k[hi]\n\t"  // hi = 0 and clears both CF and OF.
      ".rept %c[count]\n\t"
      "mulx (%[sp]), %%r8, %%r9\n\t"  // r9:r8 = mult * *sp
      "adox (%[tp]), %%r8\n\t"        // r8 += *tp   (OF chain)
      "adcx %[hi], %%r8\n\t"          // r8 += hi_prev (CF chain)
      "mov %%r8, (%[tp])\n\t"
      "mov %%r9, %[hi]\n\t"
      "lea 8(%[sp]), %[sp]\n\t"  // lea: pointer bump without flag writes
      "lea 8(%[tp]), %[tp]\n\t"
      ".endr\n\t"
      "mov $0, %k[of]\n\t"
      "mov $0, %k[cf]\n\t"
      "seto %b[of]\n\t"
      "setc %b[cf]\n\t"
      : [hi] "=&r"(hi), [of] "=&r"(of), [cf] "=&r"(cf), [tp] "+r"(tp),
        [sp] "+r"(sp)
      : "d"(mult), [count] "i"(L)
      : "r8", "r9", "cc", "memory");
  *hi_out = hi;
  *of_out = of;
  *cf_out = cf;
}

/// The reduction row with the CIOS shift folded into the stores:
/// t[j-1] = t[j] + m*n[j] + carries for j in 1..L). Column 0 contributes
/// only carries — m is chosen so t[0] + m*n[0] is 0 mod 2^64 — so its
/// result limb is never stored. Same chain structure as RowAddMulX86.
template <size_t L>
__attribute__((target("bmi2,adx"), always_inline)) inline void RowRedcX86(
    uint64_t* t, const uint64_t* n, uint64_t m, uint64_t* hi_out,
    uint64_t* of_out, uint64_t* cf_out) {
  uint64_t hi, of, cf;
  uint64_t* tp = t;
  const uint64_t* np = n;
  asm volatile(
      "xor %%r8d, %%r8d\n\t"          // clears CF and OF
      "mulx (%[np]), %%r8, %[hi]\n\t"  // hi:r8 = m * n[0]
      "adox (%[tp]), %%r8\n\t"         // low limb cancels; keep the OF carry
      ".rept %c[count]\n\t"
      "mulx 8(%[np]), %%r8, %%r9\n\t"
      "adox 8(%[tp]), %%r8\n\t"
      "adcx %[hi], %%r8\n\t"
      "mov %%r8, (%[tp])\n\t"  // shifted store: this is t[j-1]
      "mov %%r9, %[hi]\n\t"
      "lea 8(%[np]), %[np]\n\t"
      "lea 8(%[tp]), %[tp]\n\t"
      ".endr\n\t"
      "mov $0, %k[of]\n\t"
      "mov $0, %k[cf]\n\t"
      "seto %b[of]\n\t"
      "setc %b[cf]\n\t"
      : [hi] "=&r"(hi), [of] "=&r"(of), [cf] "=&r"(cf), [tp] "+r"(tp),
        [np] "+r"(np)
      : "d"(m), [count] "i"(L - 1)
      : "r8", "r9", "cc", "memory");
  *hi_out = hi;
  *of_out = of;
  *cf_out = cf;
}

/// CIOS with hand-scheduled BMI2/ADX rows: ~10 instructions per limb
/// against the ~30 the compiler gets from the __int128 formulation, which
/// is a measured ~1.8x kernel speedup at 16 limbs (~2.3x at 32). The
/// row kernels keep both carry chains in flags; only the per-row folds
/// into the top accumulator limbs run as plain C++. Only call when
/// X86KernelsAvailable(); on an older CPU these opcodes fault.
template <size_t L>
__attribute__((target("bmi2,adx"))) inline void MontMulFixedX86(
    const uint64_t* a, const uint64_t* b, const uint64_t* n, uint64_t n0,
    uint64_t* out) {
  uint64_t t[L + 2] = {};
  for (size_t i = 0; i < L; ++i) {
    uint64_t hi, of, cf;
    RowAddMulX86<L>(t, b, a[i], &hi, &of, &cf);
    u128 top = static_cast<u128>(t[L]) + hi + of;
    top += cf;
    t[L] = static_cast<uint64_t>(top);
    t[L + 1] += static_cast<uint64_t>(top >> 64);
    const uint64_t m = t[0] * n0;
    RowRedcX86<L>(t, n, m, &hi, &of, &cf);
    u128 last = static_cast<u128>(t[L]) + hi + of;
    last += cf;
    t[L - 1] = static_cast<uint64_t>(last);
    t[L] = t[L + 1] + static_cast<uint64_t>(last >> 64);
    t[L + 1] = 0;
  }
  // CIOS keeps t < 2n throughout, so one conditional subtract finishes.
  if (t[L] != 0 || CompareFixed<L>(t, n) >= 0) {
    SubFixed<L>(t, n, out);
  } else {
    for (size_t i = 0; i < L; ++i) out[i] = t[i];
  }
}
#endif  // PSI_LIMB_KERNEL_X86

/// Fixed-width Montgomery multiply through the active variant. This is the
/// innermost call of every fixed-width Pow/Encrypt/Decrypt.
template <size_t L>
inline void MontMul(const uint64_t* a, const uint64_t* b, const uint64_t* n,
                    uint64_t n0, uint64_t* out) {
#if PSI_LIMB_KERNEL_X86
  if (X86Active()) {
    MontMulFixedX86<L>(a, b, n, n0, out);
    return;
  }
#endif
  MontMulFixedPortable<L>(a, b, n, n0, out);
}

}  // namespace limb_kernel
}  // namespace psi

#endif  // PSI_BIGINT_LIMB_KERNEL_H_
