// AVX-512 IFMA batch exponentiation: kIfmaLanes values raised to one shared
// exponent modulo one shared modulus, one value per 64-bit lane of a zmm
// register (docs/PERF.md "Batched exponentiation").
//
// Operands are D radix-2^52 digits, one zmm per digit, so every lane runs
// the same instruction stream and no lane ever reads another. The multiply
// is almost-Montgomery (AMM) with R = 2^(52*D) > 4n: for inputs below 2n
// the output stays below 2n, so no conditional subtraction is needed until
// the final conversion out of the Montgomery domain. The R differs from the
// scalar engine's 2^(64*L), but only the exact value base^exp mod n leaves
// this file, so results are bit-identical to the scalar kernels.

#include <cstddef>
#include <cstdint>

#include "bigint/limb_kernel.h"
#include "common/annotations.h"

#if PSI_LIMB_KERNEL_X86

namespace psi {
namespace limb_kernel {

namespace {

constexpr uint64_t kDigitMask = (uint64_t{1} << 52) - 1;
// Largest window WindowBitsFor (pow_window.h) picks.
constexpr size_t kMaxWindowBits = 5;

/// v >> 52 in every lane. The zero-masking form with a full mask is the
/// same instruction as _mm512_srli_epi64, whose undefined pass-through
/// operand GCC 12 reports as an uninitialized read.
__attribute__((target("avx512f"), always_inline)) inline __m512i Top12(
    __m512i v) {
  return _mm512_maskz_srli_epi64(static_cast<__mmask8>(0xff), v, 52);
}

/// out = a*b*R^-1 mod n up to one extra n, lane by lane: for a, b < 2n the
/// result is < 2n. Digits of a and b must be < 2^52 (IFMA reads only the
/// low 52 bits of each multiplicand); out may alias a or b.
///
/// The product phase accumulates every 104-bit partial product straight
/// into 64-bit column sums; the reduction phase then clears one column per
/// step, carrying its top bits into the next. No column sum exceeds
/// 4*D*2^52 + 2^52 < 2^64 for D <= 10, so nothing overflows before the
/// closing carry pass renormalizes the upper D columns to 52-bit digits.
template <size_t D>
__attribute__((target("avx512f,avx512ifma"), always_inline)) inline void Amm(
    const __m512i* a, const __m512i* b, const __m512i* n, const __m512i& k0,
    __m512i* out) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i col[2 * D];
  for (size_t k = 0; k < 2 * D; ++k) col[k] = zero;
  for (size_t i = 0; i < D; ++i) {
    for (size_t j = 0; j < D; ++j) {
      col[i + j] = _mm512_madd52lo_epu64(col[i + j], a[i], b[j]);
      col[i + j + 1] = _mm512_madd52hi_epu64(col[i + j + 1], a[i], b[j]);
    }
  }
  for (size_t i = 0; i < D; ++i) {
    // m makes column i vanish mod 2^52; IFMA reads only its low 52 bits.
    const __m512i m = _mm512_madd52lo_epu64(zero, col[i], k0);
    for (size_t j = 0; j < D; ++j) {
      col[i + j] = _mm512_madd52lo_epu64(col[i + j], m, n[j]);
      col[i + j + 1] = _mm512_madd52hi_epu64(col[i + j + 1], m, n[j]);
    }
    col[i + 1] = _mm512_add_epi64(col[i + 1], Top12(col[i]));
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  __m512i carry = zero;
  for (size_t j = 0; j < D; ++j) {
    const __m512i v = _mm512_add_epi64(col[D + j], carry);
    carry = Top12(v);
    out[j] = _mm512_and_si512(v, mask);
  }
}

template <size_t D>
__attribute__((target("avx512f,avx512ifma"))) void PowBatch(
    const uint64_t* base, const uint64_t* n, uint64_t k0, const uint64_t* rr,
    PSI_SECRET const uint8_t* digits, size_t num_digits, size_t w,
    uint64_t* out) {
  __m512i nv[D], acc[D], one[D];
  const __m512i k0v = _mm512_set1_epi64(static_cast<long long>(k0));
  // table[d] = base^d in Montgomery form for 1 <= d < 2^w (row 0 unused).
  __m512i table[size_t{1} << kMaxWindowBits][D];
  for (size_t j = 0; j < D; ++j) {
    nv[j] = _mm512_set1_epi64(static_cast<long long>(n[j]));
    acc[j] = _mm512_set1_epi64(static_cast<long long>(rr[j]));
    table[1][j] = _mm512_loadu_si512(base + j * kIfmaLanes);
    one[j] = _mm512_set1_epi64(j == 0 ? 1 : 0);
  }
  Amm<D>(table[1], acc, nv, k0v, table[1]);  // base * R mod n.
  // psi-lint: allow(secret-flow) shift count w is a function of the public key size only
  const size_t table_size = size_t{1} << w;
  for (size_t d = 2; d < table_size; ++d) {
    Amm<D>(table[d - 1], table[1], nv, k0v, table[d]);
  }
  // Every lane takes the same digit, so the walk never diverges: each step
  // is w squarings and at most one table multiply, exactly the scalar
  // engine's fixed-window sequence.
  // psi-lint: allow(secret-flow) windowed table walk at the key owner; same exposure DESIGN.md accepts for the scalar ladder
  for (size_t j = 0; j < D; ++j) acc[j] = table[digits[0]][j];
  for (size_t t = 1; t < num_digits; ++t) {
    for (size_t s = 0; s < w; ++s) Amm<D>(acc, acc, nv, k0v, acc);
    // psi-lint: allow(secret-flow) windowed table walk at the key owner; same exposure DESIGN.md accepts for the scalar ladder
    if (digits[t] != 0) Amm<D>(acc, table[digits[t]], nv, k0v, acc);
  }
  // REDC(acc * 1) = base^exp mod n, at most n (n only for a zero residue).
  Amm<D>(acc, one, nv, k0v, acc);
  for (size_t j = 0; j < D; ++j) {
    _mm512_storeu_si512(out + j * kIfmaLanes, acc[j]);
  }
}

}  // namespace

template <>
void PowBatchIfma<IfmaDigits(4)>(const uint64_t* base, const uint64_t* n,
                                 uint64_t k0, const uint64_t* rr,
                                 PSI_SECRET const uint8_t* digits,
                                 size_t num_digits, size_t w, uint64_t* out) {
  PowBatch<IfmaDigits(4)>(base, n, k0, rr, digits, num_digits, w, out);
}

template <>
void PowBatchIfma<IfmaDigits(8)>(const uint64_t* base, const uint64_t* n,
                                 uint64_t k0, const uint64_t* rr,
                                 PSI_SECRET const uint8_t* digits,
                                 size_t num_digits, size_t w, uint64_t* out) {
  PowBatch<IfmaDigits(8)>(base, n, k0, rr, digits, num_digits, w, out);
}

}  // namespace limb_kernel
}  // namespace psi

#endif  // PSI_LIMB_KERNEL_X86
