// AVX-512 IFMA batch exponentiation: kIfmaLanes values raised to one shared
// exponent modulo one shared modulus, one value per 64-bit lane of a zmm
// register, and up to two such walks interleaved in one instruction stream
// (docs/PERF.md "Batched exponentiation").
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

/// out[k] = a[k]*b[k]*R^-1 mod n[k] up to one extra n[k], lane by lane, for
/// each of K independent walks: for a, b < 2n the result is < 2n. Digits
/// of a and b must be < 2^52 (IFMA reads only the low 52 bits of each
/// multiplicand); out[k] may alias a[k] or b[k]. The innermost loop runs
/// over the walks, so their multiply-adds issue interleaved and each
/// walk's accumulator chain has the other's work to hide behind.
///
/// The product phase accumulates every 104-bit partial product straight
/// into 64-bit column sums; the reduction phase then clears one column per
/// step, carrying its top bits into the next. No column sum exceeds
/// 4*D*2^52 + 2^52 < 2^64 for D <= 10, so nothing overflows before the
/// closing carry pass renormalizes the upper D columns to 52-bit digits.
template <size_t D, size_t K>
__attribute__((target("avx512f,avx512ifma"), always_inline)) inline void Amm(
    const __m512i* const* a, const __m512i* const* b, const __m512i (*n)[D],
    const __m512i* k0, __m512i* const* out) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i col[K][2 * D];
  for (size_t k = 0; k < K; ++k) {
    for (size_t c = 0; c < 2 * D; ++c) col[k][c] = zero;
  }
  for (size_t i = 0; i < D; ++i) {
    for (size_t j = 0; j < D; ++j) {
      for (size_t k = 0; k < K; ++k) {
        col[k][i + j] = _mm512_madd52lo_epu64(col[k][i + j], a[k][i], b[k][j]);
        col[k][i + j + 1] =
            _mm512_madd52hi_epu64(col[k][i + j + 1], a[k][i], b[k][j]);
      }
    }
  }
  for (size_t i = 0; i < D; ++i) {
    // m makes column i vanish mod 2^52; IFMA reads only its low 52 bits.
    __m512i m[K];
    for (size_t k = 0; k < K; ++k) {
      m[k] = _mm512_madd52lo_epu64(zero, col[k][i], k0[k]);
    }
    for (size_t j = 0; j < D; ++j) {
      for (size_t k = 0; k < K; ++k) {
        col[k][i + j] = _mm512_madd52lo_epu64(col[k][i + j], m[k], n[k][j]);
        col[k][i + j + 1] =
            _mm512_madd52hi_epu64(col[k][i + j + 1], m[k], n[k][j]);
      }
    }
    for (size_t k = 0; k < K; ++k) {
      col[k][i + 1] = _mm512_add_epi64(col[k][i + 1], Top12(col[k][i]));
    }
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  for (size_t k = 0; k < K; ++k) {
    __m512i carry = zero;
    for (size_t j = 0; j < D; ++j) {
      const __m512i v = _mm512_add_epi64(col[k][D + j], carry);
      carry = Top12(v);
      out[k][j] = _mm512_and_si512(v, mask);
    }
  }
}

template <size_t D, size_t K>
__attribute__((target("avx512f,avx512ifma"))) void PowBatch(
    const IfmaWalk* walks, size_t num_digits, size_t w) {
  __m512i nv[K][D], k0v[K], acc[K][D], one[D];
  // table[k][d] = base_k^d in Montgomery form for 0 <= d < 2^w; row 0 is
  // R mod n, the Montgomery one a zero digit multiplies by.
  __m512i table[K][size_t{1} << kMaxWindowBits][D];
  const __m512i* a[K];
  const __m512i* b[K];
  __m512i* out[K];
  const __m512i* ones[K];
  __m512i* accs[K];
  for (size_t j = 0; j < D; ++j) one[j] = _mm512_set1_epi64(j == 0 ? 1 : 0);
  for (size_t k = 0; k < K; ++k) {
    k0v[k] = _mm512_set1_epi64(static_cast<long long>(walks[k].k0));
    for (size_t j = 0; j < D; ++j) {
      nv[k][j] = _mm512_set1_epi64(static_cast<long long>(walks[k].n[j]));
      acc[k][j] = _mm512_set1_epi64(static_cast<long long>(walks[k].rr[j]));
      table[k][1][j] = _mm512_loadu_si512(walks[k].base + j * kIfmaLanes);
    }
    ones[k] = one;
    accs[k] = acc[k];
    a[k] = table[k][1];
    out[k] = table[k][1];
  }
  Amm<D, K>(a, accs, nv, k0v, out);  // base * R mod n.
  for (size_t k = 0; k < K; ++k) out[k] = table[k][0];
  Amm<D, K>(accs, ones, nv, k0v, out);  // R^2 * R^-1 = R mod n.
  // psi-lint: allow(secret-flow) shift count w is a function of the public key size only
  const size_t table_size = size_t{1} << w;
  for (size_t d = 2; d < table_size; ++d) {
    for (size_t k = 0; k < K; ++k) {
      a[k] = table[k][d - 1];
      b[k] = table[k][1];
      out[k] = table[k][d];
    }
    Amm<D, K>(a, b, nv, k0v, out);
  }
  // Every lane of a walk takes the same digit, so the lanes never diverge:
  // each step is w squarings and at most one table multiply, exactly the
  // scalar engine's fixed-window sequence. The multiply is skipped only
  // when every walk's digit is zero; a walk whose own digit is zero then
  // multiplies by row 0, which leaves its value unchanged mod n.
  for (size_t k = 0; k < K; ++k) {
    for (size_t j = 0; j < D; ++j) {
      // psi-lint: allow(secret-flow) windowed table walk at the key owner; same exposure DESIGN.md accepts for the scalar ladder
      acc[k][j] = table[k][walks[k].digits[0]][j];
    }
  }
  for (size_t t = 1; t < num_digits; ++t) {
    for (size_t s = 0; s < w; ++s) Amm<D, K>(accs, accs, nv, k0v, accs);
    bool any = false;
    for (size_t k = 0; k < K; ++k) {
      // psi-lint: allow(secret-flow) windowed table walk at the key owner; same exposure DESIGN.md accepts for the scalar ladder
      b[k] = table[k][walks[k].digits[t]];
      any = any || walks[k].digits[t] != 0;
    }
    // psi-lint: allow(secret-flow) windowed table walk at the key owner; same exposure DESIGN.md accepts for the scalar ladder
    if (any) Amm<D, K>(accs, b, nv, k0v, accs);
  }
  // REDC(acc * 1) = base^exp mod n, at most n (n only for a zero residue).
  Amm<D, K>(accs, ones, nv, k0v, accs);
  for (size_t k = 0; k < K; ++k) {
    for (size_t j = 0; j < D; ++j) {
      _mm512_storeu_si512(walks[k].out + j * kIfmaLanes, acc[k][j]);
    }
  }
}

}  // namespace

template <>
void PowBatchIfma<IfmaDigits(4), 1>(const IfmaWalk* walks, size_t num_digits,
                                    size_t w) {
  PowBatch<IfmaDigits(4), 1>(walks, num_digits, w);
}

template <>
void PowBatchIfma<IfmaDigits(4), 2>(const IfmaWalk* walks, size_t num_digits,
                                    size_t w) {
  PowBatch<IfmaDigits(4), 2>(walks, num_digits, w);
}

template <>
void PowBatchIfma<IfmaDigits(8), 1>(const IfmaWalk* walks, size_t num_digits,
                                    size_t w) {
  PowBatch<IfmaDigits(8), 1>(walks, num_digits, w);
}

}  // namespace limb_kernel
}  // namespace psi

#endif  // PSI_LIMB_KERNEL_X86
