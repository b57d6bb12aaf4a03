// Fixed-width Montgomery engine: the stack-allocated fast path under
// MontgomeryContext. When a modulus is exactly one of the instantiated limb
// widths (the 512/1024/2048-bit key geometries Paillier/RSA use, their n^2,
// and the CRT half-sizes), MontgomeryContext::Create attaches an engine and
// routes Multiply/Pow/ToMontgomery/FromMontgomery through it: every inner
// multiply becomes a compile-time-unrolled CIOS kernel over raw limb arrays
// on the stack (limb_kernel.h) instead of heap-limbed BigUInt REDC.
//
// The engine uses the SAME R = 2^(64 * num_limbs(n)) as the heap path — the
// exact-width match in MakeFixedMontEngine guarantees that — so Montgomery-
// domain values are interchangeable between the two paths and results are
// bit-for-bit identical. Kernel choice (portable vs x86) cannot change any
// value either; both compute the same exact integers. Protocol transcripts
// therefore do not move by a single byte when the engine engages.
//
// To add a new key geometry: add its limb width to kFixedMontWidths and a
// matching case in MakeFixedMontEngine's width switch (fixed_mont.cc) —
// that case instantiates FixedMontEngine<W> and all its kernels. Nothing
// else changes (docs/PERF.md "Fixed-width limb engine").

#ifndef PSI_BIGINT_FIXED_MONT_H_
#define PSI_BIGINT_FIXED_MONT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bigint/biguint.h"
#include "common/annotations.h"

namespace psi {

/// Widths (in 64-bit limbs) the engine is instantiated for: 256 to
/// 4096-bit moduli in powers of two. Covers p/q, p^2/q^2, n and n^2 for
/// 512/1024/2048-bit Paillier/RSA keys.
inline constexpr size_t kFixedMontWidths[] = {4, 8, 16, 32, 64};

/// \brief Type-erased fixed-width Montgomery engine for one odd modulus.
///
/// Every entry point takes and returns BigUInt and converts at the boundary
/// only; inside, Pow and PowBatch run on stack limb buffers of the engine's
/// width (FixedMontEngine<L> in fixed_mont.cc, whose raw-limb members
/// FixedCrtPow reaches by concrete type). Read-only after construction:
/// safe to share across ParallelFor workers.
class FixedMontEngineBase {
 public:
  virtual ~FixedMontEngineBase() = default;

  /// The engine's width in limbs, == num_limbs of the modulus.
  virtual size_t limbs() const = 0;

  /// Montgomery product of two domain values (< n).
  virtual BigUInt Multiply(const BigUInt& a, const BigUInt& b) const = 0;

  virtual BigUInt ToMontgomery(const BigUInt& a) const = 0;
  virtual BigUInt FromMontgomery(const BigUInt& a) const = 0;

  /// base^exp mod n, fixed-window ladder over the raw kernels. `base` is an
  /// ordinary residue (reduced internally). The exponent is key material on
  /// the decrypt path, hence the taint annotation.
  virtual BigUInt Pow(const BigUInt& base, PSI_SECRET const BigUInt& exp)
      const = 0;

  /// out[i] = bases[i]^exp mod n for every i: one shared exponent, bit-for-
  /// bit the results of per-base Pow calls. The 4- and 8-limb engines walk
  /// up to limb_kernel::kIfmaLanes bases at once when the IFMA kernel is
  /// active; every other engine loops over Pow.
  virtual std::vector<BigUInt> PowBatch(
      std::span<const BigUInt> bases, PSI_SECRET const BigUInt& exp) const = 0;
};

class MontgomeryContext;

/// \brief x^d mod p*q for batches of x by the Chinese remainder theorem:
/// RSA-CRT decryption's arithmetic on the fixed-limb engines of p and q.
///
/// Each group of limb_kernel::kIfmaLanes values takes one IFMA walk per
/// half, x^dP mod p and x^dQ mod q; at 256-bit primes both halves run as
/// two interleaved walks of one kernel call. The split x mod p, x mod q and
/// the Garner recombination run on fixed limbs, so no division and no
/// BigUInt sits between the input's limbs and the result. The object holds
/// both contexts, so its engines stay valid however the context cache
/// moves. Read-only after construction: safe to share across ParallelFor
/// workers.
class FixedCrtPow {
 public:
  virtual ~FixedCrtPow() = default;

  /// out[i] = xs[i]^d mod p*q for every i, each xs[i] < p*q: bit for bit
  /// m_q + q * (q_inv_p * (m_p - m_q) mod p) with m_p = xs[i]^dP mod p and
  /// m_q = xs[i]^dQ mod q, the heap path's Garner formula.
  virtual void PowBatch(std::span<const BigUInt> xs, BigUInt* out) const = 0;
};

/// \brief Builds the per-key constants of the fixed-limb CRT path, or
/// returns nullptr where it cannot serve (callers keep one ModPowBatch per
/// half): a context without a fixed engine (heap-only, or a width with no
/// engine), p and q of different limb widths or of a width the IFMA kernel
/// does not cover, a CPU without IFMA, a prime without its top bit set, or
/// n != p*q.
std::unique_ptr<const FixedCrtPow> MakeFixedCrtPow(
    std::shared_ptr<const MontgomeryContext> p,
    std::shared_ptr<const MontgomeryContext> q, const BigUInt& n,
    PSI_SECRET const BigUInt& dp, PSI_SECRET const BigUInt& dq,
    PSI_SECRET const BigUInt& q_inv_p);

/// \brief Builds the engine for `modulus` when its exact limb width is one
/// of kFixedMontWidths; returns nullptr otherwise (callers keep the heap
/// path). Preconditions match MontgomeryContext: odd modulus >= 3;
/// `n_prime` = -n^-1 mod 2^64, `r_mod_n`/`r2_mod_n` for R = 2^(64*limbs).
std::shared_ptr<const FixedMontEngineBase> MakeFixedMontEngine(
    const BigUInt& modulus, uint64_t n_prime, const BigUInt& r_mod_n,
    const BigUInt& r2_mod_n);

}  // namespace psi

#endif  // PSI_BIGINT_FIXED_MONT_H_
