// Montgomery modular arithmetic: the workhorse behind the RSA/Paillier
// operations of Protocol 6 and the OT variant. Replacing every "multiply,
// then Knuth-divide" reduction with word-level REDC makes modular
// exponentiation several times faster for the 512-2048 bit odd moduli the
// crypto layer uses. ModPow (bigint/modular.h) routes through this context
// automatically for odd multi-limb moduli; the generic path remains for
// even ones.
//
// When the modulus width exactly matches an instantiated fixed-width
// geometry (fixed_mont.h), the context transparently attaches a
// FixedMontEngine and every Multiply/Pow runs on stack-allocated
// compile-time-unrolled limb kernels instead of heap BigUInt REDC — same R,
// same values, only faster. EngineMode::kHeapOnly keeps the heap path as
// the oracle the engine is tested against and the baseline it is gated
// against.

#ifndef PSI_BIGINT_MONTGOMERY_H_
#define PSI_BIGINT_MONTGOMERY_H_

#include <memory>
#include <span>
#include <vector>

#include "bigint/biguint.h"
#include "bigint/fixed_mont.h"
#include "common/status.h"

namespace psi {

/// \brief Whether MontgomeryContext::Create may attach the fixed-width
/// engine; production callers use the default. kHeapOnly stays in the
/// library, not in the tests, because the BM_*Heap rows of bench_bigint
/// (the gated denominators of BENCH_bigint.json's engine speedups) build
/// their contexts with it, directly or through ScopedHeapOnlyModPow, and
/// the heap-vs-fixed differential tests use it as their oracle. The heap
/// path itself is live either way: it serves every width with no engine.
enum class EngineMode {
  kAuto,      ///< Attach a FixedMontEngine when the width matches.
  kHeapOnly,  ///< Always use heap BigUInt REDC.
};

namespace internal {
/// Process-wide flag behind ScopedHeapOnlyModPow (bigint/modular.h): while
/// true, Create(EngineMode::kAuto) builds heap-only contexts everywhere —
/// including ParallelFor workers — so whole-protocol heap baselines are
/// honest. Bench/test plumbing; not for production code.
bool HeapOnlyEngineForced();
void SetHeapOnlyEngineForced(bool forced);
}  // namespace internal

/// \brief Precomputed Montgomery domain for one odd modulus.
class MontgomeryContext {
 public:
  /// \brief Builds the context. Returns InvalidArgument for even or < 3
  /// moduli.
  [[nodiscard]] static Result<MontgomeryContext> Create(
      const BigUInt& modulus, EngineMode mode = EngineMode::kAuto);

  const BigUInt& modulus() const { return n_; }

  /// \brief Maps a value (< modulus) into the Montgomery domain: a*R mod n.
  BigUInt ToMontgomery(const BigUInt& a) const;

  /// \brief Maps back: a*R^-1 mod n.
  BigUInt FromMontgomery(const BigUInt& a) const;

  /// \brief Montgomery product: REDC(a * b) = a*b*R^-1 mod n, for a, b in
  /// the Montgomery domain.
  BigUInt Multiply(const BigUInt& a, const BigUInt& b) const;

  /// \brief base^exp mod n via fixed-window exponentiation in the
  /// Montgomery domain (2^w odd/even table, window width picked from the
  /// exponent size; plain square-and-multiply for short exponents).
  /// `base` is an ordinary residue (reduced internally).
  BigUInt Pow(const BigUInt& base, const BigUInt& exp) const;

  /// \brief out[i] = bases[i]^exp mod n for one shared exponent, equal bit
  /// for bit to per-base Pow calls. The 256- and 512-bit engines walk up to
  /// eight bases per AVX-512 IFMA kernel call where the CPU has it; every
  /// other context, the heap path included, loops over Pow.
  std::vector<BigUInt> PowBatch(std::span<const BigUInt> bases,
                                const BigUInt& exp) const;

  /// \brief Montgomery form of 1 (R mod n).
  const BigUInt& OneMontgomery() const { return r_mod_n_; }

  /// \brief The attached fixed-width engine, or nullptr on the heap path.
  /// MakeFixedCrtPow reaches the engines of p and q through this; both
  /// paths share R, so domain values interchange.
  const FixedMontEngineBase* fixed_engine() const { return engine_.get(); }

 private:
  MontgomeryContext(BigUInt n, uint64_t n_prime, BigUInt r_mod_n,
                    BigUInt r2_mod_n, size_t limbs,
                    std::shared_ptr<const FixedMontEngineBase> engine)
      : n_(std::move(n)),
        n_prime_(n_prime),
        r_mod_n_(std::move(r_mod_n)),
        r2_mod_n_(std::move(r2_mod_n)),
        limbs_(limbs),
        engine_(std::move(engine)) {}

  /// REDC over the limb vector of t (t < n*R): returns t*R^-1 mod n.
  BigUInt Reduce(const BigUInt& t) const;

  BigUInt n_;
  uint64_t n_prime_;   // -n^{-1} mod 2^64.
  BigUInt r_mod_n_;    // R mod n (the Montgomery form of 1).
  BigUInt r2_mod_n_;   // R^2 mod n (for ToMontgomery).
  size_t limbs_;       // k: R = 2^(64k).
  std::shared_ptr<const FixedMontEngineBase> engine_;  // May be null.
};

}  // namespace psi

#endif  // PSI_BIGINT_MONTGOMERY_H_
