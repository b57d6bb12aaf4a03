// Modular arithmetic over BigUInt: the share algebra of Protocols 1-2 and the
// group operations behind RSA and Paillier.

#ifndef PSI_BIGINT_MODULAR_H_
#define PSI_BIGINT_MODULAR_H_

#include <memory>
#include <span>
#include <vector>

#include "bigint/biguint.h"
#include "common/status.h"

namespace psi {

class MontgomeryContext;

/// \brief (a + b) mod m. Preconditions: a, b < m.
BigUInt ModAdd(const BigUInt& a, const BigUInt& b, const BigUInt& m);

/// \brief (a - b) mod m. Preconditions: a, b < m.
BigUInt ModSub(const BigUInt& a, const BigUInt& b, const BigUInt& m);

/// \brief (a * b) mod m.
BigUInt ModMul(const BigUInt& a, const BigUInt& b, const BigUInt& m);

/// \brief a^e mod m by left-to-right square-and-multiply. m > 0; 0^0 == 1.
BigUInt ModPow(const BigUInt& base, const BigUInt& exp, const BigUInt& m);

/// \brief ModPow of every base to one shared exponent: out[i] ==
/// ModPow(bases[i], exp, m). Where ModPow would use a Montgomery context,
/// the whole batch goes through MontgomeryContext::PowBatch.
std::vector<BigUInt> ModPowBatch(std::span<const BigUInt> bases,
                                 const BigUInt& exp, const BigUInt& m);

/// \brief The Montgomery context ModPow uses for the odd modulus m >= 3,
/// from a small per-thread cache (heap-only while a ScopedHeapOnlyModPow
/// lives); nullptr for an even or smaller modulus. Ownership is shared, so
/// the context outlives any later lookup that evicts it.
std::shared_ptr<const MontgomeryContext> CachedMontgomeryContext(
    const BigUInt& m);

/// \brief RAII guard: while an instance lives, Montgomery contexts built
/// anywhere in the process with EngineMode::kAuto (ModPow's cache, Paillier
/// and RSA batches, ParallelFor workers) stay heap-only instead of
/// attaching the fixed-width engine. Heap-only contexts are cached
/// separately, so repeated calls still amortize setup — the measured delta
/// is purely engine vs heap arithmetic. It is kept for two users: the
/// BM_*Heap benches, whose medians are the gated denominators of
/// BENCH_bigint.json, and the heap-only differential tests. Production code
/// never should, and only one guard owner at a time (the flag is
/// process-wide).
class ScopedHeapOnlyModPow {
 public:
  ScopedHeapOnlyModPow();
  ~ScopedHeapOnlyModPow();
  ScopedHeapOnlyModPow(const ScopedHeapOnlyModPow&) = delete;
  ScopedHeapOnlyModPow& operator=(const ScopedHeapOnlyModPow&) = delete;

 private:
  bool prev_;
};

/// \brief Greatest common divisor (binary gcd after at most one division).
BigUInt Gcd(BigUInt a, BigUInt b);

/// \brief Least common multiple; 0 if either argument is 0.
BigUInt Lcm(const BigUInt& a, const BigUInt& b);

/// \brief Multiplicative inverse of a modulo m (extended Euclid).
///
/// Returns InvalidArgument if gcd(a, m) != 1 or m < 2.
[[nodiscard]] Result<BigUInt> ModInverse(const BigUInt& a, const BigUInt& m);

}  // namespace psi

#endif  // PSI_BIGINT_MODULAR_H_
