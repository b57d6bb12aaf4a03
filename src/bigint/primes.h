// Primality testing and prime generation for the RSA / Paillier key material
// used by Protocol 6 (and the homomorphic extension protocol).

#ifndef PSI_BIGINT_PRIMES_H_
#define PSI_BIGINT_PRIMES_H_

#include "bigint/biguint.h"
#include "common/random.h"

namespace psi {

/// \brief Miller-Rabin probabilistic primality test.
///
/// Runs trial division by small primes first, then `rounds` random-base
/// Miller-Rabin rounds (error probability <= 4^-rounds for composites).
bool IsProbablePrime(const BigUInt& n, Rng* rng, int rounds = 32);

/// \brief Uniform random prime with exactly `bits` bits (top bit set).
///
/// Candidates are random odd integers with the two top bits set (so products
/// of two such primes have exactly 2*bits bits, as RSA key sizing expects).
BigUInt RandomPrime(Rng* rng, size_t bits, int mr_rounds = 32);

/// \brief Smallest probable prime >= n. No protocol calls it; it is kept
/// as public API of the original library, pinned by its own test
/// (PrimesTest.NextPrimeBehaviour).
BigUInt NextPrime(BigUInt n, Rng* rng, int mr_rounds = 32);

}  // namespace psi

#endif  // PSI_BIGINT_PRIMES_H_
