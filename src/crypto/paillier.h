// Paillier additively homomorphic encryption.
//
// Not required by the paper's Protocols 1-6, but it powers the extension
// protocol in mpc/homomorphic_sum.h: an alternative realization of secure
// counter aggregation in which the host aggregates provider ciphertexts
// without a third party. Benchmarked against Protocol 2 as an ablation.

#ifndef PSI_CRYPTO_PAILLIER_H_
#define PSI_CRYPTO_PAILLIER_H_

#include "bigint/biguint.h"
#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"

namespace psi {

/// \brief Paillier public key (n, g = n + 1).
struct PaillierPublicKey {
  BigUInt n;
  BigUInt n_squared;

  size_t CiphertextBytes() const { return (n_squared.BitLength() + 7) / 8; }
};

/// \brief Paillier private key (lambda, mu) plus precomputed CRT parameters.
///
/// Keys come only from PaillierGenerateKeyPair, which always fills the CRT
/// block; it lets PaillierDecryptCrt exponentiate mod p^2 and q^2
/// (half-size moduli, half-size exponents) instead of mod n^2, ~3-4x per
/// decryption.
struct PaillierPrivateKey {
  BigUInt n;
  BigUInt n_squared;
  PSI_SECRET BigUInt lambda;  ///< lcm(p-1, q-1)
  PSI_SECRET BigUInt mu;      ///< (L(g^lambda mod n^2))^-1 mod n

  // -- CRT block -------------------------------------------------------------
  PSI_SECRET BigUInt p;          ///< First prime factor of n.
  PSI_SECRET BigUInt q;          ///< Second prime factor.
  PSI_SECRET BigUInt p_squared;  ///< p^2.
  PSI_SECRET BigUInt q_squared;  ///< q^2.
  PSI_SECRET BigUInt hp;  ///< (L_p((n+1)^(p-1) mod p^2))^-1 mod p.
  PSI_SECRET BigUInt hq;  ///< (L_q((n+1)^(q-1) mod q^2))^-1 mod q.
  PSI_SECRET BigUInt q_inv_p;  ///< q^-1 mod p, for Garner recombination.
};

struct PaillierKeyPair {
  PaillierPublicKey public_key;
  PaillierPrivateKey private_key;
};

/// \brief Generates a key pair with an `bits`-bit modulus n.
[[nodiscard]] Result<PaillierKeyPair> PaillierGenerateKeyPair(Rng* rng, size_t bits);

/// \brief Encrypts m < n: c = (1 + m*n) * r^n mod n^2 with random r. This
/// is PaillierEncryptBatch of the one plaintext: the same randomizer draw
/// and the same ciphertext.
[[nodiscard]] Result<BigUInt> PaillierEncrypt(const PaillierPublicKey& key, const BigUInt& m,
                                Rng* rng);

/// \brief Encrypts a vector of plaintexts: randomizers drawn sequentially
/// from `rng` (same stream as count serial PaillierEncrypt calls), the r^n
/// powers computed in parallel. Ciphertexts are byte-identical to the
/// serial path for every thread count.
[[nodiscard]] Result<std::vector<BigUInt>> PaillierEncryptBatch(
    const PaillierPublicKey& key, const std::vector<BigUInt>& plaintexts,
    Rng* rng);

/// \brief Decrypts: m = L(c^lambda mod n^2) * mu mod n, L(u) = (u-1)/n.
/// No protocol decrypts this way (they use PaillierDecryptCrt). It is kept
/// as the textbook oracle the CRT path is tested against and as the
/// denominator of the packing gate (bench_micro's BM_PaillierDecrypt).
[[nodiscard]] Result<BigUInt> PaillierDecrypt(const PaillierPrivateKey& key,
                                const BigUInt& c);

/// \brief CRT-accelerated decryption: exponentiates mod p^2 and q^2 with
/// exponents p-1 and q-1, recombines via Garner — same result as
/// PaillierDecrypt at ~3-4x the speed (half-size moduli AND half-size
/// exponents). Rejects c >= n^2 and (like the classic path) ciphertexts not
/// coprime to n as malformed.
[[nodiscard]] Result<BigUInt> PaillierDecryptCrt(const PaillierPrivateKey& key,
                                   const BigUInt& c);

/// \brief Decrypts a vector, fanning the pure per-ciphertext CRT
/// exponentiations out across the thread pool. Results are index-aligned
/// and identical to serial PaillierDecryptCrt calls.
[[nodiscard]] Result<std::vector<BigUInt>> PaillierDecryptBatch(
    const PaillierPrivateKey& key, const std::vector<BigUInt>& ciphertexts);

/// \brief Homomorphic addition: Dec(AddCiphertexts(c1, c2)) = m1 + m2 mod n.
BigUInt PaillierAddCiphertexts(const PaillierPublicKey& key, const BigUInt& c1,
                               const BigUInt& c2);

/// \brief Homomorphic scalar multiply: Dec(c^k) = k * m mod n. No protocol
/// calls it; it is kept as public API of the original library, pinned by
/// its own test (PaillierTest.ScalarMultiplication).
BigUInt PaillierMultiplyPlain(const PaillierPublicKey& key, const BigUInt& c,
                              const BigUInt& k);

}  // namespace psi

#endif  // PSI_CRYPTO_PAILLIER_H_
