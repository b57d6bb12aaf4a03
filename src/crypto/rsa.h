// Textbook RSA with CRT decryption, plus a hybrid (RSA-KEM + ChaCha20) mode.
//
// Protocol 6 has each provider encrypt its Delta_alpha vectors under the
// host's public key so that the relaying provider P1 learns nothing. The
// paper's Table 2 accounts one `z`-bit ciphertext per encrypted integer
// (z = 1024 for RSA); `RsaPublicKey::CiphertextBytes()` reproduces exactly
// that accounting. Deterministic padding-free RSA is malleable and
// deterministic -- acceptable here only because every plaintext is already
// masked/obfuscated upstream; the hybrid mode is the recommended production
// configuration and is benchmarked as ablation A4.

#ifndef PSI_CRYPTO_RSA_H_
#define PSI_CRYPTO_RSA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bigint/biguint.h"
#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"

namespace psi {

/// \brief RSA public key (n, e).
struct RsaPublicKey {
  BigUInt n;
  BigUInt e;

  /// \brief Bits in the modulus (the `z` of Table 2).
  size_t ModulusBits() const { return n.BitLength(); }

  /// \brief Size of one ciphertext on the wire.
  size_t CiphertextBytes() const { return (ModulusBits() + 7) / 8; }

  /// \brief Serialized public-key size (the |kappa| of Table 2).
  size_t SerializedSize() const {
    return n.SerializedSize() + e.SerializedSize();
  }
};

/// \brief RSA private key with CRT acceleration values.
struct RsaPrivateKey {
  BigUInt n;
  PSI_SECRET BigUInt d;
  PSI_SECRET BigUInt p;
  PSI_SECRET BigUInt q;
  PSI_SECRET BigUInt d_mod_p1;   ///< d mod (p-1)
  PSI_SECRET BigUInt d_mod_q1;   ///< d mod (q-1)
  PSI_SECRET BigUInt q_inv_p;    ///< q^-1 mod p
};

/// \brief Key pair container.
struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

/// \brief Generates an RSA key pair with a `bits`-bit modulus and e = 65537.
[[nodiscard]] Result<RsaKeyPair> RsaGenerateKeyPair(Rng* rng, size_t bits);

/// \brief c = m^e mod n. Requires m < n.
[[nodiscard]] Result<BigUInt> RsaEncrypt(const RsaPublicKey& key, const BigUInt& m);

/// \brief m = c^d mod n via CRT: RsaDecryptBatch of the one ciphertext.
/// Requires c < n.
[[nodiscard]] Result<BigUInt> RsaDecrypt(const RsaPrivateKey& key, const BigUInt& c);

/// \brief RsaEncrypt of every plaintext: index-aligned, bit-for-bit the
/// per-element results. Groups of eight share one exponent walk (see
/// MontgomeryContext::PowBatch), fanned out across the thread pool. A
/// plaintext >= n fails the call with RsaEncrypt's error; the lowest such
/// index is the one reported.
[[nodiscard]] Result<std::vector<BigUInt>> RsaEncryptBatch(
    const RsaPublicKey& key, std::span<const BigUInt> plaintexts);

/// \brief RsaDecrypt of every ciphertext, batched like RsaEncryptBatch. With
/// the IFMA kernel and 256- or 512-bit primes (FixedCrtPow), each group of
/// eight walks dP mod p and dQ mod q in one kernel pass and splits and
/// recombines on fixed limbs; otherwise it makes one shared-exponent
/// ModPowBatch per half, then Garner per element. A ciphertext >= n fails
/// the call with InvalidArgument.
[[nodiscard]] Result<std::vector<BigUInt>> RsaDecryptBatch(
    const RsaPrivateKey& key, std::span<const BigUInt> ciphertexts);

/// \brief Hybrid ciphertext: RSA-encapsulated ChaCha20 key + stream payload.
struct HybridCiphertext {
  BigUInt encapsulated_key;      ///< RSA encryption of the session secret.
  std::vector<uint8_t> nonce;    ///< 12-byte stream nonce.
  std::vector<uint8_t> payload;  ///< ChaCha20-encrypted body.

  size_t SerializedSize() const {
    return encapsulated_key.SerializedSize() + nonce.size() + payload.size();
  }
};

/// \brief Encrypts an arbitrary byte string: one RSA operation total
/// (vs one per integer for plain RSA), the Table-2 ablation point.
[[nodiscard]] Result<HybridCiphertext> HybridEncrypt(const RsaPublicKey& key,
                                       const std::vector<uint8_t>& plaintext,
                                       Rng* rng);

/// \brief Inverse of HybridEncrypt.
[[nodiscard]] Result<std::vector<uint8_t>> HybridDecrypt(const RsaPrivateKey& key,
                                           const HybridCiphertext& ct);

}  // namespace psi

#endif  // PSI_CRYPTO_RSA_H_
