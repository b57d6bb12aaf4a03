#include "crypto/rsa.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "bigint/fixed_mont.h"
#include "bigint/modular.h"
#include "bigint/primes.h"
#include "common/thread_pool.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace psi {

Result<RsaKeyPair> RsaGenerateKeyPair(Rng* rng, size_t bits) {
  if (bits < 128 || bits % 2 != 0) {
    return Status::InvalidArgument(
        "RSA modulus must be an even bit count >= 128");
  }
  BigUInt e(65537);
  for (;;) {
    BigUInt p = RandomPrime(rng, bits / 2);
    BigUInt q = RandomPrime(rng, bits / 2);
    // psi-lint: allow(secret-flow) one-time key generation; no attacker-visible interaction has started yet
    if (p == q) continue;
    BigUInt p1 = p - BigUInt(1);
    BigUInt q1 = q - BigUInt(1);
    BigUInt phi = p1 * q1;
    // psi-lint: allow(secret-flow) one-time key generation; no attacker-visible interaction has started yet
    if (!Gcd(e, phi).IsOne()) continue;

    RsaKeyPair kp;
    kp.public_key.n = p * q;
    kp.public_key.e = e;
    PSI_ASSIGN_OR_RETURN(kp.private_key.d, ModInverse(e, phi));
    kp.private_key.n = kp.public_key.n;
    kp.private_key.p = p;
    kp.private_key.q = q;
    // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
    kp.private_key.d_mod_p1 = kp.private_key.d % p1;
    // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
    kp.private_key.d_mod_q1 = kp.private_key.d % q1;
    PSI_ASSIGN_OR_RETURN(kp.private_key.q_inv_p, ModInverse(q, p));
    return kp;
  }
}

namespace {

// Values per batched exponentiation: the lane count of the IFMA kernel.
constexpr size_t kBatchLanes = 8;

// Garner recombination of the CRT halves: m = m_q + q * ((m_p - m_q) *
// q^-1 mod p).
BigUInt CrtCombine(const RsaPrivateKey& key, const BigUInt& m_p,
                   const BigUInt& m_q) {
  // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
  BigUInt h = ModMul(key.q_inv_p, ModSub(m_p, m_q % key.p, key.p), key.p);
  return m_q + h * key.q;
}

// Runs `group(begin, end)` over [0, count) in slices of kBatchLanes across
// the thread pool; each slice writes only its own outputs.
void ForEachGroup(size_t count,
                  const std::function<void(size_t begin, size_t end)>& group) {
  const size_t groups = (count + kBatchLanes - 1) / kBatchLanes;
  ParallelFor(groups, [&](size_t g) {
    group(g * kBatchLanes, std::min(count, (g + 1) * kBatchLanes));
  });
}

}  // namespace

Result<BigUInt> RsaEncrypt(const RsaPublicKey& key, const BigUInt& m) {
  if (m >= key.n) return Status::InvalidArgument("RSA plaintext >= modulus");
  return ModPow(m, key.e, key.n);
}

Result<BigUInt> RsaDecrypt(const RsaPrivateKey& key, const BigUInt& c) {
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> m,
                       RsaDecryptBatch(key, std::span<const BigUInt>(&c, 1)));
  return std::move(m[0]);
}

Result<std::vector<BigUInt>> RsaEncryptBatch(
    const RsaPublicKey& key, std::span<const BigUInt> plaintexts) {
  for (const BigUInt& m : plaintexts) {
    if (m >= key.n) return Status::InvalidArgument("RSA plaintext >= modulus");
  }
  std::vector<BigUInt> out(plaintexts.size());
  ForEachGroup(plaintexts.size(), [&](size_t begin, size_t end) {
    std::vector<BigUInt> c =
        ModPowBatch(plaintexts.subspan(begin, end - begin), key.e, key.n);
    std::move(c.begin(), c.end(), out.begin() + static_cast<ptrdiff_t>(begin));
  });
  return out;
}

Result<std::vector<BigUInt>> RsaDecryptBatch(
    const RsaPrivateKey& key, std::span<const BigUInt> ciphertexts) {
  for (const BigUInt& c : ciphertexts) {
    if (c >= key.n) return Status::InvalidArgument("RSA ciphertext >= modulus");
  }
  std::vector<BigUInt> out(ciphertexts.size());
  // Both CRT halves in one kernel pass per group, with the split and the
  // Garner step on fixed limbs, wherever the fixed engines can serve the
  // key; the object owns both contexts for the whole batch.
  const std::unique_ptr<const FixedCrtPow> crt = MakeFixedCrtPow(
      CachedMontgomeryContext(key.p), CachedMontgomeryContext(key.q), key.n,
      key.d_mod_p1, key.d_mod_q1, key.q_inv_p);
  ForEachGroup(ciphertexts.size(), [&](size_t begin, size_t end) {
    // psi-lint: allow(secret-flow) whether the fixed path serves depends on the primes' limb widths and the CPU, the public key size only
    if (crt != nullptr) {
      crt->PowBatch(ciphertexts.subspan(begin, end - begin), &out[begin]);
      return;
    }
    std::vector<BigUInt> cp, cq;
    for (size_t i = begin; i < end; ++i) {
      // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
      cp.push_back(ciphertexts[i] % key.p);
      // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
      cq.push_back(ciphertexts[i] % key.q);
    }
    const std::vector<BigUInt> m_p = ModPowBatch(cp, key.d_mod_p1, key.p);
    const std::vector<BigUInt> m_q = ModPowBatch(cq, key.d_mod_q1, key.q);
    for (size_t i = begin; i < end; ++i) {
      out[i] = CrtCombine(key, m_p[i - begin], m_q[i - begin]);
    }
  });
  return out;
}

Result<HybridCiphertext> HybridEncrypt(const RsaPublicKey& key,
                                       const std::vector<uint8_t>& plaintext,
                                       Rng* rng) {
  if (key.n.BitLength() < 300) {
    return Status::InvalidArgument(
        "hybrid mode needs a modulus >= 300 bits to encapsulate a 256-bit key");
  }
  // KEM: random secret < n; the symmetric key is SHA-256(secret bytes).
  BigUInt secret = BigUInt::RandomBelow(rng, key.n);
  PSI_ASSIGN_OR_RETURN(BigUInt encapsulated, RsaEncrypt(key, secret));

  auto kdf = Sha256::Hash(secret.ToLittleEndianBytes());
  std::array<uint8_t, ChaCha20Cipher::kKeySize> sym_key;
  std::copy(kdf.begin(), kdf.end(), sym_key.begin());

  HybridCiphertext ct;
  ct.encapsulated_key = std::move(encapsulated);
  ct.nonce.resize(ChaCha20Cipher::kNonceSize);
  rng->FillBytes(ct.nonce.data(), ct.nonce.size());
  std::array<uint8_t, ChaCha20Cipher::kNonceSize> nonce_arr;
  std::copy(ct.nonce.begin(), ct.nonce.end(), nonce_arr.begin());

  ChaCha20Cipher cipher(sym_key, nonce_arr);
  ct.payload = cipher.Process(plaintext);
  return ct;
}

Result<std::vector<uint8_t>> HybridDecrypt(const RsaPrivateKey& key,
                                           const HybridCiphertext& ct) {
  if (ct.nonce.size() != ChaCha20Cipher::kNonceSize) {
    return Status::CryptoError("bad hybrid nonce size");
  }
  PSI_ASSIGN_OR_RETURN(BigUInt secret, RsaDecrypt(key, ct.encapsulated_key));
  auto kdf = Sha256::Hash(secret.ToLittleEndianBytes());
  std::array<uint8_t, ChaCha20Cipher::kKeySize> sym_key;
  std::copy(kdf.begin(), kdf.end(), sym_key.begin());
  std::array<uint8_t, ChaCha20Cipher::kNonceSize> nonce_arr;
  std::copy(ct.nonce.begin(), ct.nonce.end(), nonce_arr.begin());
  ChaCha20Cipher cipher(sym_key, nonce_arr);
  return cipher.Process(ct.payload);
}

}  // namespace psi
