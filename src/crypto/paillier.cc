#include "crypto/paillier.h"

#include "bigint/modular.h"
#include "bigint/montgomery.h"
#include "bigint/primes.h"
#include "common/thread_pool.h"

namespace psi {

namespace {

// The randomizer rejection loop: r uniform in [1, n) and coprime to n.
BigUInt DrawRandomizer(const PaillierPublicKey& key, Rng* rng) {
  BigUInt r;
  do {
    r = BigUInt::RandomBelow(rng, key.n);
  } while (r.IsZero() || !Gcd(r, key.n).IsOne());
  return r;
}

// r_i^n mod n^2 for every drawn randomizer, fanned out across the pool.
// Pure modular arithmetic over a shared read-only Montgomery context (the
// calling thread's cached one, so a batch of one pays no context setup);
// no RNG access, so the fan-out cannot perturb any transcript.
std::vector<BigUInt> RandomizerPowers(const PaillierPublicKey& key,
                                      const std::vector<BigUInt>& rs) {
  std::vector<BigUInt> powers(rs.size());
  if (auto ctx = CachedMontgomeryContext(key.n_squared)) {
    const MontgomeryContext& mont = *ctx;
    ParallelFor(rs.size(),
                [&](size_t i) { powers[i] = mont.Pow(rs[i], key.n); });
  } else {
    for (size_t i = 0; i < rs.size(); ++i) {
      powers[i] = ModPow(rs[i], key.n, key.n_squared);
    }
  }
  return powers;
}

}  // namespace

Result<PaillierKeyPair> PaillierGenerateKeyPair(Rng* rng, size_t bits) {
  if (bits < 128 || bits % 2 != 0) {
    return Status::InvalidArgument(
        "Paillier modulus must be an even bit count >= 128");
  }
  for (;;) {
    BigUInt p = RandomPrime(rng, bits / 2);
    BigUInt q = RandomPrime(rng, bits / 2);
    // psi-lint: allow(secret-flow) one-time key generation; no attacker-visible interaction has started yet
    if (p == q) continue;
    BigUInt n = p * q;
    // With |p| == |q|, gcd(n, phi) == 1 holds automatically for distinct
    // primes of equal size, but verify anyway.
    BigUInt p1 = p - BigUInt(1);
    BigUInt q1 = q - BigUInt(1);
    // psi-lint: allow(secret-flow) one-time key generation; no attacker-visible interaction has started yet
    if (!Gcd(n, p1 * q1).IsOne()) continue;

    PaillierKeyPair kp;
    kp.public_key.n = n;
    kp.public_key.n_squared = n * n;
    kp.private_key.n = n;
    kp.private_key.n_squared = kp.public_key.n_squared;
    kp.private_key.lambda = Lcm(p1, q1);
    // With g = n + 1: g^lambda = 1 + lambda*n (mod n^2), so
    // L(g^lambda mod n^2) = lambda mod n and mu = lambda^-1 mod n.
    PSI_ASSIGN_OR_RETURN(kp.private_key.mu,
                         // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
                         ModInverse(kp.private_key.lambda % n, n));
    // CRT block: everything PaillierDecryptCrt needs, computed once here
    // instead of per decryption. With g = n + 1 and n ≡ 0 (mod p):
    // g^(p-1) = 1 + (p-1)n (mod p^2), so L_p(g^(p-1) mod p^2) =
    // ((p-1)n mod p^2)/p and hp is its inverse mod p.
    PaillierPrivateKey& sk = kp.private_key;
    sk.p = p;
    sk.q = q;
    sk.p_squared = p * p;
    sk.q_squared = q * q;
    // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
    BigUInt lp = (p1 * n % sk.p_squared) / p;
    // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
    BigUInt lq = (q1 * n % sk.q_squared) / q;
    // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
    PSI_ASSIGN_OR_RETURN(sk.hp, ModInverse(lp % p, p));
    // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
    PSI_ASSIGN_OR_RETURN(sk.hq, ModInverse(lq % q, q));
    // psi-lint: allow(secret-flow) one-time key generation; timing is not observable on the wire
    PSI_ASSIGN_OR_RETURN(sk.q_inv_p, ModInverse(q % p, p));
    return kp;
  }
}

Result<BigUInt> PaillierEncrypt(const PaillierPublicKey& key, const BigUInt& m,
                                Rng* rng) {
  PSI_ASSIGN_OR_RETURN(std::vector<BigUInt> c,
                       PaillierEncryptBatch(key, {m}, rng));
  return std::move(c[0]);
}

Result<std::vector<BigUInt>> PaillierEncryptBatch(
    const PaillierPublicKey& key, const std::vector<BigUInt>& plaintexts,
    Rng* rng) {
  for (const auto& m : plaintexts) {
    if (m >= key.n) return Status::InvalidArgument("Paillier plaintext >= n");
  }
  // All RNG draws happen here, in index order, before anything fans out.
  std::vector<BigUInt> rs(plaintexts.size());
  for (auto& r : rs) r = DrawRandomizer(key, rng);
  std::vector<BigUInt> powers = RandomizerPowers(key, rs);
  std::vector<BigUInt> out(plaintexts.size());
  ParallelFor(plaintexts.size(), [&](size_t i) {
    // g^m mod n^2 with g = n+1 simplifies to 1 + m*n (binomial expansion).
    BigUInt g_m = (BigUInt(1) + plaintexts[i] * key.n) % key.n_squared;
    out[i] = ModMul(g_m, powers[i], key.n_squared);
  });
  return out;
}

Result<BigUInt> PaillierDecrypt(const PaillierPrivateKey& key,
                                const BigUInt& c) {
  if (c >= key.n_squared) {
    return Status::InvalidArgument("Paillier ciphertext >= n^2");
  }
  BigUInt u = ModPow(c, key.lambda, key.n_squared);
  // A well-formed ciphertext satisfies u == 1 (mod n).
  // psi-lint: allow(secret-flow) well-formedness rejection of an attacker-supplied ciphertext; the error status is the intended observable
  if ((u % key.n) != BigUInt(1)) {
    return Status::CryptoError("malformed Paillier ciphertext");
  }
  // psi-lint: allow(secret-flow) L-function division at the key owner; DESIGN.md's simulated network carries no timing channel
  BigUInt l = (u - BigUInt(1)) / key.n;  // L function.
  // psi-lint: allow(secret-flow) final reduction at the key owner; DESIGN.md's simulated network carries no timing channel
  return ModMul(l % key.n, key.mu, key.n);
}

Result<BigUInt> PaillierDecryptCrt(const PaillierPrivateKey& key,
                                   const BigUInt& c) {
  if (c >= key.n_squared) {
    return Status::InvalidArgument("Paillier ciphertext >= n^2");
  }
  // The classic path's well-formedness check (c^lambda ≡ 1 mod n) fails
  // exactly when gcd(c, n) != 1 — for coprime c, Fermat gives c^lambda ≡ 1
  // both mod p and mod q. Test the gcd directly; it is far cheaper than an
  // extra full-width exponentiation.
  if (!Gcd(c % key.n, key.n).IsOne()) {
    return Status::CryptoError("malformed Paillier ciphertext");
  }
  // m_p = L_p(c^(p-1) mod p^2) * hp mod p: the decryption exponent lambda
  // reduces to p-1 in the p-branch (c^(p-1) already kills the randomizer,
  // r^(n(p-1)) = (r^(p(p-1)))^q ≡ 1 mod p^2), so both the modulus and the
  // exponent are half-size.
  BigUInt p1 = key.p - BigUInt(1);
  BigUInt q1 = key.q - BigUInt(1);
  // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
  BigUInt up = ModPow(c % key.p_squared, p1, key.p_squared);
  // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
  BigUInt uq = ModPow(c % key.q_squared, q1, key.q_squared);
  // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
  BigUInt m_p = ModMul((up - BigUInt(1)) / key.p, key.hp, key.p);
  // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
  BigUInt m_q = ModMul((uq - BigUInt(1)) / key.q, key.hq, key.q);
  // Garner recombination: m = m_q + q * ((m_p - m_q) * q^-1 mod p).
  // psi-lint: allow(secret-flow) CRT decryption at the key owner; DESIGN.md's simulated network carries no timing channel
  BigUInt diff = ModSub(m_p, m_q % key.p, key.p);
  return m_q + key.q * ModMul(diff, key.q_inv_p, key.p);
}

Result<std::vector<BigUInt>> PaillierDecryptBatch(
    const PaillierPrivateKey& key, const std::vector<BigUInt>& ciphertexts) {
  std::vector<BigUInt> out(ciphertexts.size());
  // Pure modular arithmetic per index; ModPow's thread-local Montgomery
  // cache keeps the p^2/q^2 contexts warm inside each worker.
  PSI_RETURN_NOT_OK(
      ParallelForStatus(ciphertexts.size(), [&](size_t i) -> Status {
        PSI_ASSIGN_OR_RETURN(out[i], PaillierDecryptCrt(key, ciphertexts[i]));
        return Status::OK();
      }));
  return out;
}

BigUInt PaillierAddCiphertexts(const PaillierPublicKey& key, const BigUInt& c1,
                               const BigUInt& c2) {
  return ModMul(c1, c2, key.n_squared);
}

BigUInt PaillierMultiplyPlain(const PaillierPublicKey& key, const BigUInt& c,
                              const BigUInt& k) {
  return ModPow(c, k, key.n_squared);
}

}  // namespace psi
