#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "bigint/fixed_mont.h"
#include "bigint/limb_kernel.h"
#include "bigint/modular.h"
#include "bigint/primes.h"
#include "common/thread_pool.h"

namespace psi {
namespace {

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    static Rng rng(101);
    static auto kp = RsaGenerateKeyPair(&rng, 512).ValueOrDie();
    key_pair_ = &kp;
    rng_ = &rng;
  }
  static RsaKeyPair* key_pair_;
  static Rng* rng_;
};

RsaKeyPair* RsaTest::key_pair_ = nullptr;
Rng* RsaTest::rng_ = nullptr;

TEST_F(RsaTest, KeyShapes) {
  EXPECT_EQ(key_pair_->public_key.ModulusBits(), 512u);
  EXPECT_EQ(key_pair_->public_key.e, BigUInt(65537));
  EXPECT_EQ(key_pair_->public_key.CiphertextBytes(), 64u);
  EXPECT_EQ(key_pair_->private_key.p * key_pair_->private_key.q,
            key_pair_->public_key.n);
}

TEST_F(RsaTest, EdTimesDIsOneModPhi) {
  const auto& priv = key_pair_->private_key;
  BigUInt phi = (priv.p - BigUInt(1)) * (priv.q - BigUInt(1));
  EXPECT_TRUE(ModMul(key_pair_->public_key.e, priv.d, phi).IsOne());
}

TEST_F(RsaTest, EncryptDecryptRoundTripRandomized) {
  for (int i = 0; i < 50; ++i) {
    BigUInt m = BigUInt::RandomBelow(rng_, key_pair_->public_key.n);
    BigUInt c = RsaEncrypt(key_pair_->public_key, m).ValueOrDie();
    EXPECT_EQ(RsaDecrypt(key_pair_->private_key, c).ValueOrDie(), m);
  }
}

TEST_F(RsaTest, EdgePlaintexts) {
  for (uint64_t m : {0ull, 1ull, 2ull}) {
    BigUInt c = RsaEncrypt(key_pair_->public_key, BigUInt(m)).ValueOrDie();
    EXPECT_EQ(RsaDecrypt(key_pair_->private_key, c).ValueOrDie(), BigUInt(m));
  }
  BigUInt n_minus_1 = key_pair_->public_key.n - BigUInt(1);
  BigUInt c = RsaEncrypt(key_pair_->public_key, n_minus_1).ValueOrDie();
  EXPECT_EQ(RsaDecrypt(key_pair_->private_key, c).ValueOrDie(), n_minus_1);
}

TEST_F(RsaTest, RejectsOversizedOperands) {
  EXPECT_FALSE(RsaEncrypt(key_pair_->public_key, key_pair_->public_key.n).ok());
  EXPECT_FALSE(RsaDecrypt(key_pair_->private_key, key_pair_->public_key.n).ok());
}

TEST_F(RsaTest, MultiplicativeHomomorphism) {
  // Textbook RSA: E(a)*E(b) = E(ab) — the malleability the randomized
  // padding in Protocol 6 works around.
  BigUInt a(12345), b(67890);
  const auto& pub = key_pair_->public_key;
  BigUInt ca = RsaEncrypt(pub, a).ValueOrDie();
  BigUInt cb = RsaEncrypt(pub, b).ValueOrDie();
  BigUInt cab = ModMul(ca, cb, pub.n);
  EXPECT_EQ(RsaDecrypt(key_pair_->private_key, cab).ValueOrDie(), a * b);
}

TEST_F(RsaTest, GenerateRejectsBadSizes) {
  Rng rng(5);
  EXPECT_FALSE(RsaGenerateKeyPair(&rng, 64).ok());
  EXPECT_FALSE(RsaGenerateKeyPair(&rng, 513).ok());
}

TEST_F(RsaTest, DistinctKeysFromDistinctSeeds) {
  Rng r1(1), r2(2);
  auto k1 = RsaGenerateKeyPair(&r1, 256).ValueOrDie();
  auto k2 = RsaGenerateKeyPair(&r2, 256).ValueOrDie();
  EXPECT_NE(k1.public_key.n, k2.public_key.n);
}

TEST_F(RsaTest, HybridRoundTrip) {
  for (size_t len : {0u, 1u, 100u, 5000u}) {
    std::vector<uint8_t> msg(len);
    rng_->FillBytes(msg.data(), msg.size());
    auto ct = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
    EXPECT_EQ(HybridDecrypt(key_pair_->private_key, ct).ValueOrDie(), msg);
  }
}

TEST_F(RsaTest, HybridIsRandomized) {
  std::vector<uint8_t> msg(100, 7);
  auto c1 = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  auto c2 = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  EXPECT_NE(c1.encapsulated_key, c2.encapsulated_key);
  EXPECT_NE(c1.payload, c2.payload);
}

TEST_F(RsaTest, HybridCiphertextSizeIsOneRsaBlockPlusPayload) {
  std::vector<uint8_t> msg(1000, 1);
  auto ct = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  // Encapsulated key <= one RSA block; payload == plaintext size (stream).
  EXPECT_EQ(ct.payload.size(), msg.size());
  EXPECT_LE(ct.encapsulated_key.SerializedSize(),
            key_pair_->public_key.CiphertextBytes() + 16);
}

TEST_F(RsaTest, HybridRejectsTinyModulus) {
  Rng rng(9);
  auto small = RsaGenerateKeyPair(&rng, 256).ValueOrDie();
  std::vector<uint8_t> msg(10, 1);
  EXPECT_FALSE(HybridEncrypt(small.public_key, msg, &rng).ok());
}

TEST_F(RsaTest, HybridDecryptRejectsBadNonce) {
  std::vector<uint8_t> msg(10, 1);
  auto ct = HybridEncrypt(key_pair_->public_key, msg, rng_).ValueOrDie();
  ct.nonce.pop_back();
  EXPECT_FALSE(HybridDecrypt(key_pair_->private_key, ct).ok());
}

// Batched RSA against per-element calls at both widths Protocol 6 uses
// (z = 512: IFMA-served 256-bit CRT halves; z = 1024: the scalar loop), at
// 1 and 4 pool threads.
class RsaBatchTest : public ::testing::TestWithParam<size_t> {
 protected:
  ~RsaBatchTest() override { ThreadPool::Global().SetNumThreads(1); }

  static const RsaKeyPair& Keys(size_t bits) {
    static Rng rng(202);
    static const RsaKeyPair k512 = RsaGenerateKeyPair(&rng, 512).ValueOrDie();
    static const RsaKeyPair k1024 =
        RsaGenerateKeyPair(&rng, 1024).ValueOrDie();
    return bits == 512 ? k512 : k1024;
  }

  // 0, 1 and n-1 first, then random values below n.
  static std::vector<BigUInt> Values(Rng* rng, const BigUInt& n,
                                     size_t count) {
    std::vector<BigUInt> v = {BigUInt(0), BigUInt(1), n - BigUInt(1)};
    while (v.size() < count) v.push_back(BigUInt::RandomBelow(rng, n));
    v.resize(count);
    return v;
  }
};

// RsaDecrypt is RsaDecryptBatch of one ciphertext, so both are checked
// against textbook ModPow(c, d, n) on the heap path (ScopedHeapOnlyModPow),
// which shares no code with either.
TEST_P(RsaBatchTest, DecryptBatchMatchesPerElement) {
  const RsaKeyPair& kp = Keys(GetParam());
  Rng rng(5);
  for (size_t count : {0u, 1u, 7u, 8u, 9u, 41u}) {
    const std::vector<BigUInt> cts = Values(&rng, kp.public_key.n, count);
    std::vector<BigUInt> want;
    {
      ScopedHeapOnlyModPow heap_only;
      for (const BigUInt& c : cts) {
        want.push_back(ModPow(c, kp.private_key.d, kp.public_key.n));
      }
    }
    for (size_t threads : {1u, 4u}) {
      ThreadPool::Global().SetNumThreads(threads);
      auto batch = RsaDecryptBatch(kp.private_key, cts);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ((*batch)[i], want[i])
            << "index " << i << " of " << count << ", threads " << threads;
        EXPECT_EQ(RsaDecrypt(kp.private_key, cts[i]).ValueOrDie(), want[i])
            << "index " << i << " of " << count << ", threads " << threads;
      }
    }
  }
}

TEST_P(RsaBatchTest, EncryptBatchMatchesPerElement) {
  const RsaKeyPair& kp = Keys(GetParam());
  Rng rng(6);
  for (size_t threads : {1u, 4u}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (size_t count : {0u, 1u, 7u, 8u, 9u, 41u}) {
      const std::vector<BigUInt> ms = Values(&rng, kp.public_key.n, count);
      auto batch = RsaEncryptBatch(kp.public_key, ms);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ((*batch)[i], RsaEncrypt(kp.public_key, ms[i]).ValueOrDie())
            << "index " << i << " of " << count << ", threads " << threads;
      }
      // And the batch round-trips.
      EXPECT_EQ(RsaDecryptBatch(kp.private_key, *batch).ValueOrDie(), ms);
    }
  }
}

TEST_P(RsaBatchTest, OutOfRangeMidBatchFailsLikePerElement) {
  const RsaKeyPair& kp = Keys(GetParam());
  const BigUInt& n = kp.public_key.n;
  Rng rng(8);
  std::vector<BigUInt> values = Values(&rng, n, 20);
  values[11] = n + BigUInt(7);
  values[13] = n;
  const Status dec_want = RsaDecrypt(kp.private_key, values[11]).status();
  const Status enc_want = RsaEncrypt(kp.public_key, values[11]).status();
  ASSERT_FALSE(dec_want.ok());
  ASSERT_FALSE(enc_want.ok());
  for (size_t threads : {1u, 4u}) {
    ThreadPool::Global().SetNumThreads(threads);
    const Status dec = RsaDecryptBatch(kp.private_key, values).status();
    EXPECT_EQ(dec.code(), dec_want.code());
    EXPECT_EQ(dec.message(), dec_want.message());
    const Status enc = RsaEncryptBatch(kp.public_key, values).status();
    EXPECT_EQ(enc.code(), enc_want.code());
    EXPECT_EQ(enc.message(), enc_want.message());
  }
}

INSTANTIATE_TEST_SUITE_P(ModulusBits, RsaBatchTest,
                         ::testing::Values(size_t{512}, size_t{1024}));

// RsaDecryptBatch against non-CRT ModPow(c, d, n) computed on the heap path
// (ScopedHeapOnlyModPow), so the oracle shares no code with the fixed-limb
// CRT split, kernel walk or Garner step.
class RsaCrtEdgeTest : public ::testing::Test {
 protected:
  // A private key over the given primes with e = 65537, its fields set one
  // by one the way a checkpoint codec loads them.
  static std::optional<RsaPrivateKey> KeyFromPrimes(const BigUInt& p,
                                                    const BigUInt& q) {
    const BigUInt phi = (p - BigUInt(1)) * (q - BigUInt(1));
    auto d = ModInverse(BigUInt(65537), phi);
    if (!d.ok()) return std::nullopt;
    RsaPrivateKey key;
    key.n = p * q;
    key.d = *d;
    key.p = p;
    key.q = q;
    key.d_mod_p1 = key.d % (p - BigUInt(1));
    key.d_mod_q1 = key.d % (q - BigUInt(1));
    key.q_inv_p = ModInverse(q, p).ValueOrDie();
    return key;
  }

  // Primes of the given sizes whose key exists (gcd(e, phi) = 1).
  static RsaPrivateKey Key(Rng* rng, size_t p_bits, size_t q_bits) {
    for (;;) {
      const BigUInt p = RandomPrime(rng, p_bits);
      const BigUInt q = RandomPrime(rng, q_bits);
      if (p == q) continue;
      if (auto key = KeyFromPrimes(p, q)) return *key;
    }
  }

  // Ciphertexts at the CRT path's edges: below p, multiples of p and of q,
  // a low half at or above both primes, values just below n, and random
  // values. (c < n = p*q keeps the high half below both primes.)
  static std::vector<BigUInt> EdgeCiphertexts(Rng* rng,
                                              const RsaPrivateKey& key) {
    const BigUInt& p = key.p;
    const BigUInt& q = key.q;
    const BigUInt low_ones = BigUInt::PowerOfTwo(64 * p.num_limbs()) -
                             BigUInt(1);
    std::vector<BigUInt> cts = {BigUInt(0),
                                BigUInt(1),
                                BigUInt(2),
                                p - BigUInt(1),
                                p,
                                p + BigUInt(1),
                                q,
                                p * BigUInt(3),
                                q * BigUInt(5),
                                p * (q - BigUInt(1)),
                                low_ones,
                                key.n - low_ones - BigUInt(1),
                                key.n - BigUInt(2),
                                key.n - BigUInt(1)};
    while (cts.size() < 29) cts.push_back(BigUInt::RandomBelow(rng, key.n));
    return cts;
  }

  static void ExpectDecryptsLikeModPow(Rng* rng, const RsaPrivateKey& key) {
    const std::vector<BigUInt> cts = EdgeCiphertexts(rng, key);
    std::vector<BigUInt> want;
    {
      ScopedHeapOnlyModPow heap_only;
      for (const BigUInt& c : cts) want.push_back(ModPow(c, key.d, key.n));
    }
    for (size_t threads : {1u, 3u}) {
      ThreadPool::Global().SetNumThreads(threads);
      auto got = RsaDecryptBatch(key, cts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      for (size_t i = 0; i < cts.size(); ++i) {
        EXPECT_EQ((*got)[i], want[i])
            << "ciphertext " << i << " (" << cts[i].ToHexString() << "), "
            << key.p.BitLength() << "/" << key.q.BitLength()
            << "-bit primes, threads " << threads;
      }
    }
    ThreadPool::Global().SetNumThreads(1);
  }

  // Whether RsaDecryptBatch takes the fixed-limb path for this key.
  static bool FixedPath(const RsaPrivateKey& key) {
    return MakeFixedCrtPow(CachedMontgomeryContext(key.p),
                           CachedMontgomeryContext(key.q), key.n,
                           key.d_mod_p1, key.d_mod_q1,
                           key.q_inv_p) != nullptr;
  }
};

TEST_F(RsaCrtEdgeTest, BatchMatchesNonCrtModPowWithPrimesEitherWayRound) {
  Rng rng(404);
  for (size_t bits : {512u, 1024u}) {
    RsaPrivateKey key = Key(&rng, bits / 2, bits / 2);
    EXPECT_EQ(FixedPath(key), limb_kernel::IfmaKernelsAvailable());
    // The same key with p and q exchanged: one of the two has p > q.
    RsaPrivateKey swapped = key;
    std::swap(swapped.p, swapped.q);
    std::swap(swapped.d_mod_p1, swapped.d_mod_q1);
    swapped.q_inv_p = ModInverse(swapped.q, swapped.p).ValueOrDie();
    ASSERT_NE(key.p < key.q, swapped.p < swapped.q);
    for (const RsaPrivateKey* k : {&key, &swapped}) {
      ExpectDecryptsLikeModPow(&rng, *k);
    }
  }
}

TEST_F(RsaCrtEdgeTest, KeysTheFixedPathCannotServeFallBack) {
  Rng rng(405);
  // p and q of different limb widths (3 and 5 limbs), and two 4-limb primes
  // one of which lacks its top bit: both keep the per-half path.
  for (const auto& [p_bits, q_bits] :
       {std::pair<size_t, size_t>{192, 320}, {250, 256}}) {
    const RsaPrivateKey key = Key(&rng, p_bits, q_bits);
    EXPECT_FALSE(FixedPath(key)) << p_bits << "/" << q_bits;
    ExpectDecryptsLikeModPow(&rng, key);
  }
  // A modulus that is not p*q.
  RsaPrivateKey wrong_n = Key(&rng, 256, 256);
  wrong_n.n = wrong_n.n + BigUInt(2);
  EXPECT_FALSE(FixedPath(wrong_n));
  // The heap-only guard keeps contexts engine-free.
  const RsaPrivateKey key = Key(&rng, 256, 256);
  ScopedHeapOnlyModPow heap_only;
  EXPECT_FALSE(FixedPath(key));
}

}  // namespace
}  // namespace psi
