#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bigint/modular.h"

namespace psi {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    static Rng rng(202);
    static auto kp = PaillierGenerateKeyPair(&rng, 512).ValueOrDie();
    key_pair_ = &kp;
    rng_ = &rng;
  }
  static PaillierKeyPair* key_pair_;
  static Rng* rng_;
};

PaillierKeyPair* PaillierTest::key_pair_ = nullptr;
Rng* PaillierTest::rng_ = nullptr;

TEST_F(PaillierTest, KeyShapes) {
  EXPECT_EQ(key_pair_->public_key.n_squared,
            key_pair_->public_key.n * key_pair_->public_key.n);
  EXPECT_EQ(key_pair_->public_key.n.BitLength(), 512u);
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (int i = 0; i < 25; ++i) {
    BigUInt m = BigUInt::RandomBelow(rng_, key_pair_->public_key.n);
    BigUInt c = PaillierEncrypt(key_pair_->public_key, m, rng_).ValueOrDie();
    EXPECT_EQ(PaillierDecrypt(key_pair_->private_key, c).ValueOrDie(), m);
  }
}

TEST_F(PaillierTest, EdgePlaintexts) {
  for (uint64_t m : {0ull, 1ull}) {
    BigUInt c =
        PaillierEncrypt(key_pair_->public_key, BigUInt(m), rng_).ValueOrDie();
    EXPECT_EQ(PaillierDecrypt(key_pair_->private_key, c).ValueOrDie(),
              BigUInt(m));
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  BigUInt m(42);
  BigUInt c1 = PaillierEncrypt(key_pair_->public_key, m, rng_).ValueOrDie();
  BigUInt c2 = PaillierEncrypt(key_pair_->public_key, m, rng_).ValueOrDie();
  EXPECT_NE(c1, c2);
}

TEST_F(PaillierTest, AdditiveHomomorphism) {
  const auto& pub = key_pair_->public_key;
  for (int i = 0; i < 10; ++i) {
    uint64_t a = rng_->UniformU64(1u << 30);
    uint64_t b = rng_->UniformU64(1u << 30);
    BigUInt ca = PaillierEncrypt(pub, BigUInt(a), rng_).ValueOrDie();
    BigUInt cb = PaillierEncrypt(pub, BigUInt(b), rng_).ValueOrDie();
    BigUInt sum = PaillierAddCiphertexts(pub, ca, cb);
    EXPECT_EQ(PaillierDecrypt(key_pair_->private_key, sum).ValueOrDie(),
              BigUInt(a + b));
  }
}

TEST_F(PaillierTest, HomomorphismWrapsModN) {
  const auto& pub = key_pair_->public_key;
  BigUInt near_n = pub.n - BigUInt(1);
  BigUInt ca = PaillierEncrypt(pub, near_n, rng_).ValueOrDie();
  BigUInt cb = PaillierEncrypt(pub, BigUInt(2), rng_).ValueOrDie();
  BigUInt sum = PaillierAddCiphertexts(pub, ca, cb);
  // (n - 1) + 2 == 1 (mod n)
  EXPECT_EQ(PaillierDecrypt(key_pair_->private_key, sum).ValueOrDie(),
            BigUInt(1));
}

TEST_F(PaillierTest, ScalarMultiplication) {
  const auto& pub = key_pair_->public_key;
  BigUInt c = PaillierEncrypt(pub, BigUInt(1111), rng_).ValueOrDie();
  BigUInt c9 = PaillierMultiplyPlain(pub, c, BigUInt(9));
  EXPECT_EQ(PaillierDecrypt(key_pair_->private_key, c9).ValueOrDie(),
            BigUInt(9999));
}

TEST_F(PaillierTest, ManyTermAggregation) {
  // The homomorphic-sum extension protocol folds many ciphertexts together.
  const auto& pub = key_pair_->public_key;
  uint64_t expected = 0;
  BigUInt acc = PaillierEncrypt(pub, BigUInt(0), rng_).ValueOrDie();
  for (int i = 1; i <= 20; ++i) {
    expected += static_cast<uint64_t>(i) * 13;
    BigUInt c = PaillierEncrypt(pub, BigUInt(static_cast<uint64_t>(i) * 13),
                                rng_)
                    .ValueOrDie();
    acc = PaillierAddCiphertexts(pub, acc, c);
  }
  EXPECT_EQ(PaillierDecrypt(key_pair_->private_key, acc).ValueOrDie(),
            BigUInt(expected));
}

TEST_F(PaillierTest, RejectsOversizedOperands) {
  EXPECT_FALSE(
      PaillierEncrypt(key_pair_->public_key, key_pair_->public_key.n, rng_)
          .ok());
  EXPECT_FALSE(
      PaillierDecrypt(key_pair_->private_key, key_pair_->public_key.n_squared)
          .ok());
}

TEST_F(PaillierTest, EncryptIsBatchOfOne) {
  // PaillierEncrypt is PaillierEncryptBatch of one plaintext: equal seeds
  // give the same randomizer draws and byte-identical ciphertexts, on the
  // fixed-limb engine and on the heap path alike.
  const PaillierPublicKey& pub = key_pair_->public_key;
  const std::vector<BigUInt> plain = {BigUInt(), BigUInt(42),
                                      pub.n - BigUInt(1)};
  for (bool heap_only : {false, true}) {
    std::optional<ScopedHeapOnlyModPow> guard;
    if (heap_only) guard.emplace();
    Rng single_rng(303), batch_rng(303);
    std::vector<BigUInt> singles;
    for (const BigUInt& m : plain) {
      singles.push_back(PaillierEncrypt(pub, m, &single_rng).ValueOrDie());
    }
    const std::vector<BigUInt> batch =
        PaillierEncryptBatch(pub, plain, &batch_rng).ValueOrDie();
    ASSERT_EQ(batch.size(), singles.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(singles[i].ToLittleEndianBytes(),
                batch[i].ToLittleEndianBytes())
          << "heap_only " << heap_only << " i " << i;
      EXPECT_EQ(PaillierDecryptCrt(key_pair_->private_key, singles[i])
                    .ValueOrDie(),
                plain[i]);
    }
    // Both generators consumed the same stream.
    EXPECT_EQ(single_rng.NextU64(), batch_rng.NextU64());
  }
}

TEST_F(PaillierTest, GenerateRejectsBadSizes) {
  Rng rng(7);
  EXPECT_FALSE(PaillierGenerateKeyPair(&rng, 100).ok());
  EXPECT_FALSE(PaillierGenerateKeyPair(&rng, 513).ok());
}

// ------------------------------------------------------- CRT decryption --

TEST_F(PaillierTest, KeygenFillsCrtBlock) {
  const auto& sk = key_pair_->private_key;
  EXPECT_EQ(sk.p * sk.q, sk.n);
  EXPECT_EQ(sk.p_squared, sk.p * sk.p);
  EXPECT_EQ(sk.q_squared, sk.q * sk.q);
  EXPECT_EQ(ModMul(sk.q % sk.p, sk.q_inv_p, sk.p), BigUInt(1));
}

TEST_F(PaillierTest, CrtMatchesClassicDecrypt) {
  for (int i = 0; i < 25; ++i) {
    BigUInt m = BigUInt::RandomBelow(rng_, key_pair_->public_key.n);
    BigUInt c = PaillierEncrypt(key_pair_->public_key, m, rng_).ValueOrDie();
    EXPECT_EQ(PaillierDecryptCrt(key_pair_->private_key, c).ValueOrDie(), m);
    EXPECT_EQ(PaillierDecrypt(key_pair_->private_key, c).ValueOrDie(), m);
  }
}

TEST_F(PaillierTest, CrtEdgePlaintexts) {
  // m = 0 and m = n - 1 are the extremes of the plaintext space.
  for (const BigUInt& m :
       {BigUInt(), key_pair_->public_key.n - BigUInt(1)}) {
    BigUInt c = PaillierEncrypt(key_pair_->public_key, m, rng_).ValueOrDie();
    EXPECT_EQ(PaillierDecryptCrt(key_pair_->private_key, c).ValueOrDie(), m);
  }
}

TEST_F(PaillierTest, CrtRejectsOversizedCiphertext) {
  EXPECT_FALSE(
      PaillierDecryptCrt(key_pair_->private_key,
                         key_pair_->public_key.n_squared)
          .ok());
  EXPECT_FALSE(PaillierDecryptCrt(key_pair_->private_key,
                                  key_pair_->public_key.n_squared + BigUInt(5))
                   .ok());
}

TEST_F(PaillierTest, CrtRejectsNonCoprimeCiphertext) {
  // gcd(c, n) != 1 can never come out of a valid encryption; the classic
  // path detects it via u != 1 (mod n), the CRT path via the gcd check.
  const BigUInt& p = key_pair_->private_key.p;
  EXPECT_FALSE(PaillierDecryptCrt(key_pair_->private_key, p).ok());
  EXPECT_FALSE(PaillierDecrypt(key_pair_->private_key, p).ok());
}

TEST_F(PaillierTest, DecryptBatchMatchesSerial) {
  std::vector<BigUInt> cts;
  std::vector<BigUInt> expected;
  for (int i = 0; i < 17; ++i) {
    BigUInt m = BigUInt::RandomBelow(rng_, key_pair_->public_key.n);
    expected.push_back(m);
    cts.push_back(
        PaillierEncrypt(key_pair_->public_key, m, rng_).ValueOrDie());
  }
  auto batch = PaillierDecryptBatch(key_pair_->private_key, cts).ValueOrDie();
  ASSERT_EQ(batch.size(), expected.size());
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(batch[i], expected[i]);
}

TEST_F(PaillierTest, DecryptBatchSurfacesMalformedCiphertext) {
  std::vector<BigUInt> cts = {
      PaillierEncrypt(key_pair_->public_key, BigUInt(1), rng_).ValueOrDie(),
      key_pair_->public_key.n_squared + BigUInt(1)};
  EXPECT_FALSE(PaillierDecryptBatch(key_pair_->private_key, cts).ok());
}

}  // namespace
}  // namespace psi
