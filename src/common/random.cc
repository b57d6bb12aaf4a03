#include "common/random.h"

#include <cstring>
#include <random>

#include "common/chacha_core.h"

namespace psi {

namespace {

// splitmix64: used only to expand a 64-bit seed into a 256-bit key.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (int i = 0; i < 4; ++i) {
    uint64_t w = SplitMix64(&state);
    key_[static_cast<size_t>(2 * i)] = static_cast<uint32_t>(w & 0xffffffffu);
    key_[static_cast<size_t>(2 * i) + 1] = static_cast<uint32_t>(w >> 32);
  }
}

Rng::Rng(const std::array<uint32_t, 8>& key) : key_(key) {}

Rng Rng::FromEntropy() {
  std::random_device rd;
  std::array<uint32_t, 8> key;
  for (auto& w : key) w = rd();
  return Rng(key);
}

Rng Rng::Fork(std::string_view label) {
  // Mix the parent key, a fresh parent draw, and the label bytes into a new
  // key. The draw advances the parent exactly once per fork.
  std::array<uint32_t, 8> child = key_;
  uint64_t salt = NextU64();
  child[0] ^= static_cast<uint32_t>(salt & 0xffffffffu);
  child[1] ^= static_cast<uint32_t>(salt >> 32);
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the label.
  for (char ch : label) {
    h ^= static_cast<uint8_t>(ch);
    h *= 1099511628211ull;
  }
  child[2] ^= static_cast<uint32_t>(h & 0xffffffffu);
  child[3] ^= static_cast<uint32_t>(h >> 32);
  child[4] ^= 0x9e3779b9u;  // Domain separation from the parent stream.
  return Rng(child);
}

void Rng::Refill() {
  internal::ChaCha20Block(key_, counter_, nonce_, &block_);
  if (++counter_ == 0) {
    // 256 GiB consumed: roll the nonce to keep the stream unique.
    if (++nonce_[0] == 0) ++nonce_[1];
  }
  pos_ = 0;
}

uint64_t Rng::NextU64() {
  if (pos_ + 8 > 64) Refill();
  uint64_t v;
  std::memcpy(&v, block_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

uint32_t Rng::NextU32() {
  if (pos_ + 4 > 64) Refill();
  uint32_t v;
  std::memcpy(&v, block_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

void Rng::FillBytes(uint8_t* out, size_t len) {
  size_t done = 0;
  while (done < len) {
    if (pos_ >= 64) Refill();
    size_t take = std::min<size_t>(64 - pos_, len - done);
    std::memcpy(out + done, block_.data() + pos_, take);
    pos_ += take;
    done += take;
  }
}

uint64_t Rng::UniformU64(uint64_t bound) {
  PSI_CHECK(bound > 0) << "UniformU64 bound must be positive";
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;  // == 2^64 mod bound
  for (;;) {
    uint64_t v = NextU64();
    if (v >= threshold) return v % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PSI_CHECK(lo <= hi) << "UniformInt requires lo <= hi";
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // Full range.
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + UniformU64(span));
}

double Rng::UniformReal() {
  // 53 random bits scaled into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformReal(double lo, double hi) {
  return lo + (hi - lo) * UniformReal();
}

double Rng::UniformRealOpen() {
  // (v + 0.5) / 2^53 lies in (0, 1) for v in [0, 2^53).
  return (static_cast<double>(NextU64() >> 11) + 0.5) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) { return UniformReal() < p; }

double Rng::SampleZ() { return 1.0 / (1.0 - UniformRealOpen()); }

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(&perm);
  return perm;
}

}  // namespace psi
