// Deterministic cryptographically strong pseudo-random generator and the
// distributions used throughout the paper's protocols:
//   * uniform integers / reals (rejection sampling, no modulo bias),
//   * the paper's `Z` distribution on [1, inf) with pdf mu^-2 (Protocol 3),
//   * U(0, M) masks, Bernoulli coins, Fisher-Yates shuffles.

#ifndef PSI_COMMON_RANDOM_H_
#define PSI_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/logging.h"

namespace psi {

/// \brief ChaCha20-based deterministic CSPRNG.
///
/// A fixed seed yields a fully reproducible stream, which the test suite and
/// the benchmark harness rely on.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed (expanded into the 256-bit
  /// ChaCha key by splat-and-distinguish so distinct seeds give independent
  /// streams).
  explicit Rng(uint64_t seed);

  /// Constructs a generator from a full 256-bit key.
  explicit Rng(const std::array<uint32_t, 8>& key);

  /// \brief Derives an independent generator keyed by (this stream, label).
  ///
  /// Forking consumes one `NextU64` from the parent, so adding a forked
  /// consumer shifts the parent's subsequent output by one word.
  Rng Fork(std::string_view label);

  /// \brief Next uniformly random 64-bit value.
  uint64_t NextU64();

  /// \brief Next uniformly random 32-bit value.
  uint32_t NextU32();

  /// \brief Fills `out` with random bytes.
  void FillBytes(uint8_t* out, size_t len);

  /// \brief Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t UniformU64(uint64_t bound);

  /// \brief Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Uniform real in [0, 1).
  double UniformReal();

  /// \brief Uniform real in [lo, hi).
  double UniformReal(double lo, double hi);

  /// \brief Uniform real in (0, 1) — never exactly zero (safe for 1/(1-u)).
  double UniformRealOpen();

  /// \brief Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// \brief Sample from the paper's Z distribution on [1, inf), pdf mu^-2.
  ///
  /// Inverse-CDF: F(mu) = 1 - 1/mu, so M = 1/(1-U) for U ~ U(0,1).
  double SampleZ();

  /// \brief Uniform random permutation of {0, .., n-1} (Fisher-Yates).
  std::vector<size_t> Permutation(size_t n);

  /// \brief In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = UniformU64(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  void Refill();

  PSI_SECRET std::array<uint32_t, 8> key_;
  std::array<uint32_t, 3> nonce_ = {0, 0, 0};
  uint32_t counter_ = 0;
  PSI_SECRET std::array<uint8_t, 64> block_{};
  size_t pos_ = 64;  // Forces a refill on first use.
};

}  // namespace psi

#endif  // PSI_COMMON_RANDOM_H_
