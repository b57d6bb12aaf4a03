// Share representations produced by Protocols 1 and 2.

#ifndef PSI_MPC_SHARES_H_
#define PSI_MPC_SHARES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/biguint.h"

namespace psi {

/// \brief Modular additive shares: s1 + s2 == x (mod S). Held by P1 and P2
/// respectively (Protocol 1 output).
struct ModularShares {
  BigUInt s1;
  BigUInt s2;
};

/// \brief Integer additive shares: s1 + s2 == x exactly over the integers.
/// s2 may be negative after Protocol 2's correction step (s2 <- s2 - S).
struct IntegerShares {
  BigUInt s1;
  BigInt s2;

  /// \brief Reconstructs x (tests and the host-side recombination only).
  BigInt Reconstruct() const { return BigInt(s1) + s2; }
};

/// \brief A batch of share values held as one contiguous array of
/// fixed-width limbs: value i is the little-endian limbs
/// [i * width, (i + 1) * width). Protocols 1-2 compute on this form, so a
/// share costs no allocation of its own; `Value` and `ToBigUInts` convert at
/// the BigUInt boundary.
class ShareVector {
 public:
  ShareVector() = default;
  /// \brief `count` zero values of `width` >= 1 limbs each.
  ShareVector(size_t count, size_t width) : width_(width), limbs_(count * width, 0) {}

  size_t size() const { return width_ == 0 ? 0 : limbs_.size() / width_; }
  size_t width() const { return width_; }
  uint64_t* limbs(size_t i) { return limbs_.data() + i * width_; }
  const uint64_t* limbs(size_t i) const { return limbs_.data() + i * width_; }

  /// \brief Value i as a BigUInt.
  BigUInt Value(size_t i) const { return BigUInt::FromLimbs(limbs(i), width_); }

  /// \brief Every value as a BigUInt, in order.
  std::vector<BigUInt> ToBigUInts() const {
    std::vector<BigUInt> out;
    out.reserve(size());
    for (size_t i = 0; i < size(); ++i) out.push_back(Value(i));
    return out;
  }

  bool operator==(const ShareVector&) const = default;

 private:
  size_t width_ = 0;
  std::vector<uint64_t> limbs_;
};

/// \brief Batched shares for a vector of counters, index-aligned.
struct BatchedModularShares {
  std::vector<BigUInt> s1;
  std::vector<BigUInt> s2;
};

/// \brief Batched integer shares (the state after batched Protocol 2).
struct BatchedIntegerShares {
  std::vector<BigUInt> s1;
  std::vector<BigInt> s2;

  size_t size() const { return s1.size(); }
  IntegerShares At(size_t i) const { return IntegerShares{s1[i], s2[i]}; }
};

}  // namespace psi

#endif  // PSI_MPC_SHARES_H_
