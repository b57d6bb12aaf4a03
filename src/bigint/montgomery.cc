#include "bigint/montgomery.h"

#include <atomic>
#include <vector>

#include "bigint/pow_window.h"
#include "common/logging.h"

namespace psi {

namespace internal {

namespace {
// Relaxed is enough: the only writers are bench/test RAII guards that set
// the flag before launching work and restore it after joining.
std::atomic<bool> g_heap_only_engine{false};
}  // namespace

bool HeapOnlyEngineForced() {
  return g_heap_only_engine.load(std::memory_order_relaxed);
}

void SetHeapOnlyEngineForced(bool forced) {
  g_heap_only_engine.store(forced, std::memory_order_relaxed);
}

}  // namespace internal

namespace {

__extension__ typedef unsigned __int128 u128;

// Inverse of an odd 64-bit value modulo 2^64 by Newton-Hensel lifting:
// each step doubles the number of correct low bits.
uint64_t InverseMod2e64(uint64_t odd) {
  uint64_t x = odd;  // Correct to 3 bits (odd*odd == 1 mod 8).
  for (int i = 0; i < 6; ++i) {
    x *= 2 - odd * x;
  }
  return x;
}

}  // namespace

Result<MontgomeryContext> MontgomeryContext::Create(const BigUInt& modulus,
                                                    EngineMode mode) {
  if (modulus.IsEven() || modulus < BigUInt(3)) {
    return Status::InvalidArgument(
        "Montgomery context requires an odd modulus >= 3");
  }
  size_t limbs = modulus.num_limbs();
  uint64_t n_prime = ~InverseMod2e64(modulus.limb(0)) + 1;  // -n^-1 mod 2^64.
  BigUInt r = BigUInt::PowerOfTwo(64 * limbs);
  BigUInt r_mod_n = r % modulus;
  BigUInt r2_mod_n = BigUInt::PowerOfTwo(128 * limbs) % modulus;
  std::shared_ptr<const FixedMontEngineBase> engine;
  if (mode == EngineMode::kAuto && !internal::HeapOnlyEngineForced()) {
    engine = MakeFixedMontEngine(modulus, n_prime, r_mod_n, r2_mod_n);
  }
  return MontgomeryContext(modulus, n_prime, std::move(r_mod_n),
                           std::move(r2_mod_n), limbs, std::move(engine));
}

BigUInt MontgomeryContext::Reduce(const BigUInt& t) const {
  // Word-level REDC (Montgomery 1985). Precondition: t < n * R.
  std::vector<uint64_t> acc(2 * limbs_ + 1, 0);
  for (size_t i = 0; i < t.num_limbs() && i < acc.size(); ++i) {
    acc[i] = t.limb(i);
  }
  for (size_t i = 0; i < limbs_; ++i) {
    uint64_t m = acc[i] * n_prime_;  // mod 2^64 by wrapping.
    uint64_t carry = 0;
    for (size_t j = 0; j < limbs_; ++j) {
      u128 cur = static_cast<u128>(acc[i + j]) +
                 static_cast<u128>(m) * n_.limb(j) + carry;
      acc[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    size_t idx = i + limbs_;
    while (carry != 0) {
      u128 cur = static_cast<u128>(acc[idx]) + carry;
      acc[idx] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
      ++idx;
    }
  }
  // Result is acc[limbs_ .. 2*limbs_] (the +1 limb catches the final carry).
  BigUInt result = BigUInt::FromLimbs(acc.data() + limbs_, limbs_ + 1);
  if (result >= n_) result -= n_;
  return result;
}

BigUInt MontgomeryContext::ToMontgomery(const BigUInt& a) const {
  if (engine_) return engine_->ToMontgomery(a);
  PSI_DCHECK(a < n_);
  return Reduce(a * r2_mod_n_);
}

BigUInt MontgomeryContext::FromMontgomery(const BigUInt& a) const {
  if (engine_) return engine_->FromMontgomery(a);
  return Reduce(a);
}

BigUInt MontgomeryContext::Multiply(const BigUInt& a, const BigUInt& b) const {
  if (engine_) return engine_->Multiply(a, b);
  return Reduce(a * b);
}

BigUInt MontgomeryContext::Pow(const BigUInt& base, const BigUInt& exp) const {
  if (n_.IsOne()) return BigUInt();
  if (engine_) return engine_->Pow(base, exp);
  BigUInt b_mont = ToMontgomery(base % n_);
  const size_t bits = exp.BitLength();
  const size_t w = internal::WindowBitsFor(bits);
  if (w == 1) {
    BigUInt result = r_mod_n_;  // Montgomery form of 1.
    for (size_t i = bits; i-- > 0;) {
      result = Multiply(result, result);
      if (exp.GetBit(i)) result = Multiply(result, b_mont);
    }
    return FromMontgomery(result);
  }
  // Fixed window: table[d] = base^d in Montgomery form, d < 2^w.
  std::vector<BigUInt> table(size_t{1} << w);
  table[0] = r_mod_n_;
  table[1] = b_mont;
  for (size_t d = 2; d < table.size(); ++d) {
    table[d] = Multiply(table[d - 1], b_mont);
  }
  const size_t digits = (bits + w - 1) / w;
  BigUInt result = table[internal::ExpDigit(exp, (digits - 1) * w, w)];
  for (size_t d = digits - 1; d-- > 0;) {
    for (size_t s = 0; s < w; ++s) result = Multiply(result, result);
    size_t digit = internal::ExpDigit(exp, d * w, w);
    if (digit != 0) result = Multiply(result, table[digit]);
  }
  return FromMontgomery(result);
}

std::vector<BigUInt> MontgomeryContext::PowBatch(
    std::span<const BigUInt> bases, const BigUInt& exp) const {
  if (engine_) return engine_->PowBatch(bases, exp);
  std::vector<BigUInt> out;
  out.reserve(bases.size());
  for (const BigUInt& b : bases) out.push_back(Pow(b, exp));
  return out;
}

}  // namespace psi
