#include "bigint/fixed_mont.h"

#include <algorithm>
#include <vector>

#include "bigint/limb_kernel.h"
#include "bigint/montgomery.h"
#include "bigint/pow_window.h"
#include "common/logging.h"

namespace psi {

namespace {

#if PSI_LIMB_KERNEL_X86
// Fewest live lanes for which an IFMA call beats per-base scalar Pow: the
// kernel costs the same for 1 lane as for 8, about 1.7 scalar Pows at the
// RSA public exponent (docs/PERF.md "Batched exponentiation").
constexpr size_t kIfmaMinLanes = 2;

constexpr uint64_t kDigitMask = (uint64_t{1} << 52) - 1;

// Spreads an L-limb value into D 52-bit digits, `stride` words apart.
template <size_t L, size_t D>
void ToDigits(const uint64_t* limbs, uint64_t* digits, size_t stride) {
  limb_kernel::u128 acc = 0;
  size_t bits = 0;
  size_t next = 0;
  for (size_t j = 0; j < D; ++j) {
    if (bits < 52 && next < L) {
      acc |= static_cast<limb_kernel::u128>(limbs[next++]) << bits;
      bits += 64;
    }
    digits[j * stride] = static_cast<uint64_t>(acc) & kDigitMask;
    acc >>= 52;
    bits = bits > 52 ? bits - 52 : 0;
  }
}

// Gathers D 52-bit digits at stride kIfmaLanes back into L limbs. The value
// must fit L limbs.
template <size_t L, size_t D>
void FromDigits(const uint64_t* digits, uint64_t* limbs) {
  limb_kernel::u128 acc = 0;
  size_t bits = 0;
  size_t next = 0;
  for (size_t j = 0; j < D && next < L; ++j) {
    acc |= static_cast<limb_kernel::u128>(
               digits[j * limb_kernel::kIfmaLanes]) << bits;
    bits += 52;
    if (bits >= 64) {
      limbs[next++] = static_cast<uint64_t>(acc);
      acc >>= 64;
      bits -= 64;
    }
  }
  for (; next < L; ++next) {
    limbs[next] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
}

// carry*2^(64L) + v minus n when that is >= n, selected by mask rather than
// by a branch; returns the new carry.
template <size_t L>
uint64_t SubIfAtLeast(uint64_t carry, uint64_t* v, const uint64_t* n) {
  uint64_t t[L];
  const uint64_t borrow = limb_kernel::SubFixed<L>(v, n, t);
  const uint64_t keep = 0 - static_cast<uint64_t>(carry >= borrow);
  for (size_t i = 0; i < L; ++i) v[i] = (t[i] & keep) | (v[i] & ~keep);
  return carry - (borrow & keep);
}

template <size_t L>
class FixedCrtPowImpl;
#endif  // PSI_LIMB_KERNEL_X86

template <size_t L>
class FixedMontEngine final : public FixedMontEngineBase {
 public:
  FixedMontEngine(const BigUInt& modulus, uint64_t n_prime,
                  const BigUInt& r_mod_n, const BigUInt& r2_mod_n)
      : n_big_(modulus), n0_(n_prime) {
    for (size_t i = 0; i < L; ++i) {
      n_[i] = modulus.limb(i);
      one_mont_[i] = r_mod_n.limb(i);
      r2_[i] = r2_mod_n.limb(i);
      one_[i] = i == 0 ? 1 : 0;
    }
#if PSI_LIMB_KERNEL_X86
    if constexpr (kIfmaWidth) {
      ifma_ = limb_kernel::ActiveVariant() == limb_kernel::Variant::kX86AdxIfma;
      if (ifma_) {
        // The batch kernel's own Montgomery radix R = 2^(52*D).
        uint64_t rr[L];
        Load(BigUInt::PowerOfTwo(2 * 52 * kDigits) % modulus, rr);
        ToDigits<L, kDigits>(n_, ifma_n_, 1);
        ToDigits<L, kDigits>(rr, ifma_rr_, 1);
        ifma_k0_ = n_prime & kDigitMask;
      }
    }
#endif
  }

  size_t limbs() const override { return L; }

  // -- raw-limb members: L-limb little-endian buffers, no allocation --------

  /// out = a*b*R^-1 mod n for Montgomery-domain a, b < n. Aliasing with
  /// either input is fine.
  void MontMulRaw(const uint64_t* a, const uint64_t* b, uint64_t* out) const {
    limb_kernel::MontMul<L>(a, b, n_, n0_, out);
  }

  /// out = a*R mod n for an ordinary residue a < n.
  void ToMontRaw(const uint64_t* a, uint64_t* out) const {
    limb_kernel::MontMul<L>(a, r2_, n_, n0_, out);
  }

  /// out = a*R^-1 mod n: REDC(a * 1) leaves the Montgomery domain.
  void FromMontRaw(const uint64_t* a, uint64_t* out) const {
    limb_kernel::MontMul<L>(a, one_, n_, n0_, out);
  }

  /// out = R mod n, the Montgomery form of 1.
  void OneMontRaw(uint64_t* out) const {
    for (size_t i = 0; i < L; ++i) out[i] = one_mont_[i];
  }

  // -- BigUInt boundary -----------------------------------------------------

  BigUInt Multiply(const BigUInt& a, const BigUInt& b) const override {
    uint64_t ra[L], rb[L], ro[L];
    Load(a, ra);
    Load(b, rb);
    limb_kernel::MontMul<L>(ra, rb, n_, n0_, ro);
    return BigUInt::FromLimbs(ro, L);
  }

  BigUInt ToMontgomery(const BigUInt& a) const override {
    PSI_DCHECK(a < n_big_);
    uint64_t ra[L];
    Load(a, ra);
    ToMontRaw(ra, ra);
    return BigUInt::FromLimbs(ra, L);
  }

  BigUInt FromMontgomery(const BigUInt& a) const override {
    uint64_t ra[L];
    Load(a, ra);
    FromMontRaw(ra, ra);
    return BigUInt::FromLimbs(ra, L);
  }

  BigUInt Pow(const BigUInt& base,
              PSI_SECRET const BigUInt& exp) const override {
    // Same digit walk as the heap MontgomeryContext::Pow (pow_window.h), so
    // the two paths compute identical intermediate values — only the limb
    // storage differs.
    uint64_t b_mont[L];
    Load(base % n_big_, b_mont);
    ToMontRaw(b_mont, b_mont);
    const size_t bits = exp.BitLength();
    const size_t w = internal::WindowBitsFor(bits);
    uint64_t result[L];
    // psi-lint: allow(secret-flow) w derives only from exp.BitLength(); the key size is a public parameter
    if (w == 1) {
      OneMontRaw(result);
      for (size_t i = bits; i-- > 0;) {
        MontMulRaw(result, result, result);
        // psi-lint: allow(secret-flow) exponent ladder at the key owner; DESIGN.md's simulated network carries no timing channel
        if (exp.GetBit(i)) MontMulRaw(result, b_mont, result);
      }
    } else {
      // table[d] = base^d in Montgomery form, d < 2^w, rows flat at stride L.
      // psi-lint: allow(secret-flow) shift count w is a function of the public key size only
      const size_t table_size = size_t{1} << w;
      std::vector<uint64_t> table(table_size * L);
      OneMontRaw(table.data());
      for (size_t i = 0; i < L; ++i) table[L + i] = b_mont[i];
      for (size_t d = 2; d < table_size; ++d) {
        MontMulRaw(&table[(d - 1) * L], b_mont, &table[d * L]);
      }
      // psi-lint: allow(secret-flow) digit count depends on the public key size, not the exponent value
      const size_t digits = (bits + w - 1) / w;
      const size_t top = internal::ExpDigit(exp, (digits - 1) * w, w);
      // psi-lint: allow(secret-flow) windowed table walk at the key owner; same exposure DESIGN.md accepts for the ladder above
      for (size_t i = 0; i < L; ++i) result[i] = table[top * L + i];
      for (size_t d = digits - 1; d-- > 0;) {
        for (size_t s = 0; s < w; ++s) MontMulRaw(result, result, result);
        const size_t digit = internal::ExpDigit(exp, d * w, w);
        // psi-lint: allow(secret-flow) windowed table walk at the key owner; same exposure DESIGN.md accepts for the ladder above
        if (digit != 0) MontMulRaw(result, &table[digit * L], result);
      }
    }
    FromMontRaw(result, result);
    return BigUInt::FromLimbs(result, L);
  }

  std::vector<BigUInt> PowBatch(std::span<const BigUInt> bases,
                                PSI_SECRET const BigUInt& exp) const override {
#if PSI_LIMB_KERNEL_X86
    if constexpr (kIfmaWidth) {
      // psi-lint: allow(secret-flow) a zero exponent has no window to walk; no key exponent is zero, so the branch reveals nothing
      if (ifma_ && !exp.IsZero()) return PowBatchIfma(bases, exp);
    }
#endif
    std::vector<BigUInt> out;
    out.reserve(bases.size());
    for (const BigUInt& b : bases) out.push_back(Pow(b, exp));
    return out;
  }

 private:
  /// Loads a value < n into an L-limb buffer (high limbs zero-filled).
  static void Load(const BigUInt& v, uint64_t* out) {
    PSI_DCHECK(v.num_limbs() <= L);
    for (size_t i = 0; i < L; ++i) out[i] = v.limb(i);
  }

#if PSI_LIMB_KERNEL_X86
  // Widths the IFMA kernel is instantiated for (256- and 512-bit moduli).
  static constexpr bool kIfmaWidth = L == 4 || L == 8;
  static constexpr size_t kDigits = limb_kernel::IfmaDigits(L);

  std::vector<BigUInt> PowBatchIfma(std::span<const BigUInt> bases,
                                    PSI_SECRET const BigUInt& exp) const {
    // The exponent's fixed-window digits, most significant first: the same
    // windows Pow walks, shared by every lane.
    const size_t bits = exp.BitLength();
    const size_t w = internal::WindowBitsFor(bits);
    // psi-lint: allow(secret-flow) digit count depends on the public key size, not the exponent value
    const size_t num_digits = (bits + w - 1) / w;
    PSI_SECRET std::vector<uint8_t> digits(num_digits);
    for (size_t d = 0; d < num_digits; ++d) {
      digits[d] = static_cast<uint8_t>(
          internal::ExpDigit(exp, (num_digits - 1 - d) * w, w));
    }
    constexpr size_t kLanes = limb_kernel::kIfmaLanes;
    std::vector<BigUInt> out;
    out.reserve(bases.size());
    size_t next = 0;
    while (bases.size() - next >= kIfmaMinLanes) {
      const size_t lanes = std::min(kLanes, bases.size() - next);
      // Idle lanes carry base 0; their results are dropped.
      uint64_t in[kDigits * kLanes] = {};
      uint64_t res[kDigits * kLanes];
      for (size_t l = 0; l < lanes; ++l) {
        const BigUInt& b = bases[next + l];
        uint64_t limbs[L];
        if (b < n_big_) {
          Load(b, limbs);
        } else {
          Load(b % n_big_, limbs);
        }
        ToDigits<L, kDigits>(limbs, in + l, kLanes);
      }
      const limb_kernel::IfmaWalk walk{in, ifma_n_, ifma_k0_, ifma_rr_,
                                       digits.data(), res};
      limb_kernel::PowBatchIfma<kDigits, 1>(&walk, num_digits, w);
      for (size_t l = 0; l < lanes; ++l) {
        uint64_t limbs[L];
        LaneResult(res + l, limbs);
        out.push_back(BigUInt::FromLimbs(limbs, L));
      }
      next += lanes;
    }
    // Too few bases left to fill a kernel call: per-base scalar Pow.
    for (; next < bases.size(); ++next) out.push_back(Pow(bases[next], exp));
    return out;
  }

  // Lane `res` of a kernel result as canonical limbs: the kernel may leave
  // n itself for a result that is 0 mod n.
  void LaneResult(const uint64_t* res, uint64_t* limbs) const {
    FromDigits<L, kDigits>(res, limbs);
    SubIfAtLeast<L>(0, limbs, n_);
  }

  template <size_t>
  friend class FixedCrtPowImpl;

  bool ifma_ = false;               // Batch kernel usable for this engine.
  uint64_t ifma_n_[kDigits] = {};   // n in 52-bit digits.
  uint64_t ifma_rr_[kDigits] = {};  // R^2 mod n for the kernel's R.
  uint64_t ifma_k0_ = 0;            // -n^-1 mod 2^52.
#endif  // PSI_LIMB_KERNEL_X86

  BigUInt n_big_;           // For the boundary reductions (base % n).
  uint64_t n_[L];           // The modulus.
  uint64_t one_mont_[L];    // R mod n (Montgomery form of 1).
  uint64_t r2_[L];          // R^2 mod n (ToMontgomery multiplier).
  uint64_t one_[L];         // Plain 1 (FromMontgomery multiplier).
  uint64_t n0_;             // -n^-1 mod 2^64.
};

#if PSI_LIMB_KERNEL_X86
// The fixed-limb CRT path for two L-limb primes p, q, each with its top bit
// set (docs/PERF.md "Batched exponentiation").
template <size_t L>
class FixedCrtPowImpl final : public FixedCrtPow {
  static constexpr size_t kDigits = limb_kernel::IfmaDigits(L);
  static constexpr size_t kLanes = limb_kernel::kIfmaLanes;
  // Both halves share one kernel walk only at D = 5: at D = 10 the
  // interleaved multiply spills registers and measured slower than two
  // separate walks.
  static constexpr size_t kWalks =
      kDigits == limb_kernel::IfmaDigits(4) ? 2 : 1;

 public:
  FixedCrtPowImpl(std::shared_ptr<const MontgomeryContext> p_ctx,
                  std::shared_ptr<const MontgomeryContext> q_ctx,
                  const FixedMontEngine<L>& p, const FixedMontEngine<L>& q,
                  PSI_SECRET const BigUInt& dp, PSI_SECRET const BigUInt& dq,
                  PSI_SECRET const BigUInt& q_inv_p)
      : p_ctx_(std::move(p_ctx)), q_ctx_(std::move(q_ctx)), p_(p), q_(q) {
    // One window width and digit count for both exponents, from the longer
    // one; ExpDigit reads zeros past the shorter one's top bit, which pads
    // it with leading zero digits. A zero exponent walks one zero digit.
    const size_t bits = std::max(dp.BitLength(), dq.BitLength());
    w_ = internal::WindowBitsFor(bits);
    // psi-lint: allow(secret-flow) digit count depends on the public key size, not the exponent value
    num_digits_ = std::max<size_t>(1, (bits + w_ - 1) / w_);
    dp_digits_.resize(num_digits_);
    dq_digits_.resize(num_digits_);
    for (size_t t = 0; t < num_digits_; ++t) {
      const size_t pos = (num_digits_ - 1 - t) * w_;
      dp_digits_[t] = static_cast<uint8_t>(internal::ExpDigit(dp, pos, w_));
      dq_digits_[t] = static_cast<uint8_t>(internal::ExpDigit(dq, pos, w_));
    }
    // q^-1 * R mod p: one Montgomery multiply by it is Garner's q^-1 factor.
    uint64_t q_inv[L];
    // psi-lint: allow(secret-flow) once per batch call at the key owner; DESIGN.md's simulated network carries no timing channel
    FixedMontEngine<L>::Load(q_inv_p % p_.n_big_, q_inv);
    p_.ToMontRaw(q_inv, q_inv_r_);
  }

  // The path for L-limb contexts p and q, or nullptr (MakeFixedCrtPow).
  static std::unique_ptr<const FixedCrtPow> Create(
      std::shared_ptr<const MontgomeryContext> p,
      std::shared_ptr<const MontgomeryContext> q, PSI_SECRET const BigUInt& dp,
      PSI_SECRET const BigUInt& dq, PSI_SECRET const BigUInt& q_inv_p) {
    const auto* pe = dynamic_cast<const FixedMontEngine<L>*>(p->fixed_engine());
    const auto* qe = dynamic_cast<const FixedMontEngine<L>*>(q->fixed_engine());
    if (pe == nullptr || qe == nullptr || !pe->ifma_ || !qe->ifma_ ||
        p->modulus().BitLength() != 64 * L ||
        q->modulus().BitLength() != 64 * L) {
      return nullptr;
    }
    return std::make_unique<FixedCrtPowImpl>(std::move(p), std::move(q), *pe,
                                             *qe, dp, dq, q_inv_p);
  }

  void PowBatch(std::span<const BigUInt> xs, BigUInt* out) const override {
    for (size_t next = 0; next < xs.size(); next += kLanes) {
      const size_t lanes = std::min(kLanes, xs.size() - next);
      // Idle lanes carry base 0; their results are dropped.
      uint64_t in_p[kDigits * kLanes] = {}, in_q[kDigits * kLanes] = {};
      uint64_t res_p[kDigits * kLanes], res_q[kDigits * kLanes];
      for (size_t l = 0; l < lanes; ++l) {
        uint64_t x[2 * L], r[L];
        for (size_t i = 0; i < 2 * L; ++i) x[i] = xs[next + l].limb(i);
        Split(p_, x, r);
        ToDigits<L, kDigits>(r, in_p + l, kLanes);
        Split(q_, x, r);
        ToDigits<L, kDigits>(r, in_q + l, kLanes);
      }
      const limb_kernel::IfmaWalk walks[2] = {
          {in_p, p_.ifma_n_, p_.ifma_k0_, p_.ifma_rr_, dp_digits_.data(),
           res_p},
          {in_q, q_.ifma_n_, q_.ifma_k0_, q_.ifma_rr_, dq_digits_.data(),
           res_q}};
      if constexpr (kWalks == 2) {
        limb_kernel::PowBatchIfma<kDigits, 2>(walks, num_digits_, w_);
      } else {
        limb_kernel::PowBatchIfma<kDigits, 1>(&walks[0], num_digits_, w_);
        limb_kernel::PowBatchIfma<kDigits, 1>(&walks[1], num_digits_, w_);
      }
      for (size_t l = 0; l < lanes; ++l) {
        uint64_t m_p[L], m_q[L];
        p_.LaneResult(res_p + l, m_p);
        q_.LaneResult(res_q + l, m_q);
        out[next + l] = Garner(m_p, m_q);
      }
    }
  }

 private:
  // out = x mod n for a 2L-limb x = hi*2^(64L) + lo. With R = 2^(64L),
  // MontMul(hi, R^2 mod n) = hi*2^(64L) mod n, canonical because hi*R^2
  // mod n < R*n; lo < R <= 2n because n has its top bit set. The sum is
  // below 3n, so two subtractions of n finish.
  static void Split(const FixedMontEngine<L>& e, const uint64_t* x,
                    uint64_t* out) {
    uint64_t fold[L];
    e.MontMulRaw(x + L, e.r2_, fold);
    uint64_t carry = limb_kernel::AddFixed<L>(x, fold, out);
    carry = SubIfAtLeast<L>(carry, out, e.n_);
    SubIfAtLeast<L>(carry, out, e.n_);
  }

  // Garner: m = m_q + q*h with h = q^-1 * (m_p - m_q) mod p, for canonical
  // m_p < p and m_q < q. m_q < 2^(64L) <= 2p, so one subtraction brings it
  // below p; m < p*q fits 2L limbs.
  BigUInt Garner(const uint64_t* m_p, const uint64_t* m_q) const {
    uint64_t diff[L], h[L], wrap[L];
    for (size_t i = 0; i < L; ++i) h[i] = m_q[i];
    SubIfAtLeast<L>(0, h, p_.n_);
    const uint64_t borrow = limb_kernel::SubFixed<L>(m_p, h, diff);
    for (size_t i = 0; i < L; ++i) wrap[i] = p_.n_[i] & (0 - borrow);
    limb_kernel::AddFixed<L>(diff, wrap, diff);
    p_.MontMulRaw(q_inv_r_, diff, h);
    uint64_t m[2 * L], m_q_wide[2 * L] = {};
    limb_kernel::MulFixed<L>(h, q_.n_, m);
    for (size_t i = 0; i < L; ++i) m_q_wide[i] = m_q[i];
    limb_kernel::AddFixed<2 * L>(m, m_q_wide, m);
    return BigUInt::FromLimbs(m, 2 * L);
  }

  std::shared_ptr<const MontgomeryContext> p_ctx_, q_ctx_;  // Own p_, q_.
  const FixedMontEngine<L>& p_;
  const FixedMontEngine<L>& q_;
  size_t w_ = 1;
  size_t num_digits_ = 1;
  PSI_SECRET std::vector<uint8_t> dp_digits_;
  PSI_SECRET std::vector<uint8_t> dq_digits_;
  uint64_t q_inv_r_[L];  // q^-1 * R mod p.
};

#endif  // PSI_LIMB_KERNEL_X86

}  // namespace

std::unique_ptr<const FixedCrtPow> MakeFixedCrtPow(
    [[maybe_unused]] std::shared_ptr<const MontgomeryContext> p,
    [[maybe_unused]] std::shared_ptr<const MontgomeryContext> q,
    [[maybe_unused]] const BigUInt& n,
    [[maybe_unused]] PSI_SECRET const BigUInt& dp,
    [[maybe_unused]] PSI_SECRET const BigUInt& dq,
    [[maybe_unused]] PSI_SECRET const BigUInt& q_inv_p) {
#if PSI_LIMB_KERNEL_X86
  if (p != nullptr && q != nullptr && p->fixed_engine() != nullptr &&
      n == p->modulus() * q->modulus()) {
    switch (p->fixed_engine()->limbs()) {
      case 4:
        return FixedCrtPowImpl<4>::Create(std::move(p), std::move(q), dp, dq,
                                           q_inv_p);
      case 8:
        return FixedCrtPowImpl<8>::Create(std::move(p), std::move(q), dp, dq,
                                           q_inv_p);
      default:
        break;
    }
  }
#endif
  return nullptr;
}

std::shared_ptr<const FixedMontEngineBase> MakeFixedMontEngine(
    const BigUInt& modulus, uint64_t n_prime, const BigUInt& r_mod_n,
    const BigUInt& r2_mod_n) {
  // Only an EXACT width match attaches an engine: the engine's R is
  // 2^(64*L), and only L == num_limbs(modulus) reproduces the heap path's
  // R, keeping Montgomery-domain values interchangeable between the two.
  switch (modulus.num_limbs()) {
    case 4:
      return std::make_shared<FixedMontEngine<4>>(modulus, n_prime, r_mod_n,
                                                  r2_mod_n);
    case 8:
      return std::make_shared<FixedMontEngine<8>>(modulus, n_prime, r_mod_n,
                                                  r2_mod_n);
    case 16:
      return std::make_shared<FixedMontEngine<16>>(modulus, n_prime, r_mod_n,
                                                   r2_mod_n);
    case 32:
      return std::make_shared<FixedMontEngine<32>>(modulus, n_prime, r_mod_n,
                                                   r2_mod_n);
    case 64:
      return std::make_shared<FixedMontEngine<64>>(modulus, n_prime, r_mod_n,
                                                   r2_mod_n);
    default:
      return nullptr;
  }
}

}  // namespace psi
