#include "bigint/biguint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "bigint/limb_kernel.h"
#include "common/logging.h"

namespace psi {

namespace {

__extension__ typedef unsigned __int128 u128;

// Cutover below which MulKaratsuba falls back to schoolbook. Re-tuned after
// the schoolbook base case moved onto the dispatched limb kernels
// (limb_kernel::Mul, BMI2/ADX on x86): BM_BigUIntMul sweep
// (256/1024/4096/16384-bit balanced operands) over thresholds
// {8,16,24,28,32,40,48,64,96}. 8-16 still lose 2-4x to recursion overhead;
// 24-32 now pay ~15% at 4096 bits (the faster mulx base case shrinks what a
// split saves, so splitting down to 16-limb leaves got relatively worse);
// 40-64 tie within noise at every size (4096b: 4.2-4.4us; 16384b: 46-47us)
// and 96 gives back ~10% by running 64-limb schoolbook leaves. The pre- and
// post-kernel sweeps agree on 40 as the smallest value on the plateau, so
// Karatsuba still engages for 2560-bit-plus operands (Paillier n^2 products
// at 2048-bit keys and up).
constexpr size_t kKaratsubaThreshold = 40;  // limbs
constexpr uint64_t kDecChunk = 10000000000000000000ull;  // 10^19
constexpr int kDecChunkDigits = 19;

// The sweep harness overrides the cutover via PSI_KARATSUBA_THRESHOLD; the
// committed default above is what ships. Read once per process.
size_t KaratsubaThreshold() {
  static const size_t kThreshold = [] {
    if (const char* env = std::getenv("PSI_KARATSUBA_THRESHOLD")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 1) return static_cast<size_t>(v);
    }
    return kKaratsubaThreshold;
  }();
  return kThreshold;
}

int HexDigitValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void BigUInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

Result<BigUInt> BigUInt::FromDecimalString(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty decimal string");
  BigUInt v;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t take = std::min<size_t>(static_cast<size_t>(kDecChunkDigits),
                                   s.size() - pos);
    uint64_t chunk = 0;
    uint64_t scale = 1;
    for (size_t i = 0; i < take; ++i) {
      char c = s[pos + i];
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("invalid decimal digit");
      }
      chunk = chunk * 10 + static_cast<uint64_t>(c - '0');
      scale *= 10;
    }
    v *= BigUInt(scale);
    v += BigUInt(chunk);
    pos += take;
  }
  return v;
}

Result<BigUInt> BigUInt::FromHexString(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty hex string");
  BigUInt v;
  for (char c : s) {
    int d = HexDigitValue(c);
    if (d < 0) return Status::InvalidArgument("invalid hex digit");
    v <<= 4;
    v += BigUInt(static_cast<uint64_t>(d));
  }
  return v;
}

BigUInt BigUInt::FromLittleEndianBytes(const std::vector<uint8_t>& bytes) {
  BigUInt v;
  v.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    v.limbs_[i / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  v.Normalize();
  return v;
}

BigUInt BigUInt::FromLimbs(const uint64_t* limbs, size_t count) {
  BigUInt v;
  v.limbs_.assign(limbs, limbs + count);
  v.Normalize();
  return v;
}

BigUInt BigUInt::PowerOfTwo(size_t k) {
  BigUInt v;
  v.limbs_.assign(k / 64 + 1, 0);
  v.limbs_.back() = 1ull << (k % 64);
  return v;
}

BigUInt BigUInt::RandomBits(Rng* rng, size_t bits) {
  BigUInt v;
  if (bits == 0) return v;
  size_t limbs = (bits + 63) / 64;
  v.limbs_.resize(limbs);
  for (auto& l : v.limbs_) l = rng->NextU64();
  size_t top_bits = bits % 64;
  if (top_bits != 0) {
    v.limbs_.back() &= (~0ull) >> (64 - top_bits);
  }
  v.Normalize();
  return v;
}

BigUInt BigUInt::RandomBelow(Rng* rng, const BigUInt& bound) {
  PSI_CHECK(!bound.IsZero()) << "RandomBelow requires a positive bound";
  // Candidates as wide as the largest value, bound - 1: a power-of-two
  // bound then never redraws.
  size_t bits = (bound - BigUInt(1)).BitLength();
  for (;;) {
    BigUInt candidate = RandomBits(rng, bits);
    if (candidate < bound) return candidate;
  }
}

size_t BigUInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return 64 * limbs_.size() -
         static_cast<size_t>(std::countl_zero(limbs_.back()));
}

bool BigUInt::GetBit(size_t i) const {
  size_t limb_idx = i / 64;
  if (limb_idx >= limbs_.size()) return false;
  return (limbs_[limb_idx] >> (i % 64)) & 1;
}

void BigUInt::SetBit(size_t i) {
  size_t limb_idx = i / 64;
  if (limb_idx >= limbs_.size()) limbs_.resize(limb_idx + 1, 0);
  limbs_[limb_idx] |= 1ull << (i % 64);
}

// -- Addition / subtraction ---------------------------------------------------

BigUInt& BigUInt::operator+=(const BigUInt& rhs) {
  if (limbs_.size() < rhs.limbs_.size()) limbs_.resize(rhs.limbs_.size(), 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    u128 sum = static_cast<u128>(limbs_[i]) + carry;
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
    if (carry == 0 && i >= rhs.limbs_.size()) break;
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

BigUInt BigUInt::operator+(const BigUInt& rhs) const {
  BigUInt out = *this;
  out += rhs;
  return out;
}

BigUInt& BigUInt::operator-=(const BigUInt& rhs) {
  PSI_CHECK(*this >= rhs) << "BigUInt subtraction underflow";
  uint64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t sub = (i < rhs.limbs_.size()) ? rhs.limbs_[i] : 0;
    u128 lhs_val = static_cast<u128>(limbs_[i]);
    u128 rhs_val = static_cast<u128>(sub) + borrow;
    if (lhs_val >= rhs_val) {
      limbs_[i] = static_cast<uint64_t>(lhs_val - rhs_val);
      borrow = 0;
    } else {
      limbs_[i] =
          static_cast<uint64_t>((static_cast<u128>(1) << 64) + lhs_val - rhs_val);
      borrow = 1;
    }
    if (borrow == 0 && i >= rhs.limbs_.size()) break;
  }
  Normalize();
  return *this;
}

BigUInt BigUInt::operator-(const BigUInt& rhs) const {
  BigUInt out = *this;
  out -= rhs;
  return out;
}

Result<BigUInt> BigUInt::CheckedSub(const BigUInt& rhs) const {
  if (*this < rhs) return Status::OutOfRange("BigUInt subtraction underflow");
  return *this - rhs;
}

// -- Multiplication -----------------------------------------------------------

BigUInt BigUInt::MulSchoolbook(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  if (a.IsZero() || b.IsZero()) return out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  // The CPU-dispatched limb kernel (mulx/adcx chains where the CPU has
  // them, __int128 schoolbook otherwise) is the shared base case for
  // BigUInt and FixedUInt multiplies.
  limb_kernel::Mul(a.limbs_.data(), a.limbs_.size(), b.limbs_.data(),
                   b.limbs_.size(), out.limbs_.data());
  out.Normalize();
  return out;
}

BigUInt BigUInt::Slice(size_t lo, size_t hi) const {
  BigUInt out;
  lo = std::min(lo, limbs_.size());
  hi = std::min(hi, limbs_.size());
  if (lo < hi) {
    out.limbs_.assign(limbs_.begin() + static_cast<ptrdiff_t>(lo),
                      limbs_.begin() + static_cast<ptrdiff_t>(hi));
  }
  out.Normalize();
  return out;
}

BigUInt BigUInt::MulKaratsuba(const BigUInt& a, const BigUInt& b) {
  const size_t threshold = KaratsubaThreshold();
  if (a.limbs_.size() < threshold || b.limbs_.size() < threshold) {
    return MulSchoolbook(a, b);
  }
  size_t half = std::max(a.limbs_.size(), b.limbs_.size()) / 2;
  BigUInt a0 = a.Slice(0, half), a1 = a.Slice(half, a.limbs_.size());
  BigUInt b0 = b.Slice(0, half), b1 = b.Slice(half, b.limbs_.size());

  BigUInt z0 = MulKaratsuba(a0, b0);
  BigUInt z2 = MulKaratsuba(a1, b1);
  BigUInt z1 = MulKaratsuba(a0 + a1, b0 + b1);
  z1 -= z0;
  z1 -= z2;

  BigUInt out = z2 << (128 * half);
  out += z1 << (64 * half);
  out += z0;
  return out;
}

BigUInt BigUInt::operator*(const BigUInt& rhs) const {
  return MulKaratsuba(*this, rhs);
}

BigUInt& BigUInt::operator*=(const BigUInt& rhs) {
  *this = *this * rhs;
  return *this;
}

// -- Shifts -------------------------------------------------------------------

BigUInt& BigUInt::operator<<=(size_t bits) {
  if (IsZero() || bits == 0) return *this;
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  size_t old_size = limbs_.size();
  limbs_.resize(old_size + limb_shift + (bit_shift != 0 ? 1 : 0), 0);
  for (size_t i = old_size; i-- > 0;) {
    uint64_t lo = limbs_[i];
    if (bit_shift == 0) {
      limbs_[i + limb_shift] = lo;
    } else {
      limbs_[i + limb_shift + 1] |= lo >> (64 - bit_shift);
      limbs_[i + limb_shift] = lo << bit_shift;
    }
  }
  for (size_t i = 0; i < limb_shift; ++i) limbs_[i] = 0;
  Normalize();
  return *this;
}

BigUInt& BigUInt::operator>>=(size_t bits) {
  if (IsZero()) return *this;
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  size_t new_size = limbs_.size() - limb_shift;
  for (size_t i = 0; i < new_size; ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    limbs_[i] = v;
  }
  limbs_.resize(new_size);
  Normalize();
  return *this;
}

BigUInt BigUInt::operator<<(size_t bits) const {
  BigUInt out = *this;
  out <<= bits;
  return out;
}

BigUInt BigUInt::operator>>(size_t bits) const {
  BigUInt out = *this;
  out >>= bits;
  return out;
}

// -- Comparison ---------------------------------------------------------------

std::strong_ordering BigUInt::operator<=>(const BigUInt& rhs) const {
  if (limbs_.size() != rhs.limbs_.size()) {
    return limbs_.size() <=> rhs.limbs_.size();
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
  }
  return std::strong_ordering::equal;
}

// -- Division (Knuth Algorithm D) ----------------------------------------------

void BigUInt::DivMod(const BigUInt& num, const BigUInt& den, BigUInt* quot,
                     BigUInt* rem) {
  PSI_CHECK(!den.IsZero()) << "BigUInt division by zero";
  if (num < den) {
    if (quot != nullptr) *quot = BigUInt();
    if (rem != nullptr) *rem = num;
    return;
  }

  // Single-limb divisor fast path.
  if (den.limbs_.size() == 1) {
    uint64_t d = den.limbs_[0];
    BigUInt q;
    q.limbs_.assign(num.limbs_.size(), 0);
    u128 carry = 0;
    for (size_t i = num.limbs_.size(); i-- > 0;) {
      u128 cur = (carry << 64) | num.limbs_[i];
      q.limbs_[i] = static_cast<uint64_t>(cur / d);
      carry = cur % d;
    }
    q.Normalize();
    if (quot != nullptr) *quot = std::move(q);
    if (rem != nullptr) *rem = BigUInt(static_cast<uint64_t>(carry));
    return;
  }

  // General case. Normalize so the divisor's top bit is set.
  size_t shift = static_cast<size_t>(std::countl_zero(den.limbs_.back()));
  BigUInt u = num << shift;
  BigUInt v = den << shift;
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;  // u >= v, so this is >= 0.
  u.limbs_.resize(u.limbs_.size() + 1, 0);  // Room for the virtual top limb.

  BigUInt q;
  q.limbs_.assign(m + 1, 0);

  const uint64_t v1 = v.limbs_[n - 1];
  const uint64_t v2 = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    u128 top = (static_cast<u128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    u128 qhat = top / v1;
    u128 rhat = top % v1;
    // Correct qhat: it can be at most 2 too large.
    while (qhat >= (static_cast<u128>(1) << 64) ||
           qhat * v2 > ((rhat << 64) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v1;
      if (rhat >= (static_cast<u128>(1) << 64)) break;
    }

    // Multiply-and-subtract qhat * v from u[j .. j+n].
    u128 borrow = 0;
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 prod = qhat * v.limbs_[i] + carry;
      carry = prod >> 64;
      uint64_t plo = static_cast<uint64_t>(prod);
      uint64_t ui = u.limbs_[j + i];
      uint64_t diff = ui - plo - static_cast<uint64_t>(borrow);
      // Borrow occurred iff the true difference is negative.
      borrow = (static_cast<u128>(ui) <
                static_cast<u128>(plo) + borrow)
                   ? 1
                   : 0;
      u.limbs_[j + i] = diff;
    }
    {
      uint64_t ui = u.limbs_[j + n];
      u128 sub = carry + borrow;
      uint64_t diff = ui - static_cast<uint64_t>(sub);
      bool neg = static_cast<u128>(ui) < sub;
      u.limbs_[j + n] = diff;
      if (neg) {
        // qhat was one too large: add v back and decrement qhat.
        --qhat;
        u128 c2 = 0;
        for (size_t i = 0; i < n; ++i) {
          u128 sum = static_cast<u128>(u.limbs_[j + i]) + v.limbs_[i] + c2;
          u.limbs_[j + i] = static_cast<uint64_t>(sum);
          c2 = sum >> 64;
        }
        u.limbs_[j + n] += static_cast<uint64_t>(c2);
      }
    }
    q.limbs_[j] = static_cast<uint64_t>(qhat);
  }

  q.Normalize();
  if (rem != nullptr) {
    u.limbs_.resize(n);
    u.Normalize();
    *rem = u >> shift;
  }
  if (quot != nullptr) *quot = std::move(q);
}

BigUInt BigUInt::operator/(const BigUInt& rhs) const {
  BigUInt q;
  DivMod(*this, rhs, &q, nullptr);
  return q;
}

BigUInt BigUInt::operator%(const BigUInt& rhs) const {
  BigUInt r;
  DivMod(*this, rhs, nullptr, &r);
  return r;
}

// -- Conversions --------------------------------------------------------------

Result<uint64_t> BigUInt::ToUint64() const {
  if (limbs_.size() > 1) return Status::OutOfRange("value exceeds 64 bits");
  return limbs_.empty() ? 0ull : limbs_[0];
}

double BigUInt::ToDouble() const {
  if (limbs_.empty()) return 0.0;
  size_t bits = BitLength();
  if (bits <= 64) return static_cast<double>(limbs_[0]);
  // Take the top 64 bits as the significand and scale by the exponent.
  BigUInt top = *this >> (bits - 64);
  double mant = static_cast<double>(top.limbs_.empty() ? 0 : top.limbs_[0]);
  return std::ldexp(mant, static_cast<int>(bits) - 64);
}

std::string BigUInt::ToDecimalString() const {
  if (IsZero()) return "0";
  std::string out;
  BigUInt v = *this;
  BigUInt chunk_div(kDecChunk);
  std::vector<uint64_t> chunks;
  while (!v.IsZero()) {
    BigUInt q, r;
    DivMod(v, chunk_div, &q, &r);
    chunks.push_back(r.limbs_.empty() ? 0 : r.limbs_[0]);
    v = std::move(q);
  }
  char buf[32];
  // The most significant chunk prints without leading zeros.
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(chunks.back()));
  out += buf;
  for (size_t i = chunks.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof(buf), "%019llu",
                  static_cast<unsigned long long>(chunks[i]));
    out += buf;
  }
  return out;
}

std::string BigUInt::ToHexString() const {
  if (IsZero()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  bool started = false;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      int d = static_cast<int>((limbs_[i] >> (4 * nib)) & 0xf);
      if (!started && d == 0) continue;
      started = true;
      out += kDigits[d];
    }
  }
  return out;
}

std::vector<uint8_t> BigUInt::ToLittleEndianBytes() const {
  std::vector<uint8_t> out;
  if (IsZero()) return out;
  size_t bytes = (BitLength() + 7) / 8;
  out.resize(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<uint8_t>((limbs_[i / 8] >> (8 * (i % 8))) & 0xff);
  }
  return out;
}

size_t BigUInt::SerializedSize() const {
  size_t count = limbs_.size();
  size_t prefix = 1;
  size_t c = count;
  while (c >= 0x80) {
    ++prefix;
    c >>= 7;
  }
  return prefix + 8 * count;
}

double DivideToDouble(const BigUInt& a, const BigUInt& b) {
  if (b.IsZero()) return 0.0;
  if (a.IsZero()) return 0.0;
  // Scale the numerator so the integer quotient keeps >= 64 significant bits,
  // then undo the scale in the exponent.
  BigUInt scaled = a << 128;
  BigUInt q = scaled / b;
  return std::ldexp(q.ToDouble(), -128);
}

Result<BigUInt> BigUIntFromDouble(double d) {
  if (!(d >= 0.0) || std::isinf(d)) {
    return Status::InvalidArgument("BigUIntFromDouble needs finite d >= 0");
  }
  if (d < 1.0) return BigUInt();
  int exp = 0;
  double mant = std::frexp(d, &exp);  // d = mant * 2^exp, mant in [0.5, 1).
  // 53 significand bits as an integer, then shift into place.
  auto sig = static_cast<uint64_t>(std::ldexp(mant, 53));
  BigUInt v(sig);
  int shift = exp - 53;
  if (shift > 0) {
    v <<= static_cast<size_t>(shift);
  } else if (shift < 0) {
    v >>= static_cast<size_t>(-shift);
  }
  return v;
}

void WriteBigUInt(BinaryWriter* w, const BigUInt& v) {
  w->WriteVarU64(v.num_limbs());
  for (size_t i = 0; i < v.num_limbs(); ++i) w->WriteU64(v.limb(i));
}

Status ReadBigUInt(BinaryReader* r, BigUInt* out) {
  uint64_t count;
  // Each limb occupies 8 bytes, so a count the remaining buffer cannot hold
  // is malformed; checking against remaining() (instead of a fixed cap)
  // keeps a tiny buffer from driving a large allocation.
  PSI_RETURN_NOT_OK(r->ReadCount(&count, /*min_bytes_per_element=*/8));
  // Values up to 2048 bits (shares, Paillier ciphertexts) stage their limbs
  // on the stack; only wider ones need a heap buffer.
  std::array<uint64_t, 32> small;
  std::vector<uint64_t> large;
  uint64_t* limbs = small.data();
  if (count > small.size()) {
    large.resize(static_cast<size_t>(count));
    limbs = large.data();
  }
  PSI_RETURN_NOT_OK(r->ReadU64s(limbs, static_cast<size_t>(count)));
  // FromLimbs normalises, so zero top limbs a sender padded with vanish.
  *out = BigUInt::FromLimbs(limbs, static_cast<size_t>(count));
  return Status::OK();
}

}  // namespace psi
