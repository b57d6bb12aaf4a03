#include "bigint/modular.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/logging.h"

namespace psi {

// Thread-local MRU cache of Montgomery contexts. Repeated ModPow calls with
// the same modulus (Miller-Rabin rounds, every Paillier/RSA operation of a
// protocol run) would otherwise rebuild R^2 mod n — two Knuth divisions —
// per exponentiation. Four entries cover the working set of the widest
// caller: an RSA key's p and q while the peer's n and n^2 stay warm.
// Thread-local storage keeps the cache lock-free under ParallelFor workers.
// Contexts are shared, so one a caller holds stays valid after any number
// of later lookups evict it (RsaDecryptBatch holds p's and q's for a whole
// batch).
std::shared_ptr<const MontgomeryContext> CachedMontgomeryContext(
    const BigUInt& m) {
  constexpr size_t kCacheCap = 4;
  using Entry = std::pair<BigUInt, std::shared_ptr<const MontgomeryContext>>;
  // Engine-backed and heap-only contexts cache separately: a live
  // ScopedHeapOnlyModPow guard must never be served (or evict) the other
  // flavor.
  const bool heap_only = internal::HeapOnlyEngineForced();
  thread_local std::vector<Entry> cache_auto;
  thread_local std::vector<Entry> cache_heap;
  auto& cache = heap_only ? cache_heap : cache_auto;
  for (size_t i = 0; i < cache.size(); ++i) {
    if (cache[i].first == m) {
      if (i != 0) {
        auto mid = cache.begin() + static_cast<ptrdiff_t>(i);
        std::rotate(cache.begin(), mid, mid + 1);
      }
      return cache.front().second;
    }
  }
  auto ctx = MontgomeryContext::Create(
      m, heap_only ? EngineMode::kHeapOnly : EngineMode::kAuto);
  if (!ctx.ok()) return nullptr;
  if (cache.size() >= kCacheCap) cache.pop_back();
  cache.emplace(cache.begin(), m, std::make_shared<const MontgomeryContext>(
                                      std::move(ctx).MoveValue()));
  return cache.front().second;
}

namespace {

// Odd multi-limb moduli (the RSA/Paillier case) route through Montgomery
// arithmetic: REDC replaces every Knuth-division reduction, and the
// thread-local context cache amortizes the R^2 mod n setup across calls.
std::shared_ptr<const MontgomeryContext> ModPowContext(const BigUInt& exp,
                                                       const BigUInt& m) {
  if (m.IsOdd() && m.BitLength() >= 128 && exp.BitLength() >= 8) {
    return CachedMontgomeryContext(m);
  }
  return nullptr;
}

// Number of trailing zero bits of a nonzero value.
size_t TrailingZeros(const BigUInt& v) {
  size_t i = 0;
  while (v.limb(i) == 0) ++i;
  return i * 64 + static_cast<size_t>(std::countr_zero(v.limb(i)));
}

}  // namespace

ScopedHeapOnlyModPow::ScopedHeapOnlyModPow()
    : prev_(internal::HeapOnlyEngineForced()) {
  internal::SetHeapOnlyEngineForced(true);
}

ScopedHeapOnlyModPow::~ScopedHeapOnlyModPow() {
  internal::SetHeapOnlyEngineForced(prev_);
}

BigUInt ModAdd(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  PSI_DCHECK(a < m && b < m);
  BigUInt sum = a + b;
  if (sum >= m) sum -= m;
  return sum;
}

BigUInt ModSub(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  PSI_DCHECK(a < m && b < m);
  if (a >= b) return a - b;
  return m - (b - a);
}

BigUInt ModMul(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  return (a * b) % m;
}

BigUInt ModPow(const BigUInt& base, const BigUInt& exp, const BigUInt& m) {
  PSI_CHECK(!m.IsZero()) << "ModPow modulus must be positive";
  if (m.IsOne()) return BigUInt();
  if (const auto ctx = ModPowContext(exp, m)) {
    return ctx->Pow(base, exp);
  }
  BigUInt result(1);
  BigUInt b = base % m;
  size_t bits = exp.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = ModMul(result, result, m);
    if (exp.GetBit(i)) result = ModMul(result, b, m);
  }
  return result;
}

std::vector<BigUInt> ModPowBatch(std::span<const BigUInt> bases,
                                 const BigUInt& exp, const BigUInt& m) {
  PSI_CHECK(!m.IsZero()) << "ModPow modulus must be positive";
  if (!m.IsOne()) {
    if (const auto ctx = ModPowContext(exp, m)) {
      return ctx->PowBatch(bases, exp);
    }
  }
  std::vector<BigUInt> out;
  out.reserve(bases.size());
  for (const BigUInt& b : bases) out.push_back(ModPow(b, exp, m));
  return out;
}

BigUInt Gcd(BigUInt a, BigUInt b) {
  // Operands of different limb counts (RSA keygen's Gcd(65537, phi)) first
  // take one division, so the short one bounds the binary loop below.
  if (!a.IsZero() && !b.IsZero() && a.num_limbs() != b.num_limbs()) {
    if (a.num_limbs() > b.num_limbs()) {
      a = a % b;
    } else {
      b = b % a;
    }
  }
  if (a.IsZero()) return b;
  if (b.IsZero()) return a;
  // Stein's binary gcd with BigUInt's in-place operators: each step is one
  // subtraction and one shift, with no allocation.
  const size_t twos = std::min(TrailingZeros(a), TrailingZeros(b));
  a >>= TrailingZeros(a);
  b >>= TrailingZeros(b);
  while (true) {
    // Both odd: gcd(a, b) == gcd(a, b - a) for a <= b.
    if (b < a) std::swap(a, b);
    b -= a;
    if (b.IsZero()) break;
    b >>= TrailingZeros(b);
  }
  a <<= twos;
  return a;
}

BigUInt Lcm(const BigUInt& a, const BigUInt& b) {
  if (a.IsZero() || b.IsZero()) return BigUInt();
  return (a / Gcd(a, b)) * b;
}

Result<BigUInt> ModInverse(const BigUInt& a, const BigUInt& m) {
  if (m < BigUInt(2)) {
    return Status::InvalidArgument("ModInverse modulus must be >= 2");
  }
  // Extended Euclid over signed integers: track r = old_s * a (mod m).
  BigInt old_r(a % m), r(m);
  BigInt old_s(1), s(0);
  while (!r.IsZero()) {
    BigInt q = old_r / r;
    BigInt tmp = old_r - q * r;
    old_r = std::exchange(r, tmp);
    tmp = old_s - q * s;
    old_s = std::exchange(s, tmp);
  }
  if (!(old_r == BigInt(1))) {
    return Status::InvalidArgument("ModInverse: arguments are not coprime");
  }
  return old_s.Mod(m);
}

}  // namespace psi
