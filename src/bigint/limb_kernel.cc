#include "bigint/limb_kernel.h"

namespace psi {
namespace limb_kernel {

namespace {

Variant DetectVariant() {
#if PSI_LIMB_KERNEL_X86
  // BMI2 gives mulx (flag-free 64x64->128 multiply); ADX gives the
  // adcx/adox dual carry chains the fused kernels schedule onto. Both
  // shipped together from Broadwell on, but check each anyway.
  if (__builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx")) {
    // AVX512F brings the zmm registers, IFMA the 52-bit multiply-adds the
    // batch exponentiation is built from.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512ifma")) {
      return Variant::kX86AdxIfma;
    }
    return Variant::kX86Adx;
  }
#endif
  return Variant::kPortable;
}

}  // namespace

Variant ActiveVariant() {
  // CPUID never changes mid-process; decide once, lock-free thereafter.
  static const Variant kActive = DetectVariant();
  return kActive;
}

bool X86KernelsAvailable() { return DetectVariant() != Variant::kPortable; }

bool IfmaKernelsAvailable() {
  return DetectVariant() == Variant::kX86AdxIfma;
}

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kX86AdxIfma:
      return "x86-adx+ifma";
    case Variant::kX86Adx:
      return "x86-adx";
    case Variant::kPortable:
    default:
      return "portable";
  }
}

void MulPortable(const uint64_t* a, size_t an, const uint64_t* b, size_t bn,
                 uint64_t* out) {
  for (size_t i = 0; i < an; ++i) {
    const u128 ai = a[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < bn; ++j) {
      const u128 cur = static_cast<u128>(out[i + j]) + ai * b[j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + bn] = carry;
  }
}

void MontMulPortable(const uint64_t* a, const uint64_t* b, const uint64_t* n,
                     uint64_t n0, uint64_t* out, size_t limbs) {
  // Runtime-length CIOS, algorithmically identical to
  // MontMulFixedPortable<L>; tests diff the two limb for limb.
  constexpr size_t kMaxLimbs = 64;
  uint64_t t[kMaxLimbs + 2] = {};
  for (size_t i = 0; i < limbs; ++i) {
    const u128 ai = a[i];
    uint64_t carry = 0;
    for (size_t j = 0; j < limbs; ++j) {
      const u128 cur = static_cast<u128>(t[j]) + ai * b[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    const u128 top = static_cast<u128>(t[limbs]) + carry;
    t[limbs] = static_cast<uint64_t>(top);
    t[limbs + 1] += static_cast<uint64_t>(top >> 64);
    const u128 m = static_cast<uint64_t>(t[0] * n0);
    u128 cur = static_cast<u128>(t[0]) + m * n[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < limbs; ++j) {
      cur = static_cast<u128>(t[j]) + m * n[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    const u128 last = static_cast<u128>(t[limbs]) + carry;
    t[limbs - 1] = static_cast<uint64_t>(last);
    t[limbs] = t[limbs + 1] + static_cast<uint64_t>(last >> 64);
    t[limbs + 1] = 0;
  }
  bool ge = t[limbs] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = limbs; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < limbs; ++i) {
      const u128 lhs = t[i];
      const u128 rhs = static_cast<u128>(n[i]) + borrow;
      out[i] = static_cast<uint64_t>(lhs - rhs);
      borrow = lhs < rhs ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < limbs; ++i) out[i] = t[i];
  }
}

#if PSI_LIMB_KERNEL_X86

__attribute__((target("bmi2,adx"))) void MulX86(const uint64_t* a, size_t an,
                                                const uint64_t* b, size_t bn,
                                                uint64_t* out) {
  for (size_t i = 0; i < an; ++i) {
    unsigned long long carry = 0;
    for (size_t j = 0; j < bn; ++j) {
      unsigned long long hi = 0;
      unsigned long long lo = _mulx_u64(a[i], b[j], &hi);
      hi += _addcarry_u64(0, lo, carry, &lo);
      unsigned long long cur = out[i + j];
      carry = hi + _addcarry_u64(0, cur, lo, &cur);
      out[i + j] = static_cast<uint64_t>(cur);
    }
    out[i + bn] = static_cast<uint64_t>(carry);
  }
}

__attribute__((target("bmi2,adx"))) void MontMulX86(const uint64_t* a,
                                                    const uint64_t* b,
                                                    const uint64_t* n,
                                                    uint64_t n0, uint64_t* out,
                                                    size_t limbs) {
  constexpr size_t kMaxLimbs = 64;
  unsigned long long t[kMaxLimbs + 2] = {};
  for (size_t i = 0; i < limbs; ++i) {
    unsigned long long carry = 0;
    for (size_t j = 0; j < limbs; ++j) {
      unsigned long long hi = 0;
      unsigned long long lo = _mulx_u64(a[i], b[j], &hi);
      hi += _addcarry_u64(0, lo, carry, &lo);
      carry = hi + _addcarry_u64(0, t[j], lo, &t[j]);
    }
    t[limbs + 1] += _addcarry_u64(0, t[limbs], carry, &t[limbs]);
    const unsigned long long m =
        static_cast<unsigned long long>(static_cast<uint64_t>(t[0]) * n0);
    unsigned long long hi = 0;
    unsigned long long lo = _mulx_u64(m, n[0], &hi);
    unsigned long long drop = 0;
    unsigned long long carry2 = hi + _addcarry_u64(0, t[0], lo, &drop);
    for (size_t j = 1; j < limbs; ++j) {
      lo = _mulx_u64(m, n[j], &hi);
      hi += _addcarry_u64(0, lo, carry2, &lo);
      carry2 = hi + _addcarry_u64(0, t[j], lo, &t[j - 1]);
    }
    const unsigned char c = _addcarry_u64(0, t[limbs], carry2, &t[limbs - 1]);
    t[limbs] = t[limbs + 1] + c;
    t[limbs + 1] = 0;
  }
  bool ge = t[limbs] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = limbs; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    unsigned char borrow = 0;
    for (size_t i = 0; i < limbs; ++i) {
      unsigned long long d = 0;
      borrow = _subborrow_u64(borrow, t[i], n[i], &d);
      out[i] = static_cast<uint64_t>(d);
    }
  } else {
    for (size_t i = 0; i < limbs; ++i) out[i] = static_cast<uint64_t>(t[i]);
  }
}

#endif  // PSI_LIMB_KERNEL_X86

}  // namespace limb_kernel
}  // namespace psi
