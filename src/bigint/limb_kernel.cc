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

#endif  // PSI_LIMB_KERNEL_X86

}  // namespace limb_kernel
}  // namespace psi
