// Window-size policy shared by every modular-exponentiation loop (the heap
// MontgomeryContext, the fixed-width engine and its IFMA batch walks).
// Keeping the policy in one place guarantees the heap and fixed paths walk
// the same digits in the same order — a precondition for the differential
// tests that pin them against each other.

#ifndef PSI_BIGINT_POW_WINDOW_H_
#define PSI_BIGINT_POW_WINDOW_H_

#include <cstddef>

#include "bigint/biguint.h"

namespace psi {
namespace internal {

/// Fixed-window width for a `bits`-bit exponent: chosen so the 2^w - 1 table
/// multiplies amortize against the ~bits * (1/2 - 1/w) multiplies the window
/// saves over plain square-and-multiply.
inline size_t WindowBitsFor(size_t bits) {
  if (bits <= 24) return 1;
  if (bits <= 96) return 2;
  if (bits <= 256) return 3;
  if (bits <= 1024) return 4;
  return 5;
}

/// The w-bit digit of exp starting at bit position pos (little-endian).
inline size_t ExpDigit(const BigUInt& exp, size_t pos, size_t w) {
  size_t digit = 0;
  for (size_t j = w; j-- > 0;) {
    digit = (digit << 1) | static_cast<size_t>(exp.GetBit(pos + j));
  }
  return digit;
}

}  // namespace internal
}  // namespace psi

#endif  // PSI_BIGINT_POW_WINDOW_H_
