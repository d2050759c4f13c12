//===- vgpu/IntOps.hpp - Well-defined integer semantics for the evaluators -===//
//
// One source of truth for the arithmetic the execution tiers perform on the
// canonical 64-bit value encoding (see TeamCore.hpp). Everything here is
// defined behaviour in C++: add/sub/mul wrap modulo 2^64 (computed on
// unsigned operands, so signed overflow never happens at the language
// level), INT64_MIN / -1 wraps to INT64_MIN (remainder 0) instead of
// executing the one x86 idiv that SIGFPEs, and float-to-int conversion
// saturates (NaN converts to 0) instead of hitting the out-of-range UB of a
// raw cast. Division and remainder by zero are reported to the caller,
// which raises the interpreter trap.
//
// Both the tree-walking interpreter and the bytecode tier evaluate through
// these helpers, so their results are bit-identical by construction and the
// whole file is exercised by the ubsan build flavor
// (-DCODESIGN_SANITIZE=undefined).
//
//===----------------------------------------------------------------------===//
#pragma once

#include <cstdint>
#include <limits>

namespace codesign::vgpu::intops {

/// Wrapping add modulo 2^64; bit-identical to signed wrap-around.
[[nodiscard]] inline std::uint64_t addWrap(std::uint64_t A, std::uint64_t B) {
  return A + B;
}

/// Wrapping subtract modulo 2^64.
[[nodiscard]] inline std::uint64_t subWrap(std::uint64_t A, std::uint64_t B) {
  return A - B;
}

/// Wrapping multiply modulo 2^64 (the low 64 bits of the product are the
/// same for signed and unsigned interpretation).
[[nodiscard]] inline std::uint64_t mulWrap(std::uint64_t A, std::uint64_t B) {
  return A * B;
}

/// Signed division on the canonical encoding. Returns false for division
/// by zero (the caller traps). The INT64_MIN / -1 overflow case — UB for
/// int64_t operands, a SIGFPE on x86 — is defined to wrap: the quotient is
/// INT64_MIN, matching two's-complement negation (see DESIGN.md section 5).
[[nodiscard]] inline bool sdiv(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  const auto SA = static_cast<std::int64_t>(A);
  const auto SB = static_cast<std::int64_t>(B);
  if (SB == 0)
    return false;
  if (SA == std::numeric_limits<std::int64_t>::min() && SB == -1) {
    R = A; // wraps to INT64_MIN
    return true;
  }
  R = static_cast<std::uint64_t>(SA / SB);
  return true;
}

/// Signed remainder; false for remainder by zero. INT64_MIN % -1 is
/// defined as 0 (consistent with the wrapped quotient).
[[nodiscard]] inline bool srem(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  const auto SA = static_cast<std::int64_t>(A);
  const auto SB = static_cast<std::int64_t>(B);
  if (SB == 0)
    return false;
  if (SA == std::numeric_limits<std::int64_t>::min() && SB == -1) {
    R = 0;
    return true;
  }
  R = static_cast<std::uint64_t>(SA % SB);
  return true;
}

/// Unsigned division on width-adjusted operands; false for zero divisor.
[[nodiscard]] inline bool udiv(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  if (B == 0)
    return false;
  R = A / B;
  return true;
}

/// Unsigned remainder on width-adjusted operands; false for zero divisor.
[[nodiscard]] inline bool urem(std::uint64_t A, std::uint64_t B,
                               std::uint64_t &R) {
  if (B == 0)
    return false;
  R = A % B;
  return true;
}

/// Arithmetic shift right of a canonical (sign-extended) value by a
/// pre-masked amount. Signed right shift of a negative value is defined
/// (arithmetic) since C++20.
[[nodiscard]] inline std::uint64_t ashr(std::uint64_t A, unsigned Sh) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(A) >> Sh);
}

/// Float-to-signed conversion with defined out-of-range behaviour: the
/// result saturates to the int64 range and NaN converts to 0 (the
/// saturating semantics of cvt.rzi on NVIDIA hardware); a raw cast would
/// be UB for values outside [INT64_MIN, INT64_MAX).
[[nodiscard]] inline std::int64_t fpToI64(double D) {
  if (D != D) // NaN
    return 0;
  // 2^63 is exactly representable; everything >= it saturates high. The
  // low bound -2^63 is itself representable and in range.
  constexpr double Hi = 9223372036854775808.0; // 2^63
  if (D >= Hi)
    return std::numeric_limits<std::int64_t>::max();
  if (D < -Hi)
    return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(D);
}

} // namespace codesign::vgpu::intops
