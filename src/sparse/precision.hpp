// Reduced-precision value storage for the memoized operator.
//
// MemXCT's apply is bandwidth-bound; after 16-bit buffered indices the
// remaining regular stream is dominated by 4 B fp32 values (Section 3.3.5's
// 6 B/FMA = 2 B index + 4 B value). Storing values in 16-bit floating
// formats halves that term. Two formats are supported:
//
//   * bf16 — fp32's exponent range with an 8-bit mantissa. Conversion is a
//     pure truncation of the low mantissa bits (round-to-nearest-even
//     here), so dynamic range is never lost; relative error is ~2^-9.
//   * fp16 — IEEE binary16: 5-bit exponent, 11-bit effective mantissa.
//     Finer relative error (~2^-12) but narrow range; intersection lengths
//     in a projection matrix are O(1) and fit comfortably.
//
// Accumulation is ALWAYS fp32: kernels decode each stored value to fp32
// and run the exact inner-loop expression shape of the fp32 kernels, so the
// only deviation from the fp32 result is the one-time value quantization
// (validated against fp64 references by the precision property tests).
//
// Both conversions round to nearest-even, preserve NaN (quietly) and ±Inf,
// and are idempotent: converting an already-representable value is exact.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace memxct::sparse {

/// Value-storage precision of a memoized operator. Fp32 keeps 4-byte
/// values; Bf16 and Fp16 keep 16-bit ones. Only the buffered layout stores
/// reduced precision, in place (BufferedMatrix::val / val16, same index
/// streams); the CSR, ELL and library layouts are fp32 only.
enum class ValueStorage { Fp32, Bf16, Fp16 };

[[nodiscard]] const char* to_string(ValueStorage storage) noexcept;

/// Parses "fp32" | "bf16" | "fp16"; returns false on anything else.
[[nodiscard]] bool parse_value_storage(std::string_view text,
                                       ValueStorage& out) noexcept;

/// Bytes of one stored value.
[[nodiscard]] constexpr int bytes_per_value(ValueStorage storage) noexcept {
  return storage == ValueStorage::Fp32 ? 4 : 2;
}

// ---- bf16 ----------------------------------------------------------------

/// fp32 -> bf16 bits, round-to-nearest-even. NaN stays NaN (quietened so
/// truncation cannot turn a signalling payload into Inf).
[[nodiscard]] inline std::uint16_t fp32_to_bf16(float f) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  if ((bits & 0x7f800000u) == 0x7f800000u && (bits & 0x007fffffu) != 0)
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);  // quiet NaN
  const std::uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>((bits + rounding) >> 16);
}

/// bf16 bits -> fp32 (exact: bf16 is a prefix of fp32).
[[nodiscard]] inline float bf16_to_fp32(std::uint16_t b) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

// ---- fp16 (IEEE binary16) ------------------------------------------------

/// fp32 -> fp16 bits, round-to-nearest-even, with gradual underflow to
/// fp16 subnormals, overflow to ±Inf, and NaN preserved (quietened).
[[nodiscard]] inline std::uint16_t fp32_to_fp16(float f) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  const std::uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // Inf or NaN
    const std::uint16_t mant = abs > 0x7f800000u ? 0x0200u : 0u;  // quiet NaN
    return static_cast<std::uint16_t>(sign | 0x7c00u | mant);
  }
  if (abs >= 0x47800000u)  // >= 65536: overflows fp16 -> Inf
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  if (abs < 0x38800000u) {  // < 2^-14: fp16 subnormal (or zero)
    if (abs < 0x33000000u) return sign;  // < 2^-25 rounds to zero
    // Align the significand to a fixed-point subnormal with RNE.
    const int shift = 113 - static_cast<int>(abs >> 23);  // in [1, 24]
    const std::uint32_t sig = (abs & 0x007fffffu) | 0x00800000u;
    const std::uint32_t dropped = 13 + static_cast<std::uint32_t>(shift);
    const std::uint32_t half = 1u << (dropped - 1);
    const std::uint32_t rest = sig & ((1u << dropped) - 1u);
    std::uint32_t mant = sig >> dropped;
    if (rest > half || (rest == half && (mant & 1u))) ++mant;
    return static_cast<std::uint16_t>(sign | mant);
  }
  // Normal range: rebias exponent and round 13 dropped mantissa bits.
  std::uint32_t v = abs + 0x00000fffu + ((abs >> 13) & 1u);
  return static_cast<std::uint16_t>(sign | ((v - 0x38000000u) >> 13));
}

/// fp16 bits -> fp32 (exact for every fp16 value, subnormals included;
/// signalling NaNs come back quietened). The compiler's binary16 type does
/// the conversion: one vcvtsh2ss where the target has AVX512-FP16, a libgcc
/// call on a baseline x86-64 build, so the run loop stays as short as bf16's
/// (DESIGN.md §22).
[[nodiscard]] inline float fp16_to_fp32(std::uint16_t h) noexcept {
  return static_cast<float>(std::bit_cast<_Float16>(h));
}

/// Quantizes `f` through the given storage and back to fp32 — the value the
/// reduced-precision kernels actually multiply with. Identity for Fp32.
[[nodiscard]] inline real quantize(real f, ValueStorage storage) noexcept {
  switch (storage) {
    case ValueStorage::Fp32:
      return f;
    case ValueStorage::Bf16:
      return bf16_to_fp32(fp32_to_bf16(f));
    case ValueStorage::Fp16:
      return fp16_to_fp32(fp32_to_fp16(f));
  }
  return f;
}

/// Encodes `f` into storage bits (undefined meaning for Fp32, which keeps
/// values as raw fp32 arrays instead).
[[nodiscard]] inline std::uint16_t encode_value(real f,
                                                ValueStorage storage) noexcept {
  return storage == ValueStorage::Fp16 ? fp32_to_fp16(f) : fp32_to_bf16(f);
}

// ---- value decoders of the apply walkers ---------------------------------
//
// A decoder finds a matrix's stored value array (`val` in fp32, `val16` in
// 16 bits) and widens one stored value to fp32. It is a template argument of
// the walkers (sparse/kernels.hpp), so each storage gets its own branch-free
// loop and the fp32 walk stays the plain loop.

struct Fp32Values {
  template <class Matrix>
  [[nodiscard]] static const real* of(const Matrix& m) noexcept {
    return m.val.data();
  }
  [[nodiscard]] static real decode(real v) noexcept { return v; }
};
struct Bf16Values {
  template <class Matrix>
  [[nodiscard]] static const std::uint16_t* of(const Matrix& m) noexcept {
    return m.val16.data();
  }
  [[nodiscard]] static real decode(std::uint16_t b) noexcept {
    return bf16_to_fp32(b);
  }
};
struct Fp16Values {
  template <class Matrix>
  [[nodiscard]] static const std::uint16_t* of(const Matrix& m) noexcept {
    return m.val16.data();
  }
  [[nodiscard]] static real decode(std::uint16_t h) noexcept {
    return fp16_to_fp32(h);
  }
};

/// Calls fn(decoder) with the decoder of `storage`: the one run-time
/// dispatch of an apply.
template <class Fn>
void with_values(ValueStorage storage, Fn&& fn) {
  switch (storage) {
    case ValueStorage::Fp32:
      fn(Fp32Values{});
      return;
    case ValueStorage::Bf16:
      fn(Bf16Values{});
      return;
    case ValueStorage::Fp16:
      fn(Fp16Values{});
      return;
  }
}

}  // namespace memxct::sparse
