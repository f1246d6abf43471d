// int8 quantization utilities (Sec III-B: "We quantize all ETs to 8-bit
// integer precision").
//
// The paper stores 32-dimensional int8 embeddings as one 256-bit CMA row and
// runs all in-memory pooling in the integer domain. We use symmetric
// per-tensor quantization: q = clamp(round(x / scale), -127, 127).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace imars::util {

/// Symmetric per-tensor int8 quantization parameters.
struct QuantParams {
  float scale = 1.0f;  ///< real value represented by one integer step

  /// Quantizes one value to int8: x / scale rounded half to even (what
  /// std::nearbyint does in the default rounding mode), saturated to
  /// [-127, 127]; +-inf saturate and NaN quantizes to 0.
  std::int8_t quantize(float x) const noexcept {
    const float q = x / scale;
    if (std::isnan(q)) return 0;  // casting NaN to an integer is undefined
    // Clamping before rounding gives the same result as after: rounding is
    // monotone and keeps +-127. Adding and then subtracting 1.5 * 2^23
    // rounds any |c| <= 127 to an integer, ties to even, with no libm call.
    const float c = std::min(std::max(q, -127.0f), 127.0f);
    return static_cast<std::int8_t>((c + 12582912.0f) - 12582912.0f);
  }

  /// Reconstructs the real value of one quantized step.
  float dequantize(std::int8_t q) const noexcept { return scale * static_cast<float>(q); }
};

/// max |x| over `values`, NaNs skipped; 0 for an empty input. A max does
/// not depend on the order it is taken in, so the max of parts' maxima is
/// the whole's.
float max_abs(std::span<const float> values);

/// The symmetric scale that maps `max_abs_value` to 127. Zero yields scale
/// 1 (any scale represents all-zero exactly).
QuantParams symmetric_for(float max_abs_value);

/// Chooses the symmetric scale that maps max|x| to 127:
/// symmetric_for(max_abs(values)).
QuantParams choose_symmetric(std::span<const float> values);

/// Quantizes a vector with the given parameters.
std::vector<std::int8_t> quantize(std::span<const float> values,
                                  const QuantParams& params);

/// Quantizes `values` into `out` (same size), element by element as above.
void quantize(std::span<const float> values, const QuantParams& params,
              std::span<std::int8_t> out);

/// Saturating int8 addition (the CMA in-memory adder saturates each 8-bit
/// lane; see cma::Cma::add_rows).
std::int8_t sat_add_i8(std::int8_t a, std::int8_t b) noexcept;

/// Saturating cast from a wide accumulator back to int8.
inline std::int8_t sat_cast_i8(std::int32_t x) noexcept {
  return static_cast<std::int8_t>(std::clamp<std::int32_t>(x, -127, 127));
}

}  // namespace imars::util
