#include "util/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace imars::util {

namespace {

// GCC/Clang vector extensions that baseline x86-64 SSE2 carries (no -m
// flag); loads go through memcpy because the data has no alignment.
typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef std::int8_t i8x4 __attribute__((vector_size(4)));

}  // namespace

float max_abs(std::span<const float> values) {
  // max|v| over four independent lanes (vectorized by GCC at -O2), then
  // the tail. A max of non-negative values does not depend on their order
  // and std::max(m, NaN) keeps m, so the result is the one-lane loop's.
  const float* v = values.data();
  const std::size_t n = values.size();
  float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (std::size_t l = 0; l < 4; ++l)
      lane[l] = std::max(lane[l], std::fabs(v[i + l]));
  float m = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  for (; i < n; ++i) m = std::max(m, std::fabs(v[i]));
  return m;
}

QuantParams symmetric_for(float max_abs_value) {
  QuantParams p;
  p.scale = (max_abs_value > 0.0f) ? max_abs_value / 127.0f : 1.0f;
  return p;
}

QuantParams choose_symmetric(std::span<const float> values) {
  return symmetric_for(max_abs(values));
}

std::vector<std::int8_t> quantize(std::span<const float> values,
                                  const QuantParams& params) {
  std::vector<std::int8_t> out(values.size());
  quantize(values, params, out);
  return out;
}

void quantize(std::span<const float> values, const QuantParams& params,
              std::span<std::int8_t> out) {
  // QuantParams::quantize four lanes at a time: the same divide, clamp and
  // 1.5 * 2^23 rounding per lane, NaN lanes selected to 0 before the
  // integer conversion, so every int8 is the scalar one.
  IMARS_REQUIRE(out.size() == values.size(), "quantize: size mismatch");
  const float s = params.scale;
  const f32x4 scale = {s, s, s, s};
  const f32x4 lo = {-127.0f, -127.0f, -127.0f, -127.0f};
  const f32x4 hi = {127.0f, 127.0f, 127.0f, 127.0f};
  const f32x4 k = {12582912.0f, 12582912.0f, 12582912.0f, 12582912.0f};
  const f32x4 zero = {0.0f, 0.0f, 0.0f, 0.0f};
  std::size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    f32x4 x;
    std::memcpy(&x, values.data() + i, sizeof x);
    const f32x4 q = x / scale;
    f32x4 c = q < lo ? lo : q;  // std::max(q, -127.0f)
    c = hi < c ? hi : c;        // std::min(c, 127.0f)
    c = q == q ? (c + k) - k : zero;
    const i8x4 r =
        __builtin_convertvector(__builtin_convertvector(c, i32x4), i8x4);
    std::memcpy(out.data() + i, &r, sizeof r);
  }
  for (; i < values.size(); ++i) out[i] = params.quantize(values[i]);
}

std::int8_t sat_add_i8(std::int8_t a, std::int8_t b) noexcept {
  return sat_cast_i8(static_cast<std::int32_t>(a) + static_cast<std::int32_t>(b));
}

}  // namespace imars::util
