#include "util/quant.hpp"

#include <algorithm>
#include <cmath>

namespace imars::util {

QuantParams choose_symmetric(std::span<const float> values) {
  float max_abs = 0.0f;
  for (float v : values) max_abs = std::max(max_abs, std::fabs(v));
  QuantParams p;
  p.scale = (max_abs > 0.0f) ? max_abs / 127.0f : 1.0f;
  return p;
}

std::vector<std::int8_t> quantize(std::span<const float> values,
                                  const QuantParams& params) {
  std::vector<std::int8_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    out[i] = params.quantize(values[i]);
  return out;
}

std::vector<float> dequantize(std::span<const std::int8_t> values,
                              const QuantParams& params) {
  std::vector<float> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    out[i] = params.dequantize(values[i]);
  return out;
}

std::int8_t sat_add_i8(std::int8_t a, std::int8_t b) noexcept {
  return sat_cast_i8(static_cast<std::int32_t>(a) + static_cast<std::int32_t>(b));
}

}  // namespace imars::util
