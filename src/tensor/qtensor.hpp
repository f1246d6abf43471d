// int8 quantized matrix with per-tensor symmetric scale.
//
// QMatrix is the on-"chip" representation of embedding tables and crossbar
// weights: each 32-d int8 embedding row occupies exactly one 256-bit CMA row
// (Sec III-A1), and crossbar tiles hold int8 weights.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/quant.hpp"

namespace imars::tensor {

/// Dense row-major int8 matrix + symmetric per-tensor scale.
class QMatrix {
 public:
  QMatrix() = default;

  /// rows x cols of zeros with the given scale; rejects a rows x cols that
  /// overflows size_t.
  QMatrix(std::size_t rows, std::size_t cols, util::QuantParams params);

  /// Quantizes a float matrix with a scale chosen from its own range.
  static QMatrix quantize(const Matrix& m);

  /// Quantizes a float matrix with a caller-provided scale.
  static QMatrix quantize(const Matrix& m, util::QuantParams params);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  const util::QuantParams& params() const noexcept { return params_; }

  std::int8_t& at(std::size_t r, std::size_t c);
  std::int8_t at(std::size_t r, std::size_t c) const;

  std::span<std::int8_t> row(std::size_t r);
  std::span<const std::int8_t> row(std::size_t r) const;

  /// All rows, row-major.
  std::span<std::int8_t> data() noexcept { return data_; }
  std::span<const std::int8_t> data() const noexcept { return data_; }

  /// Full dequantized matrix.
  Matrix dequantize() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  util::QuantParams params_;
  std::vector<std::int8_t> data_;
};

/// Integer gemv: out_i = sum_j m[i][j] * v[j], 32-bit accumulation.
/// This is the arithmetic a crossbar tile performs.
std::vector<std::int32_t> gemv_i8(const QMatrix& m,
                                  std::span<const std::int8_t> v);

}  // namespace imars::tensor
