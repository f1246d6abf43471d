#include "tensor/qtensor.hpp"

#include "util/error.hpp"

namespace imars::tensor {

QMatrix::QMatrix(std::size_t rows, std::size_t cols, util::QuantParams params)
    : rows_(rows),
      cols_(cols),
      params_(params),
      data_(checked_elements(rows, cols, "QMatrix"), 0) {}

QMatrix QMatrix::quantize(const Matrix& m) {
  return quantize(m, util::choose_symmetric(m.data()));
}

QMatrix QMatrix::quantize(const Matrix& m, util::QuantParams params) {
  QMatrix q;
  q.rows_ = m.rows();
  q.cols_ = m.cols();
  q.params_ = params;
  q.data_ = util::quantize(m.data(), params);
  return q;
}

std::int8_t& QMatrix::at(std::size_t r, std::size_t c) {
  IMARS_REQUIRE(r < rows_ && c < cols_, "QMatrix::at out of range");
  return data_[r * cols_ + c];
}

std::int8_t QMatrix::at(std::size_t r, std::size_t c) const {
  IMARS_REQUIRE(r < rows_ && c < cols_, "QMatrix::at out of range");
  return data_[r * cols_ + c];
}

std::span<std::int8_t> QMatrix::row(std::size_t r) {
  IMARS_REQUIRE(r < rows_, "QMatrix::row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const std::int8_t> QMatrix::row(std::size_t r) const {
  IMARS_REQUIRE(r < rows_, "QMatrix::row out of range");
  return {data_.data() + r * cols_, cols_};
}

Matrix QMatrix::dequantize() const {
  Matrix out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto src = row(r);
    auto dst = out.row(r);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] = params_.dequantize(src[c]);
  }
  return out;
}

std::vector<std::int32_t> gemv_i8(const QMatrix& m,
                                  std::span<const std::int8_t> v) {
  IMARS_REQUIRE(m.cols() == v.size(), "gemv_i8: dimension mismatch");
  std::vector<std::int32_t> out(m.rows(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    std::int32_t acc = 0;
    for (std::size_t c = 0; c < row.size(); ++c)
      acc += static_cast<std::int32_t>(row[c]) * static_cast<std::int32_t>(v[c]);
    out[r] = acc;
  }
  return out;
}

}  // namespace imars::tensor
