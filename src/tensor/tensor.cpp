#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/error.hpp"

namespace imars::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  IMARS_REQUIRE(data_.size() == rows * cols, "Matrix: data size mismatch");
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, float stddev,
                     util::Xoshiro256& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = stddev * static_cast<float>(rng.normal());
  return m;
}

float& Matrix::at(std::size_t r, std::size_t c) {
  IMARS_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
  return data_[r * cols_ + c];
}

float Matrix::at(std::size_t r, std::size_t c) const {
  IMARS_REQUIRE(r < rows_ && c < cols_, "Matrix::at out of range");
  return data_[r * cols_ + c];
}

std::span<float> Matrix::row(std::size_t r) {
  IMARS_REQUIRE(r < rows_, "Matrix::row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const float> Matrix::row(std::size_t r) const {
  IMARS_REQUIRE(r < rows_, "Matrix::row out of range");
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  return t;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  IMARS_REQUIRE(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop contiguous in both b and out.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = a.at(i, k);
      if (aik == 0.0f) continue;
      const auto brow = b.row(k);
      const auto orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Vector gemv(const Matrix& m, std::span<const float> v) {
  IMARS_REQUIRE(m.cols() == v.size(), "gemv: dimension mismatch");
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  const float* w = m.data().data();
  const float* x = v.data();
  Vector out(rows);
  std::size_t r = 0;
  // Eight rows per pass: eight independent add chains hide the FP-add
  // latency, and each chain still sums its own row in column order.
  for (; r + 8 <= rows; r += 8) {
    const float* w0 = w + r * cols;
    const float* w1 = w0 + cols;
    const float* w2 = w1 + cols;
    const float* w3 = w2 + cols;
    const float* w4 = w3 + cols;
    const float* w5 = w4 + cols;
    const float* w6 = w5 + cols;
    const float* w7 = w6 + cols;
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    float a4 = 0.0f, a5 = 0.0f, a6 = 0.0f, a7 = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float xc = x[c];
      a0 += w0[c] * xc;
      a1 += w1[c] * xc;
      a2 += w2[c] * xc;
      a3 += w3[c] * xc;
      a4 += w4[c] * xc;
      a5 += w5[c] * xc;
      a6 += w6[c] * xc;
      a7 += w7[c] * xc;
    }
    out[r] = a0;
    out[r + 1] = a1;
    out[r + 2] = a2;
    out[r + 3] = a3;
    out[r + 4] = a4;
    out[r + 5] = a5;
    out[r + 6] = a6;
    out[r + 7] = a7;
  }
  for (; r < rows; ++r) {
    const float* row = w + r * cols;
    float acc = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
  return out;
}

namespace {

// y[i] += a * x[i]. Four independent lanes per step; with __restrict
// parameters GCC (-O2 and up) turns the body into one 4-wide multiply and
// add on unaligned loads.
void axpy_lanes(float a, const float* __restrict x, float* __restrict y,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += a * x[i];
    y[i + 1] += a * x[i + 1];
    y[i + 2] += a * x[i + 2];
    y[i + 3] += a * x[i + 3];
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

}  // namespace

void axpy(float a, std::span<const float> x, std::span<float> y) {
  IMARS_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  const std::less_equal<const float*> le;
  IMARS_REQUIRE(le(x.data() + x.size(), y.data()) ||
                    le(y.data() + y.size(), x.data()),
                "axpy: x and y must not overlap");
  axpy_lanes(a, x.data(), y.data(), y.size());
}

Vector gevm(std::span<const float> v, const Matrix& m) {
  IMARS_REQUIRE(m.rows() == v.size(), "gevm: dimension mismatch");
  Vector out(m.cols(), 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r)
    if (v[r] != 0.0f) axpy(v[r], m.row(r), out);
  return out;
}

Vector add(std::span<const float> a, std::span<const float> b) {
  IMARS_REQUIRE(a.size() == b.size(), "add: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(std::span<const float> a, std::span<const float> b) {
  IMARS_REQUIRE(a.size() == b.size(), "sub: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector hadamard(std::span<const float> a, std::span<const float> b) {
  IMARS_REQUIRE(a.size() == b.size(), "hadamard: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

void add_inplace(std::span<float> a, std::span<const float> b) {
  IMARS_REQUIRE(a.size() == b.size(), "add_inplace: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void scale_inplace(std::span<float> a, float s) {
  for (auto& x : a) x *= s;
}

float dot(std::span<const float> a, std::span<const float> b) {
  IMARS_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

float cosine(std::span<const float> a, std::span<const float> b) {
  const float na = norm(a);
  const float nb = norm(b);
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return dot(a, b) / (na * nb);
}

Vector relu(std::span<const float> x) {
  Vector out(x.begin(), x.end());
  relu_inplace(out);
  return out;
}

void relu_inplace(std::span<float> x) {
  for (auto& v : x) v = std::max(v, 0.0f);
}

Vector sigmoid(std::span<const float> x) {
  Vector out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = 1.0f / (1.0f + std::exp(-x[i]));
  return out;
}

Vector softmax(std::span<const float> x) {
  IMARS_REQUIRE(!x.empty(), "softmax of empty vector");
  const float mx = *std::max_element(x.begin(), x.end());
  Vector out(x.size());
  float sum = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::exp(x[i] - mx);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

Vector concat(std::span<const Vector> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Vector out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace imars::tensor
