#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace imars::tensor {

std::size_t checked_elements(std::size_t rows, std::size_t cols,
                             const char* what) {
  IMARS_REQUIRE(
      cols == 0 || rows <= std::numeric_limits<std::size_t>::max() / cols,
      std::string(what) + ": rows x cols overflows size_t");
  return rows * cols;
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      data_(checked_elements(rows, cols, "Matrix"), 0.0f) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  IMARS_REQUIRE(data_.size() == checked_elements(rows, cols, "Matrix"),
                "Matrix: data size mismatch");
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

namespace {

// Four floats in one 16-byte register: a GCC/Clang vector extension that
// x86-64's baseline SSE2 carries, so it needs no -m flag. Loads and stores
// go through memcpy because rows and vectors have no alignment.
typedef float f32x4 __attribute__((vector_size(16)));

f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, f32x4 v) { std::memcpy(p, &v, sizeof v); }

// acc[i] += p_i[k] * xc[k] for k = 0, 1, 2, 3 in that order, for the rows
// p_0..p_3 at one 4-column step: four vector multiplies give each row's
// products, a 4x4 transpose in registers turns them into one vector per
// column, and the columns add into acc one after another. Lane i only ever
// holds row i, so no row's sum is reassociated.
inline void add_columns(f32x4& acc, const float* p0, const float* p1,
                        const float* p2, const float* p3, f32x4 xc) {
  const f32x4 m0 = load4(p0) * xc;
  const f32x4 m1 = load4(p1) * xc;
  const f32x4 m2 = load4(p2) * xc;
  const f32x4 m3 = load4(p3) * xc;
  const f32x4 lo01 = __builtin_shufflevector(m0, m1, 0, 4, 1, 5);
  const f32x4 hi01 = __builtin_shufflevector(m0, m1, 2, 6, 3, 7);
  const f32x4 lo23 = __builtin_shufflevector(m2, m3, 0, 4, 1, 5);
  const f32x4 hi23 = __builtin_shufflevector(m2, m3, 2, 6, 3, 7);
  acc += __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
  acc += __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
  acc += __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
  acc += __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
}

// out[r] = sum_c w[r * cols + c] * x[c] in blocks of 8 rows x 4 columns.
// Each row's lane starts at +0 and adds its products in column order, then
// the last cols % 4 columns one at a time. A block past the last row reads
// the last row again and drops those sums.
void gemv_blocks(const float* w, std::size_t rows, std::size_t cols,
                 const float* x, float* out) {
  for (std::size_t r = 0; r < rows; r += 8) {
    const std::size_t n = std::min<std::size_t>(8, rows - r);
    const float* p[8];
    for (std::size_t i = 0; i < 8; ++i)
      p[i] = w + (r + std::min(i, n - 1)) * cols;
    f32x4 lo = {0.0f, 0.0f, 0.0f, 0.0f};  // rows r .. r+3
    f32x4 hi = lo;                        // rows r+4 .. r+7
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const f32x4 xc = load4(x + c);
      add_columns(lo, p[0] + c, p[1] + c, p[2] + c, p[3] + c, xc);
      add_columns(hi, p[4] + c, p[5] + c, p[6] + c, p[7] + c, xc);
    }
    float acc[8];
    std::memcpy(acc, &lo, sizeof lo);
    std::memcpy(acc + 4, &hi, sizeof hi);
    for (; c < cols; ++c)
      for (std::size_t i = 0; i < 8; ++i) acc[i] += p[i][c] * x[c];
    std::memcpy(out + r, acc, n * sizeof(float));
  }
}

// y[i] += a[k] * x[k][i] for k = 0, 1, 2, 3 in that order, in one pass, so
// each 4-float step of y stays in a register across the four rows.
void gevm4_lanes(const float (&a)[4], const float* const (&x)[4],
                 float* __restrict y, std::size_t n) {
  const f32x4 a0 = {a[0], a[0], a[0], a[0]};
  const f32x4 a1 = {a[1], a[1], a[1], a[1]};
  const f32x4 a2 = {a[2], a[2], a[2], a[2]};
  const f32x4 a3 = {a[3], a[3], a[3], a[3]};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    f32x4 yi = load4(y + i);
    yi += a0 * load4(x[0] + i);
    yi += a1 * load4(x[1] + i);
    yi += a2 * load4(x[2] + i);
    yi += a3 * load4(x[3] + i);
    store4(y + i, yi);
  }
  for (; i < n; ++i)
    for (std::size_t k = 0; k < 4; ++k) y[i] += a[k] * x[k][i];
}

// Four rows of gevm_sgd in one pass over out: at each 4-column step,
// out += a[k] * w_k for k = 0, 1, 2, 3 in turn, each from the row as it
// was, then every row's update is stored. Each row is loaded and stored
// once, and the step of out stays in a register across the four rows.
void gevm_sgd4_lanes(const float (&a)[4], float* const (&w)[4],
                     const float* x, float lr, float* out, std::size_t n) {
  const f32x4 zero = {0.0f, 0.0f, 0.0f, 0.0f};
  const f32x4 a0 = {a[0], a[0], a[0], a[0]};
  const f32x4 a1 = {a[1], a[1], a[1], a[1]};
  const f32x4 a2 = {a[2], a[2], a[2], a[2]};
  const f32x4 a3 = {a[3], a[3], a[3], a[3]};
  const f32x4 lr4 = {lr, lr, lr, lr};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const f32x4 xi = load4(x + i);
    const f32x4 w0 = load4(w[0] + i), w1 = load4(w[1] + i);
    const f32x4 w2 = load4(w[2] + i), w3 = load4(w[3] + i);
    f32x4 oi = load4(out + i);
    oi += a0 * w0;
    oi += a1 * w1;
    oi += a2 * w2;
    oi += a3 * w3;
    store4(out + i, oi);
    store4(w[0] + i, w0 - lr4 * (zero + a0 * xi));
    store4(w[1] + i, w1 - lr4 * (zero + a1 * xi));
    store4(w[2] + i, w2 - lr4 * (zero + a2 * xi));
    store4(w[3] + i, w3 - lr4 * (zero + a3 * xi));
  }
  for (; i < n; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      out[i] += a[k] * w[k][i];
      w[k][i] -= lr * (0.0f + a[k] * x[i]);
    }
  }
}

}  // namespace

bool disjoint(std::span<const float> a, std::span<const float> b) {
  const std::less_equal<const float*> le;
  return le(a.data() + a.size(), b.data()) ||
         le(b.data() + b.size(), a.data());
}

Vector gemv(const Matrix& m, std::span<const float> v) {
  IMARS_REQUIRE(m.cols() == v.size(), "gemv: dimension mismatch");
  Vector out(m.rows());
  gemv_blocks(m.data().data(), m.rows(), m.cols(), v.data(), out.data());
  return out;
}

void gemv(std::span<const float> w, std::span<const float> v,
          std::span<float> out) {
  IMARS_REQUIRE(w.size() == out.size() * v.size(), "gemv: dimension mismatch");
  IMARS_REQUIRE(disjoint(out, w) && disjoint(out, v),
                "gemv: out must not overlap w or v");
  gemv_blocks(w.data(), out.size(), v.size(), v.data(), out.data());
}

Vector gevm(std::span<const float> v, const Matrix& m) {
  IMARS_REQUIRE(m.rows() == v.size(), "gevm: dimension mismatch");
  Vector out(m.cols(), 0.0f);
  // The rows with v[r] != 0, in row order, four per pass over out.
  float a[4] = {};
  const float* x[4] = {};
  std::size_t k = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (v[r] == 0.0f) continue;
    a[k] = v[r];
    x[k] = m.row(r).data();
    if (++k == 4) {
      gevm4_lanes(a, x, out.data(), out.size());
      k = 0;
    }
  }
  for (std::size_t j = 0; j < k; ++j)  // the last k < 4 rows, in order
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += a[j] * x[j][c];
  return out;
}

Vector gevm_sgd(std::span<const float> v, Matrix& m, std::span<const float> x,
                float lr) {
  IMARS_REQUIRE(m.rows() == v.size() && m.cols() == x.size(),
                "gevm_sgd: dimension mismatch");
  IMARS_REQUIRE(disjoint(v, m.data()) && disjoint(x, m.data()),
                "gevm_sgd: v and x must not overlap m");
  IMARS_REQUIRE(std::isfinite(lr) && lr > 0.0f,
                "gevm_sgd: lr must be finite and positive");
  Vector out(m.cols(), 0.0f);
  // The rows with v[r] != 0, in row order, four per pass over out.
  float a[4] = {};
  float* w[4] = {};
  std::size_t k = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (v[r] == 0.0f) continue;
    a[k] = v[r];
    w[k] = m.row(r).data();
    if (++k == 4) {
      gevm_sgd4_lanes(a, w, x.data(), lr, out.data(), out.size());
      k = 0;
    }
  }
  for (std::size_t j = 0; j < k; ++j) {  // the last k < 4 rows, in order
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] += a[j] * w[j][c];
      w[j][c] -= lr * (0.0f + a[j] * x[c]);
    }
  }
  return out;
}

void add_inplace(std::span<float> a, std::span<const float> b) {
  IMARS_REQUIRE(a.size() == b.size(), "add_inplace: size mismatch");
  // Four elements per step, each lane adding its own pair: the one-lane
  // loop's sums bit for bit (a sum of two NaNs may carry either payload in
  // both). Under a partial overlap a step could read an element the
  // one-lane loop would already have written; a == b cannot.
  IMARS_REQUIRE(a.data() == b.data() || disjoint(a, b),
                "add_inplace: a and b must not partially overlap");
  float* pa = a.data();
  const float* pb = b.data();
  const std::size_t n = a.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) store4(pa + i, load4(pa + i) + load4(pb + i));
  for (; i < n; ++i) pa[i] += pb[i];
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

}  // namespace imars::tensor
