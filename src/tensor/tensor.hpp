// Minimal dense linear algebra for the DNN stacks.
//
// The models in the paper (YouTubeDNN MLPs, DLRM bottom/top MLPs) only need
// row-major f32 matrices, gemm/gemv, elementwise ops and three activations.
// Keeping this self-contained avoids an external BLAS dependency and keeps
// results bit-reproducible across platforms.
//
// Kernel contract: every output element is computed in the summation order
// of the naive loop, so a faster kernel returns the same bits as the plain
// one (matmul stays the unblocked reference).
//   * gemv steps over blocks of 8 rows x 4 columns with 4-float vectors:
//     one vector multiply gives a row's 4 products, a transpose in
//     registers gathers the 8 rows' products column by column, and each
//     lane, always the same row, starts at +0 and adds w[r][c] * v[c] for
//     c = 0..cols-1 in order. Rows are never split across lanes, so no sum
//     is reassociated; a short last block recomputes its last row.
//   * gevm adds the rows in row order, four rows per pass over out with
//     4-float vectors: out[c] += v[r] * m[r][c] for each of the four in
//     turn. Each lane is a different element of out, so no sum is
//     reassociated; the rows after the last group of four follow one by one.
//   * gevm skips rows with v[r] == 0. On finite data that skip is exact:
//     the row would only add +-0 products to each output.
//   * gevm_sgd is gevm plus a dense layer's SGD step, four rows per pass:
//     at each 4-column step it adds the rows' products into out, rows in
//     order and each row as it was, then stores each row's update. The
//     skipped rows would only move by lr * (+0), which is exact for finite
//     x and finite lr > 0, the only lr it accepts.
// This also needs a * b + c to stay a rounded multiply then a rounded add.
// The builds set no -march, so x86-64 has no FMA instruction to contract
// into. GCC contracts C++ even in ISO mode once FMA is enabled (for example
// -march=haswell); such a build needs -ffp-contract=off to stay identical.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace imars::tensor {

/// Dense row-major matrix of float.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized. Both constructors reject a rows x cols
  /// that overflows size_t.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols from row-major data (size must be rows*cols).
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

  /// Gaussian init with the given stddev (He/Xavier handled by caller).
  static Matrix randn(std::size_t rows, std::size_t cols, float stddev,
                      util::Xoshiro256& rng);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  /// Row r as a span of cols() floats.
  std::span<float> row(std::size_t r);
  std::span<const float> row(std::size_t r) const;

  std::span<float> data() noexcept { return data_; }
  std::span<const float> data() const noexcept { return data_; }

  /// Returns the transpose.
  Matrix transposed() const;

  bool operator==(const Matrix& other) const noexcept = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

using Vector = std::vector<float>;

/// rows * cols, or a thrown imars::Error naming `what` when the product
/// overflows size_t.
std::size_t checked_elements(std::size_t rows, std::size_t cols,
                             const char* what);

/// out = a (m x k) * b (k x n).
Matrix matmul(const Matrix& a, const Matrix& b);

/// out = m (r x c) * v (c)  — matrix-vector product.
Vector gemv(const Matrix& m, std::span<const float> v);

/// out[r] = w.row(r) . v, where w holds out.size() row-major rows of
/// v.size() floats (e.g. a row range of a Matrix); out must not overlap
/// w or v.
void gemv(std::span<const float> w, std::span<const float> v,
          std::span<float> out);

/// out = v (r) * m (r x c)  — vector-matrix product (row vector).
Vector gevm(std::span<const float> v, const Matrix& m);

/// The backward pass and SGD step of a dense layer with weights m, input x
/// and upstream gradient v: returns gevm(v, m) of m as it was, and moves
/// each row with v[r] != 0 in place, m[r][c] -= lr * (+0 + v[r] * x[c]),
/// as a +0 gradient buffer would. Sizes must match, v and x must not
/// overlap m, and lr must be finite and positive.
Vector gevm_sgd(std::span<const float> v, Matrix& m, std::span<const float> x,
                float lr);

/// True when the two ranges share no element.
bool disjoint(std::span<const float> a, std::span<const float> b);

/// a[i] += b[i] (sizes must match); b must be a itself or disjoint from it.
void add_inplace(std::span<float> a, std::span<const float> b);
void scale_inplace(std::span<float> a, float s);

/// Dot product.
float dot(std::span<const float> a, std::span<const float> b);

/// L2 norm.
float norm(std::span<const float> a);

/// Cosine similarity; 0 when either vector is all-zero.
float cosine(std::span<const float> a, std::span<const float> b);

/// Activations.
void relu_inplace(std::span<float> x);
Vector sigmoid(std::span<const float> x);
/// Numerically stable softmax.
Vector softmax(std::span<const float> x);

}  // namespace imars::tensor
