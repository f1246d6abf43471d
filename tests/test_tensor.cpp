// Unit + property tests for the tensor module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tensor/qtensor.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using tensor::Matrix;
using tensor::Vector;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return Matrix::randn(r, c, 1.0f, rng);
}

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (float x : m.data()) EXPECT_EQ(x, 0.0f);
}

TEST(Matrix, DataConstructorChecksSize) {
  EXPECT_THROW(Matrix(2, 2, {1.0f, 2.0f}), Error);
}

TEST(Matrix, AtOutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
}

TEST(Matrix, TransposedTwiceIsIdentity) {
  const Matrix m = random_matrix(5, 7, 1);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MatmulAgainstManual) {
  const Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = tensor::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matrix, MatmulDimMismatchThrows) {
  EXPECT_THROW(tensor::matmul(Matrix(2, 3), Matrix(2, 3)), Error);
}

TEST(Matrix, MatmulAssociativityProperty) {
  const Matrix a = random_matrix(4, 5, 2);
  const Matrix b = random_matrix(5, 6, 3);
  const Matrix c = random_matrix(6, 3, 4);
  const Matrix left = tensor::matmul(tensor::matmul(a, b), c);
  const Matrix right = tensor::matmul(a, tensor::matmul(b, c));
  for (std::size_t i = 0; i < left.data().size(); ++i)
    EXPECT_NEAR(left.data()[i], right.data()[i], 1e-3f);
}

// Shapes that hit every remainder of gemv's 8-row blocks and 4-column
// steps and of gevm's 4-row groups, from a single element up to the DLRM
// top-MLP width.
constexpr std::size_t kGridRows[] = {1, 7, 8, 9, 16, 17, 256};
constexpr std::size_t kGridCols[] = {1, 3, 4, 5, 8, 13, 383};

// gemv's and gevm's callers beyond the grid: DLRM's stacked interaction
// features (27 x 32; its pair gradient is 27 x 27), the 256-plane LSH
// matrix over 32-d embeddings (256 x 32) and the ranking tower's first
// layer (128 x 260).
constexpr std::pair<std::size_t, std::size_t> kCallerShapes[] = {
    {27, 32}, {256, 32}, {128, 260}};

std::vector<std::pair<std::size_t, std::size_t>> gemv_shapes() {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (const std::size_t rows : kGridRows)
    for (const std::size_t cols : kGridCols) shapes.emplace_back(rows, cols);
  shapes.insert(shapes.end(), std::begin(kCallerShapes),
                std::end(kCallerShapes));
  return shapes;
}

// Bitwise equality: +0.0 and -0.0 differ, so do NaN payloads. Empty spans
// may hold null pointers, which memcmp must not see.
bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// n + 1 Gaussian floats with about one in eight an exact 0.0f and one in
// eight -0.0f. Callers view [1, n + 1), so 16-byte loads of the view are
// unaligned.
std::vector<float> offset_buffer(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> buf(n + 1);
  for (auto& x : buf) {
    switch (rng.below(8)) {
      case 0:
        x = 0.0f;
        break;
      case 1:
        x = -0.0f;
        break;
      default:
        x = static_cast<float>(rng.normal());
    }
  }
  return buf;
}

std::span<const float> skip_first(const std::vector<float>& buf) {
  return std::span<const float>(buf).subspan(1);
}

// matmul is the unblocked reference: out(i, 0) sums m(i, k) * v[k] for
// k = 0..cols-1 in order, exactly like gemv's row i.
TEST(Matrix, GemvMatchesMatmul) {
  for (const auto& [rows, cols] : gemv_shapes()) {
    const Matrix m(rows, cols, offset_buffer(rows * cols - 1, rows * cols));
    const auto vbuf = offset_buffer(cols, 1000 + rows + cols);
    const auto v = skip_first(vbuf);
    const Vector out = tensor::gemv(m, v);
    const Matrix ref =
        tensor::matmul(m, Matrix(cols, 1, Vector(v.begin(), v.end())));
    EXPECT_TRUE(same_bits(out, ref.data())) << rows << "x" << cols;
  }
}

// The span form over a row range [first, first + n) returns exactly those
// rows of the whole-matrix gemv.
TEST(Matrix, SpanGemvMatchesRowRange) {
  const Matrix m = random_matrix(27, 32, 5);
  const auto vbuf = offset_buffer(32, 6);
  const auto v = skip_first(vbuf);
  const Vector all = tensor::gemv(m, v);
  for (std::size_t first = 0; first < 27; ++first) {
    const std::size_t n = 27 - first;
    Vector out(n + 1, -1.0f);
    tensor::gemv(m.data().subspan(first * 32, n * 32), v,
                 std::span<float>(out).subspan(1));
    EXPECT_EQ(out[0], -1.0f);
    EXPECT_TRUE(same_bits(std::span<const float>(out).subspan(1),
                          std::span<const float>(all).subspan(first)))
        << "first " << first;
  }
}

TEST(Matrix, SpanGemvRejectsBadShapesAndOverlap) {
  Vector w(12, 1.0f), v(4, 1.0f), out(3);
  EXPECT_THROW(tensor::gemv(w, Vector(5, 1.0f), out), Error);
  EXPECT_THROW(tensor::gemv(w, v, std::span<float>(out).first(2)), Error);
  Vector buf(16, 1.0f);
  const std::span<float> all(buf);
  EXPECT_THROW(tensor::gemv(all.first(12), v, all.subspan(11, 3)), Error);
  EXPECT_THROW(tensor::gemv(w, all.first(4), all.subspan(3, 3)), Error);
  tensor::gemv(all.first(12), v, all.subspan(12, 3));  // adjacent: fine
  EXPECT_EQ(buf[12], 4.0f);
}

// gemv of the transpose sums m(r, c) * v[r] for r = 0..rows-1 in order,
// exactly like gevm's column c; gevm's zero-skip only drops +-0 products.
TEST(Matrix, GevmIsTransposedGemv) {
  for (const auto& [rows, cols] : gemv_shapes()) {
    const Matrix m = random_matrix(rows, cols, rows * 1000 + cols);
    const auto vbuf = offset_buffer(rows, 2000 + rows + cols);
    const auto v = skip_first(vbuf);
    const Vector a = tensor::gevm(v, m);
    const Vector b = tensor::gemv(m.transposed(), v);
    EXPECT_TRUE(same_bits(a, b)) << rows << "x" << cols;
  }
}

// gevm_sgd returns gevm of the matrix as it was and moves each row with
// v[r] != 0 by w -= lr * (+0 + v[r] * x), the other rows not at all. The
// grid covers every remainder of its 4-row groups and 4-column steps; m, v
// and x hold exact zeros and -0.
TEST(Matrix, GevmSgdIsGevmThenRowUpdate) {
  const float lr = 0.3f;
  for (const auto& [rows, cols] : gemv_shapes()) {
    Matrix m(rows, cols, offset_buffer(rows * cols - 1, 5000 + rows * cols));
    const auto vbuf = offset_buffer(rows, 6000 + rows + cols);
    const auto xbuf = offset_buffer(cols, 7000 + rows + cols);
    const auto v = skip_first(vbuf);
    const auto x = skip_first(xbuf);
    const Vector want_out = tensor::gevm(v, m);
    Matrix want = m;
    for (std::size_t r = 0; r < rows; ++r)
      if (v[r] != 0.0f)
        for (std::size_t c = 0; c < cols; ++c)
          want.at(r, c) -= lr * (0.0f + v[r] * x[c]);
    const Vector out = tensor::gevm_sgd(v, m, x, lr);
    EXPECT_TRUE(same_bits(out, want_out)) << rows << "x" << cols;
    EXPECT_TRUE(same_bits(m.data(), want.data())) << rows << "x" << cols;
  }
}

TEST(Matrix, GevmSgdRejectsBadArgumentsAndMovesNothing) {
  Matrix m(3, 4);
  const Vector v(3, 1.0f), x(4, 1.0f);
  EXPECT_THROW(tensor::gevm_sgd(Vector(2, 1.0f), m, x, 0.1f), Error);
  EXPECT_THROW(tensor::gevm_sgd(v, m, Vector(5, 1.0f), 0.1f), Error);
  EXPECT_THROW(tensor::gevm_sgd(v, m, m.row(1), 0.1f), Error);
  EXPECT_THROW(tensor::gevm_sgd(m.data().subspan(4, 3), m, x, 0.1f), Error);
  for (const float lr : {0.0f, -0.01f, std::nanf(""),
                         std::numeric_limits<float>::infinity()})
    EXPECT_THROW(tensor::gevm_sgd(v, m, x, lr), Error) << lr;
  EXPECT_EQ(m, Matrix(3, 4));
}

TEST(Elementwise, SizeMismatchThrows) {
  const Vector a = {1, 2};
  const Vector b = {1, 2, 3};
  Vector c = {1, 2};
  EXPECT_THROW(tensor::add_inplace(c, b), Error);
  EXPECT_THROW(tensor::dot(a, b), Error);
}

// Values that stress a lane kernel: signed zeros, NaNs of either sign,
// infinities, denormals and the largest finite float, plus ordinary ones.
float edge_or_normal(util::Xoshiro256& rng) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float big = std::numeric_limits<float>::max();
  const float edges[] = {0.0f, -0.0f, nan,     -nan, inf, -inf,
                         tiny, -tiny, 3e-39f, -1e-39f, big, -big};
  return rng.below(2) == 0 ? edges[rng.below(std::size(edges))]
                           : static_cast<float>(rng.normal());
}

TEST(Elementwise, AddInplaceMatchesScalarLoop) {
  // Every sum must match the one-lane loop's bits, except where both
  // addends are NaN: IEEE 754 leaves open whose payload the sum carries,
  // and GCC commutes a + b either way, so there only NaN-ness is compared.
  util::Xoshiro256 rng(31);
  for (const std::size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 32}) {
    for (int trial = 0; trial < 40; ++trial) {
      Vector a(n), b(n);
      for (auto& x : a) x = edge_or_normal(rng);
      for (auto& x : b) x = edge_or_normal(rng);
      Vector want = a;
      for (std::size_t i = 0; i < n; ++i) want[i] += b[i];
      const Vector before = a;
      tensor::add_inplace(a, b);
      for (std::size_t i = 0; i < n; ++i) {
        if (std::isnan(before[i]) && std::isnan(b[i]))
          EXPECT_TRUE(std::isnan(a[i])) << "n " << n << " i " << i;
        else
          EXPECT_TRUE(same_bits({&a[i], 1}, {&want[i], 1}))
              << "n " << n << " trial " << trial << " i " << i << ": "
              << before[i] << " + " << b[i];
      }
      // a += a: the one span on both sides doubles every element.
      want = a;
      for (std::size_t i = 0; i < n; ++i) want[i] += want[i];
      tensor::add_inplace(a, a);
      EXPECT_TRUE(same_bits(a, want)) << "n " << n << " trial " << trial;
    }
  }
}

TEST(Elementwise, AddInplaceRejectsPartialOverlap) {
  Vector v(12, 1.0f);
  const std::span<float> all(v);
  for (const std::size_t shift : {1, 3, 4}) {
    try {
      tensor::add_inplace(all.subspan(shift, 5), all.subspan(0, 5));
      ADD_FAILURE() << "shift " << shift << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "add_inplace: a and b must not partially overlap"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(tensor::add_inplace(all.subspan(0, 5), all.subspan(shift, 5)),
                 Error);
  }
  EXPECT_EQ(v, Vector(12, 1.0f));  // nothing moved
  tensor::add_inplace(all.subspan(0, 4), all.subspan(4, 4));  // adjacent
  EXPECT_EQ(v[0], 2.0f);
}

TEST(Elementwise, DotNormCosine) {
  const Vector a = {3, 4};
  EXPECT_FLOAT_EQ(tensor::norm(a), 5.0f);
  const Vector b = {4, -3};  // orthogonal
  EXPECT_FLOAT_EQ(tensor::dot(a, b), 0.0f);
  EXPECT_FLOAT_EQ(tensor::cosine(a, b), 0.0f);
  EXPECT_NEAR(tensor::cosine(a, a), 1.0f, 1e-6f);
}

TEST(Elementwise, CosineZeroVectorIsZero) {
  const Vector z = {0, 0};
  const Vector a = {1, 1};
  EXPECT_EQ(tensor::cosine(z, a), 0.0f);
}

TEST(Activations, ReluClampsNegatives) {
  Vector x = {-1.0f, 0.0f, 2.5f};
  tensor::relu_inplace(x);
  EXPECT_EQ(x, (Vector{0.0f, 0.0f, 2.5f}));
}

TEST(Activations, SigmoidRangeAndMidpoint) {
  const Vector x = {-100.0f, 0.0f, 100.0f};
  const Vector s = tensor::sigmoid(x);
  EXPECT_NEAR(s[0], 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(s[1], 0.5f);
  EXPECT_NEAR(s[2], 1.0f, 1e-6f);
}

TEST(Activations, SoftmaxSumsToOneAndIsStable) {
  const Vector x = {1000.0f, 1001.0f, 999.0f};  // would overflow naive exp
  const Vector s = tensor::softmax(x);
  float sum = 0.0f;
  for (float v : s) {
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(s[1], s[0]);
  EXPECT_GT(s[0], s[2]);
}

// ---------- QMatrix ---------------------------------------------------------

// QMatrix::quantize is the 4-lane util::quantize over the row-major data,
// with the scale of choose_symmetric: the one-lane max and then
// QuantParams::quantize of every element.
TEST(QMatrix, QuantizeMatchesScalarLoop) {
  for (const auto& [rows, cols] : gemv_shapes()) {
    const Matrix m(rows, cols,
                   offset_buffer(rows * cols - 1, 8000 + rows * cols));
    float max_abs = 0.0f;
    for (const float x : m.data()) max_abs = std::max(max_abs, std::fabs(x));
    const auto q = tensor::QMatrix::quantize(m);
    ASSERT_EQ(q.rows(), rows);
    ASSERT_EQ(q.cols(), cols);
    EXPECT_EQ(q.params().scale, max_abs / 127.0f) << rows << "x" << cols;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        ASSERT_EQ(q.at(r, c), q.params().quantize(m.at(r, c)))
            << rows << "x" << cols << " at " << r << "," << c;
  }
}

TEST(QMatrix, QuantizeDequantizeBounded) {
  const Matrix m = random_matrix(8, 8, 11);
  const auto q = tensor::QMatrix::quantize(m);
  const Matrix back = q.dequantize();
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      EXPECT_NEAR(back.at(r, c), m.at(r, c), q.params().scale * 0.5f + 1e-6f);
}

TEST(QMatrix, RowViewMatchesAt) {
  const Matrix m = random_matrix(4, 6, 12);
  const auto q = tensor::QMatrix::quantize(m);
  for (std::size_t r = 0; r < q.rows(); ++r) {
    const auto row = q.row(r);
    for (std::size_t c = 0; c < q.cols(); ++c) EXPECT_EQ(row[c], q.at(r, c));
  }
}

TEST(QMatrix, GemvI8MatchesFloatWithinQuantError) {
  const Matrix m = random_matrix(16, 32, 13);
  util::Xoshiro256 rng(14);
  Vector v(32);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));

  const auto wq = tensor::QMatrix::quantize(m);
  const auto vp = util::choose_symmetric(v);
  const auto vq = util::quantize(v, vp);

  const auto acc = tensor::gemv_i8(wq, vq);
  const Vector ref = tensor::gemv(m, v);
  const float scale = wq.params().scale * vp.scale;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    // Error bound: each product has quant error ~scale/2 per operand.
    EXPECT_NEAR(scale * static_cast<float>(acc[i]), ref[i], 0.15f);
  }
}

TEST(QMatrix, GemvI8DimMismatchThrows) {
  const auto q = tensor::QMatrix::quantize(Matrix(2, 3));
  const std::vector<std::int8_t> v(4, 1);
  EXPECT_THROW(tensor::gemv_i8(q, v), Error);
}

}  // namespace
}  // namespace imars
