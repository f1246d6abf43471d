// Unit + property tests for the nn module: gradient checks, training
// convergence, embedding pooling, losses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/embedding.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "tensor/qtensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using nn::Activation;
using nn::Dense;
using nn::EmbeddingTable;
using nn::Mlp;
using nn::Pooling;
using tensor::Vector;

// Numerical gradient check of a Dense layer: perturb each weight and compare
// the finite difference of a scalar loss with the gradient the SGD step
// applied, (w_before - w_after) / lr.
TEST(Dense, WeightGradientMatchesFiniteDifference) {
  util::Xoshiro256 rng(1);
  Dense layer(4, 3, Activation::kRelu, rng);
  const Dense before = layer;
  const Vector x = {0.5f, -1.0f, 2.0f, 0.25f};

  // Loss = sum(outputs).
  const auto loss_of = [&](Dense& l) {
    const Vector y = l.infer(x);
    float s = 0.0f;
    for (float v : y) s += v;
    return s;
  };

  const float lr = 0.5f;
  layer.forward(x);
  layer.backward(Vector(3, 1.0f), lr);

  const float eps = 1e-3f;
  for (std::size_t o = 0; o < 3; ++o) {
    for (std::size_t i = 0; i < 4; ++i) {
      const float analytic =
          (before.weight().at(o, i) - layer.weight().at(o, i)) / lr;
      Dense probe = before;
      probe.mutable_weight().at(o, i) += eps;
      const float up = loss_of(probe);
      probe.mutable_weight().at(o, i) -= 2 * eps;
      const float down = loss_of(probe);
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(analytic, numeric, 5e-2f)
          << "weight (" << o << "," << i << ")";
    }
  }
}

TEST(Dense, InputGradientMatchesFiniteDifference) {
  util::Xoshiro256 rng(2);
  Dense layer(5, 2, Activation::kSigmoid, rng);
  const Dense before = layer;
  Vector x = {0.1f, -0.2f, 0.3f, 0.7f, -0.5f};

  const auto loss_of = [&](const Vector& in) {
    const Vector y = before.infer(in);
    return y[0] + 2.0f * y[1];
  };

  layer.forward(x);
  const Vector gin = layer.backward(Vector{1.0f, 2.0f}, 0.1f);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Vector up = x, down = x;
    up[i] += eps;
    down[i] -= eps;
    const float numeric = (loss_of(up) - loss_of(down)) / (2 * eps);
    EXPECT_NEAR(gin[i], numeric, 5e-3f) << "input " << i;
  }
}

TEST(Dense, BackwardWithoutForwardThrows) {
  util::Xoshiro256 rng(3);
  Dense layer(2, 2, Activation::kIdentity, rng);
  EXPECT_THROW(layer.backward(Vector{1.0f, 1.0f}, 0.1f), Error);
}

TEST(Dense, ForwardChecksDimensions) {
  util::Xoshiro256 rng(4);
  Dense layer(3, 2, Activation::kIdentity, rng);
  EXPECT_THROW(layer.forward(Vector{1.0f}), Error);
}

TEST(Dense, SgdStepReducesLoss) {
  util::Xoshiro256 rng(5);
  Dense layer(2, 1, Activation::kIdentity, rng);
  const Vector x = {1.0f, -1.0f};
  const float target = 3.0f;
  float prev = 1e9f;
  for (int step = 0; step < 50; ++step) {
    const float y = layer.forward(x)[0];
    const float loss = 0.5f * (y - target) * (y - target);
    layer.backward(Vector{y - target}, 0.1f);
    if (step > 0) {
      EXPECT_LE(loss, prev + 1e-5f);
    }
    prev = loss;
  }
  EXPECT_NEAR(layer.infer(x)[0], target, 1e-3f);
}

// Bitwise equality: +0.0 and -0.0 differ, so do NaN payloads.
bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool is_negative_zero(float v) { return v == 0.0f && std::signbit(v); }

// Gaussian values with about a third exact zeros (half of them -0.0f), so
// whole rows are skipped under every activation and products come out -0.
Vector sparse_vector(std::size_t n, util::Xoshiro256& rng) {
  Vector v(n);
  for (auto& x : v) {
    switch (rng.below(6)) {
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
  return v;
}

// The two-phase SGD step a Dense layer's in-place step must equal bit for
// bit: plain loops for forward (each sum from +0 in column order, then the
// bias), dL/dz, and dL/dx (from +0, rows with dz != 0 in order); the
// gradient accumulated into +0 buffers; then w -= lr * gw and b -= lr * gb
// over every parameter.
struct TwoPhaseDense {
  tensor::Matrix w;
  Vector b;
  Activation act;
  Vector x, z;
  std::size_t neg_zero_weight_hits = 0;  // -0 weight meets a -0 product
  std::size_t neg_zero_bias_hits = 0;    // -0 bias meets a -0 dz

  explicit TwoPhaseDense(const Dense& d)
      : w(d.weight()), b(d.bias()), act(d.activation()) {}

  Vector forward(const Vector& in) {
    x = in;
    z.assign(w.rows(), 0.0f);
    Vector y(w.rows());
    for (std::size_t o = 0; o < w.rows(); ++o) {
      for (std::size_t c = 0; c < w.cols(); ++c) z[o] += w.at(o, c) * x[c];
      z[o] += b[o];
      y[o] = z[o];
      if (act == Activation::kRelu) y[o] = std::max(z[o], 0.0f);
      if (act == Activation::kSigmoid) y[o] = 1.0f / (1.0f + std::exp(-z[o]));
    }
    return y;
  }

  Vector backward(const Vector& grad_out, float lr) {
    Vector dz = grad_out;
    for (std::size_t o = 0; o < dz.size(); ++o) {
      if (act == Activation::kRelu && z[o] <= 0.0f) dz[o] = 0.0f;
      if (act == Activation::kSigmoid) {
        const float s = 1.0f / (1.0f + std::exp(-z[o]));
        dz[o] *= s * (1.0f - s);
      }
    }
    Vector dx(w.cols(), 0.0f);
    tensor::Matrix gw(w.rows(), w.cols());
    Vector gb(w.rows(), 0.0f);
    for (std::size_t o = 0; o < w.rows(); ++o) {
      gb[o] += dz[o];
      if (is_negative_zero(b[o]) && is_negative_zero(dz[o]))
        ++neg_zero_bias_hits;
      if (dz[o] == 0.0f) continue;
      for (std::size_t c = 0; c < w.cols(); ++c) {
        dx[c] += dz[o] * w.at(o, c);
        gw.at(o, c) += dz[o] * x[c];
        if (is_negative_zero(w.at(o, c)) && is_negative_zero(dz[o] * x[c]))
          ++neg_zero_weight_hits;
      }
    }
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] -= lr * gw.data()[i];
    for (std::size_t o = 0; o < b.size(); ++o) b[o] -= lr * gb[o];
    return dx;
  }
};

// Dense's in-place step against the two-phase reference on a seeded
// schedule. 13 inputs cover both the 4-lane body and the tail of the row
// update; 9 outputs leave 1-4 rows past the last group of four. Inputs and
// upstream gradients hold exact zeros and -0, and every fifth step plants
// -0 in some weights and biases, so a -0 parameter meets a -0 update (the
// "+0 +" of the buffer keeps it -0).
TEST(Dense, InPlaceStepMatchesTwoPhaseReference) {
  for (const Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kSigmoid}) {
    const std::string name = "act " + std::to_string(static_cast<int>(act));
    util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(act));
    Dense layer(13, 9, act, rng);
    TwoPhaseDense ref(layer);
    std::size_t skipped_rows = 0;
    for (int step = 0; step < 60; ++step) {
      const std::string where = name + " step " + std::to_string(step);
      if (step % 5 == 0) {
        for (std::size_t i = step % 3; i < ref.w.size(); i += 3)
          layer.mutable_weight().data()[i] = ref.w.data()[i] = -0.0f;
        for (std::size_t o = step % 2; o < ref.b.size(); o += 2)
          layer.mutable_bias()[o] = ref.b[o] = -0.0f;
      }
      const Vector x = sparse_vector(13, rng);
      const Vector g = sparse_vector(9, rng);
      const float lr = 0.01f + 0.2f * static_cast<float>(rng.uniform());
      EXPECT_TRUE(same_bits(layer.forward(x), ref.forward(x))) << where;
      const tensor::Matrix w_before = layer.weight();
      EXPECT_TRUE(same_bits(layer.backward(g, lr), ref.backward(g, lr)))
          << where;
      EXPECT_TRUE(same_bits(layer.weight().data(), ref.w.data())) << where;
      EXPECT_TRUE(same_bits(layer.bias(), ref.b)) << where;
      for (std::size_t o = 0; o < 9; ++o)
        if (same_bits(layer.weight().row(o), w_before.row(o))) ++skipped_rows;
    }
    // The schedule must exercise skipped rows and both -0 cases.
    EXPECT_GT(skipped_rows, 60u) << name;
    EXPECT_GT(ref.neg_zero_weight_hits, 20u) << name;
    EXPECT_GT(ref.neg_zero_bias_hits, 5u) << name;
  }
}

TEST(Dense, BackwardRejectsBadLearningRate) {
  util::Xoshiro256 rng(16);
  Dense layer(3, 2, Activation::kIdentity, rng);
  layer.forward(Vector{1.0f, 2.0f, 3.0f});
  const Dense before = layer;
  for (const float lr : {0.0f, -0.01f, std::nanf(""),
                         std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(layer.backward(Vector{1.0f, -1.0f}, lr), Error) << lr;
    EXPECT_TRUE(same_bits(layer.weight().data(), before.weight().data()));
    EXPECT_TRUE(same_bits(layer.bias(), before.bias()));
  }
}

TEST(Mlp, DimsAndParameterCount) {
  util::Xoshiro256 rng(6);
  Mlp mlp({8, 16, 4}, Activation::kIdentity, rng);
  EXPECT_EQ(mlp.in_dim(), 8u);
  EXPECT_EQ(mlp.out_dim(), 4u);
  EXPECT_EQ(mlp.layer_count(), 2u);
}

TEST(Mlp, NeedsAtLeastTwoDims) {
  util::Xoshiro256 rng(7);
  EXPECT_THROW(Mlp({5}, Activation::kIdentity, rng), Error);
}

TEST(Mlp, InferMatchesForward) {
  util::Xoshiro256 rng(8);
  Mlp mlp({4, 8, 2}, Activation::kSigmoid, rng);
  const Vector x = {0.1f, 0.2f, -0.3f, 0.4f};
  const Vector a = mlp.forward(x);
  const Vector b = mlp.infer(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Mlp, LearnsXor) {
  util::Xoshiro256 rng(42);
  Mlp mlp({2, 8, 1}, Activation::kSigmoid, rng);
  const std::vector<std::pair<Vector, float>> data = {
      {{0, 0}, 0}, {{0, 1}, 1}, {{1, 0}, 1}, {{1, 1}, 0}};
  for (int epoch = 0; epoch < 3000; ++epoch) {
    for (const auto& [x, t] : data) {
      const float p = mlp.forward(x)[0];
      float g = 0.0f;
      nn::bce_loss(p, t, &g);
      mlp.backward(Vector{g}, 0.5f);
    }
  }
  for (const auto& [x, t] : data) {
    const float p = mlp.infer(x)[0];
    EXPECT_NEAR(p, t, 0.25f) << "(" << x[0] << "," << x[1] << ")";
  }
}

// ---------- EmbeddingTable ---------------------------------------------------

Vector row_of(const EmbeddingTable& t, std::size_t r) {
  Vector out(t.dim());
  t.copy_row(r, out);
  return out;
}

TEST(Embedding, LookupPooledSumMeanConcat) {
  util::Xoshiro256 rng(9);
  EmbeddingTable t(4, 2, rng);
  t.set_row(0, Vector{1, 2});
  t.set_row(1, Vector{3, 4});
  const std::size_t idx[2] = {0, 1};

  EXPECT_EQ(t.lookup_pooled(idx, Pooling::kSum), (Vector{4, 6}));
  EXPECT_EQ(t.lookup_pooled(idx, Pooling::kMean), (Vector{2, 3}));
  EXPECT_EQ(t.lookup_pooled(idx, Pooling::kConcat), (Vector{1, 2, 3, 4}));
}

TEST(Embedding, EmptySumIsZeroConcatThrows) {
  util::Xoshiro256 rng(10);
  EmbeddingTable t(4, 3, rng);
  EXPECT_EQ(t.lookup_pooled({}, Pooling::kSum), Vector(3, 0.0f));
  EXPECT_THROW(t.lookup_pooled({}, Pooling::kConcat), Error);
}

TEST(Embedding, OutOfRangeLookupThrows) {
  util::Xoshiro256 rng(11);
  EmbeddingTable t(4, 2, rng);
  const std::size_t idx[1] = {4};
  EXPECT_THROW(t.lookup_pooled(idx, Pooling::kSum), Error);
}

TEST(Embedding, GradientDistributesOverMeanPooling) {
  util::Xoshiro256 rng(12);
  EmbeddingTable t(3, 2, rng);
  t.set_row(0, Vector{0, 0});
  t.set_row(1, Vector{0, 0});
  const std::size_t idx[2] = {0, 1};
  const Vector grad = {2.0f, 4.0f};
  t.sgd(idx, Pooling::kMean, grad, 1.0f);
  // Each row receives grad/2 and moves by -lr * grad/2.
  EXPECT_EQ(row_of(t, 0), (Vector{-1.0f, -2.0f}));
  EXPECT_EQ(row_of(t, 1), (Vector{-1.0f, -2.0f}));
}

TEST(Embedding, TrainingPullsEmbeddingTowardTarget) {
  util::Xoshiro256 rng(13);
  EmbeddingTable t(2, 4, rng);
  const Vector target = {1.0f, -1.0f, 0.5f, 0.0f};
  const std::size_t idx[1] = {0};
  for (int step = 0; step < 200; ++step) {
    const Vector e = t.lookup_pooled(idx, Pooling::kSum);
    Vector grad(4);
    for (int c = 0; c < 4; ++c) grad[c] = e[c] - target[c];
    t.sgd(idx, Pooling::kSum, grad, 0.1f);
  }
  const Vector e = row_of(t, 0);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(e[c], target[c], 1e-3f);
}

TEST(Embedding, SgdRejectsBadLearningRate) {
  util::Xoshiro256 rng(17);
  EmbeddingTable t(3, 2, rng);
  const std::size_t idx[1] = {1};
  const tensor::Matrix before = t.dense();
  for (const float lr : {0.0f, -0.01f, std::nanf(""),
                         std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(t.sgd(idx, Pooling::kSum, Vector{1.0f, -1.0f}, lr), Error)
        << lr;
    EXPECT_EQ(t.dense(), before);
  }
}

// A rejected step moves no row, also the rows before a bad index. A grad
// that is a stored row the step moves is rejected too; for_each_page hands
// out a written page's own storage.
TEST(Embedding, SgdRejectsBadShapesAndOverlap) {
  util::Xoshiro256 rng(18);
  EmbeddingTable t(3, 2, rng);
  t.set_row(1, row_of(t, 1));  // stores the page, values unchanged
  const tensor::Matrix before = t.dense();
  std::span<const float> stored;
  t.for_each_page([&](std::size_t, std::span<const float> values) {
    stored = values;
  });
  const std::size_t ok[2] = {0, 1};
  const std::size_t bad[2] = {0, 3};
  EXPECT_THROW(t.sgd(bad, Pooling::kSum, Vector{1.0f, 1.0f}, 0.1f), Error);
  EXPECT_THROW(t.sgd(ok, Pooling::kSum, Vector(4, 1.0f), 0.1f), Error);
  EXPECT_THROW(t.sgd(ok, Pooling::kConcat, Vector(2, 1.0f), 0.1f), Error);
  EXPECT_THROW(t.sgd(ok, Pooling::kMean, stored.subspan(2, 2), 0.1f), Error);
  EXPECT_EQ(t.dense(), before);
  t.sgd({}, Pooling::kConcat, {}, 0.1f);  // no lookup, no step
  EXPECT_EQ(t.dense(), before);
}

// EmbeddingTable::sgd against the pending-list reference it replaced: per
// looked-up row, g = grad * scale (or the concat slice) copied into a list,
// then row -= lr * g for each entry in list order. Every call repeats one
// row, so that row moves twice within the call.
TEST(Embedding, SgdMatchesPendingListReference) {
  for (const Pooling pooling :
       {Pooling::kSum, Pooling::kMean, Pooling::kConcat}) {
    const std::string name =
        "pooling " + std::to_string(static_cast<int>(pooling));
    util::Xoshiro256 rng(200 + static_cast<std::uint64_t>(pooling));
    const std::size_t dim = 7;
    EmbeddingTable t(6, dim, rng);
    t.set_row(5, Vector(dim, -0.0f));
    tensor::Matrix ref = t.dense();
    for (int step = 0; step < 30; ++step) {
      const std::string where = name + " step " + std::to_string(step);
      std::vector<std::size_t> idx(1 + rng.below(4));
      for (auto& i : idx) i = rng.below(6);
      idx.push_back(idx[rng.below(idx.size())]);
      const bool concat = pooling == Pooling::kConcat;
      const Vector grad = sparse_vector((concat ? idx.size() : 1) * dim, rng);
      const float lr = 0.01f + 0.5f * static_cast<float>(rng.uniform());

      const float scale = pooling == Pooling::kMean
                              ? 1.0f / static_cast<float>(idx.size())
                              : 1.0f;
      std::vector<std::pair<std::size_t, Vector>> pending;
      for (std::size_t k = 0; k < idx.size(); ++k) {
        Vector g(dim, 0.0f);
        for (std::size_t c = 0; c < dim; ++c)
          g[c] = concat ? grad[k * dim + c] : grad[c] * scale;
        pending.emplace_back(idx[k], std::move(g));
      }
      for (const auto& [row, g] : pending)
        for (std::size_t c = 0; c < dim; ++c) ref.at(row, c) -= lr * g[c];

      t.sgd(idx, pooling, grad, lr);
      EXPECT_TRUE(same_bits(t.dense().data(), ref.data())) << where;
    }
  }
}

// EmbeddingTable::sgd's four-lane row update against the one-lane loop
// r[c] -= lr * (g[c] * scale), at every width from 1 to 9 and at 32, with
// signed zeros, NaNs, infinities and denormals in the rows and gradients.
TEST(Embedding, SgdRowMatchesScalarLoop) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float edges[] = {0.0f, -0.0f, nan, -nan, inf, -inf,
                         tiny, -tiny, 3e-39f, -1e-39f, 1e-30f};
  util::Xoshiro256 rng(41);
  const auto value = [&] {
    return rng.below(2) == 0 ? edges[rng.below(std::size(edges))]
                             : static_cast<float>(rng.normal());
  };
  for (const std::size_t dim : {1, 2, 3, 4, 5, 6, 7, 8, 9, 32}) {
    for (const Pooling pooling :
         {Pooling::kSum, Pooling::kMean, Pooling::kConcat}) {
      const std::string where = "dim " + std::to_string(dim) + " pooling " +
                                std::to_string(static_cast<int>(pooling));
      EmbeddingTable t(4, dim, rng);
      for (std::size_t r = 0; r < 4; ++r) {
        Vector row(dim);
        for (auto& x : row) x = value();
        t.set_row(r, row);
      }
      tensor::Matrix ref = t.dense();
      // An empty step moves nothing.
      t.sgd({}, pooling, {}, 0.5f);
      EXPECT_TRUE(same_bits(t.dense().data(), ref.data())) << where;
      for (int step = 0; step < 20; ++step) {
        std::vector<std::size_t> idx(1 + rng.below(3));
        for (auto& i : idx) i = rng.below(4);
        const bool concat = pooling == Pooling::kConcat;
        Vector grad((concat ? idx.size() : 1) * dim);
        for (auto& x : grad) x = value();
        const float lr = 0.01f + 0.5f * static_cast<float>(rng.uniform());
        const float scale = pooling == Pooling::kMean
                                ? 1.0f / static_cast<float>(idx.size())
                                : 1.0f;
        for (std::size_t k = 0; k < idx.size(); ++k) {
          const float* g = grad.data() + (concat ? k * dim : 0);
          for (std::size_t c = 0; c < dim; ++c)
            ref.at(idx[k], c) -= lr * (g[c] * scale);
        }
        t.sgd(idx, pooling, grad, lr);
        EXPECT_TRUE(same_bits(t.dense().data(), ref.data()))
            << where << " step " << step;
      }
    }
  }
}

TEST(Embedding, QuantizedSnapshotRoundTrips) {
  util::Xoshiro256 rng(14);
  EmbeddingTable t(8, 4, rng);
  const auto q = t.quantized();
  EXPECT_EQ(q.rows(), 8u);
  EXPECT_EQ(q.cols(), 4u);
  for (std::size_t r = 0; r < 8; ++r) {
    const Vector orig = row_of(t, r);
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_NEAR(q.params().dequantize(q.at(r, c)), orig[c],
                  q.params().scale * 0.5f + 1e-6f);
  }
}

// ---------- Page-lazy storage ------------------------------------------------

// The dense table the constructor's draws describe: the loop the table ran
// before it stored pages lazily, over a copy of the generator.
tensor::Matrix dense_init(std::size_t rows, std::size_t dim,
                          util::Xoshiro256& rng) {
  tensor::Matrix m(rows, dim);
  const float r = 1.0f / static_cast<float>(dim);
  for (auto& x : m.data()) x = static_cast<float>(rng.uniform(-r, r));
  return m;
}

// Every read of `t` against the dense reference: each row, the dense copy,
// the three poolings over a spread of rows (sum/mean add the rows into +0
// in call order) and the int8 snapshot's scale and bytes.
void expect_matches_reference(const EmbeddingTable& t,
                              const tensor::Matrix& ref,
                              const std::string& where) {
  ASSERT_EQ(t.rows(), ref.rows()) << where;
  ASSERT_EQ(t.dim(), ref.cols()) << where;
  for (std::size_t r = 0; r < t.rows(); ++r)
    ASSERT_TRUE(same_bits(row_of(t, r), ref.row(r))) << where << " row " << r;
  EXPECT_TRUE(same_bits(t.dense().data(), ref.data())) << where;

  const std::vector<std::size_t> idx = {t.rows() - 1, 0, t.rows() / 2,
                                        t.rows() - 1};
  Vector sum(t.dim(), 0.0f);
  Vector concat;
  for (const std::size_t i : idx) {
    tensor::add_inplace(sum, ref.row(i));
    concat.insert(concat.end(), ref.row(i).begin(), ref.row(i).end());
  }
  Vector mean = sum;
  tensor::scale_inplace(mean, 1.0f / static_cast<float>(idx.size()));
  EXPECT_TRUE(same_bits(t.lookup_pooled(idx, Pooling::kSum), sum)) << where;
  EXPECT_TRUE(same_bits(t.lookup_pooled(idx, Pooling::kMean), mean)) << where;
  EXPECT_TRUE(same_bits(t.lookup_pooled(idx, Pooling::kConcat), concat))
      << where;

  const tensor::QMatrix q = t.quantized();
  const tensor::QMatrix want = tensor::QMatrix::quantize(ref);
  EXPECT_EQ(q.params().scale, want.params().scale) << where;
  ASSERT_EQ(q.rows(), want.rows()) << where;
  ASSERT_EQ(q.cols(), want.cols()) << where;
  EXPECT_TRUE(std::equal(q.data().begin(), q.data().end(),
                         want.data().begin()))
      << where;
}

// Page boundaries (7, 8, 9 rows), a partial last page (17, 1000) and a
// one-row table, at widths 1, 3 and 32: every read matches the dense table
// the same draws describe, before and after writes, and the generator
// leaves the constructor where the dense loop leaves it. The first
// snapshot has no stored page at all, so its scale is the unwritten
// pages' alone.
TEST(Embedding, PageLazyTableMatchesDenseReference) {
  for (const std::size_t rows : {1, 7, 8, 9, 17, 1000}) {
    for (const std::size_t dim : {1, 3, 32}) {
      const std::string where =
          std::to_string(rows) + " x " + std::to_string(dim);
      util::Xoshiro256 rng(300 + rows * 64 + dim);
      util::Xoshiro256 ref_rng = rng;
      EmbeddingTable t(rows, dim, rng);
      tensor::Matrix ref = dense_init(rows, dim, ref_rng);
      EXPECT_EQ(rng(), ref_rng()) << where;
      expect_matches_reference(t, ref, where + " as built");

      // One sgd step per pooling, each a first write to some page, then
      // set_row on a mix: from 17 rows on, `mid` is a row on a page no step
      // touched, mid and mid + 1 are two rows of one page, and the last row.
      const float lr = 0.25f;
      const std::size_t last = rows - 1;
      const std::size_t mid = rows / 2;
      const std::vector<std::size_t> steps[3] = {
          {rows / 3}, {0, last, 0}, {last, 0}};
      for (const Pooling pooling :
           {Pooling::kSum, Pooling::kMean, Pooling::kConcat}) {
        const auto& idx = steps[static_cast<int>(pooling)];
        const bool concat = pooling == Pooling::kConcat;
        Vector grad((concat ? idx.size() : 1) * dim);
        for (std::size_t c = 0; c < grad.size(); ++c)
          grad[c] = 0.5f * ref.data()[c % ref.size()];
        const float scale = pooling == Pooling::kMean
                                ? 1.0f / static_cast<float>(idx.size())
                                : 1.0f;
        for (std::size_t k = 0; k < idx.size(); ++k)
          for (std::size_t c = 0; c < dim; ++c)
            ref.at(idx[k], c) -=
                lr * (grad[(concat ? k * dim : 0) + c] * scale);
        t.sgd(idx, pooling, grad, lr);
      }
      for (const std::size_t r : {mid, mid + 1, last}) {
        if (r >= rows) continue;
        Vector values(dim);
        for (std::size_t c = 0; c < dim; ++c) values[c] = 0.25f * ref.at(r, c);
        t.set_row(r, values);
        std::copy(values.begin(), values.end(), ref.row(r).begin());
      }
      expect_matches_reference(t, ref, where + " after writes");

      // A copy owns its pages: writing the original leaves it as it was.
      EmbeddingTable copy = t;
      t.set_row(0, Vector(dim, 0.0f));
      expect_matches_reference(copy, ref, where + " copy");
      copy = EmbeddingTable(t);
      std::fill(ref.row(0).begin(), ref.row(0).end(), 0.0f);
      expect_matches_reference(copy, ref, where + " assigned copy");
    }
  }
}

// Readers on four threads reading never-written rows of one table (no
// thread writes it): each regenerates into its own storage, so every read
// matches and a thread sanitizer sees no race.
TEST(Embedding, ConcurrentReadsOfUnwrittenRows) {
  util::Xoshiro256 rng(77);
  util::Xoshiro256 ref_rng = rng;
  const EmbeddingTable t(203, 5, rng);
  const tensor::Matrix ref = dense_init(203, 5, ref_rng);
  const tensor::QMatrix want = tensor::QMatrix::quantize(ref);
  std::vector<int> bad(4, 0);
  std::vector<std::thread> readers;
  for (int k = 0; k < 4; ++k) {
    readers.emplace_back([&, k] {
      Vector row(5);
      for (int pass = 0; pass < 20; ++pass) {
        for (std::size_t r = static_cast<std::size_t>(k); r < 203; r += 3) {
          t.copy_row(r, row);
          bad[k] += same_bits(row, ref.row(r)) ? 0 : 1;
          const std::size_t idx[2] = {r, 202 - r};
          Vector sum(5, 0.0f);
          tensor::add_inplace(sum, ref.row(r));
          tensor::add_inplace(sum, ref.row(202 - r));
          bad[k] += same_bits(t.lookup_pooled(idx, Pooling::kSum), sum) ? 0 : 1;
        }
      }
      const tensor::QMatrix q = t.quantized();
      bad[k] += std::equal(q.data().begin(), q.data().end(),
                           want.data().begin())
                    ? 0
                    : 1;
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad, std::vector<int>(4, 0));
}

// A shape whose values no Matrix could hold is rejected before any draw.
// SIZE_MAX x 1 does not overflow rows x dim, but rounding its rows up to
// whole pages does: a wrapped page count of 0 would back 2^64 - 1 rows with
// no pages.
TEST(Embedding, OverflowingShapeIsRejected) {
  util::Xoshiro256 rng(78);
  util::Xoshiro256 untouched = rng;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::size_t big = std::size_t{1} << 32;
  EXPECT_THROW(EmbeddingTable(big, big, rng), Error);
  EXPECT_THROW(EmbeddingTable(kMax, 2, rng), Error);
  EXPECT_THROW(EmbeddingTable(kMax, 1, rng), Error);
  EXPECT_EQ(rng(), untouched());
}

// ---------- Losses -----------------------------------------------------------

TEST(Loss, BceAtHalfIsLog2) {
  float g = 0.0f;
  EXPECT_NEAR(nn::bce_loss(0.5f, 1.0f, &g), std::log(2.0f), 1e-6f);
  EXPECT_NEAR(g, -2.0f, 1e-4f);  // (p - y) / (p(1-p)) = -0.5/0.25
}

TEST(Loss, BceGradientSign) {
  float g = 0.0f;
  nn::bce_loss(0.9f, 1.0f, &g);
  EXPECT_LT(g, 0.0f);  // increase p to reduce loss
  nn::bce_loss(0.9f, 0.0f, &g);
  EXPECT_GT(g, 0.0f);
}

TEST(Loss, SampledSoftmaxPrefersPositive) {
  const Vector user = {1.0f, 0.0f};
  const Vector pos = {1.0f, 0.0f};
  const std::vector<Vector> negs = {{-1.0f, 0.0f}, {0.0f, 1.0f}};
  Vector gu, gp;
  std::vector<Vector> gn;
  const float loss = nn::sampled_softmax_loss(user, pos, negs, &gu, &gp, &gn);
  EXPECT_GT(loss, 0.0f);
  // Gradient on the positive pushes it toward the user; on negatives away.
  EXPECT_LT(gp[0], 0.0f);
  EXPECT_GT(gn[1][0], 0.0f);  // second negative's first coord grows... sign:
}

TEST(Loss, SampledSoftmaxGradCheckOnUser) {
  util::Xoshiro256 rng(15);
  Vector user(3), pos(3);
  std::vector<Vector> negs(2, Vector(3));
  for (auto& v : user) v = static_cast<float>(rng.normal());
  for (auto& v : pos) v = static_cast<float>(rng.normal());
  for (auto& n : negs)
    for (auto& v : n) v = static_cast<float>(rng.normal());

  Vector gu, gp;
  std::vector<Vector> gn;
  nn::sampled_softmax_loss(user, pos, negs, &gu, &gp, &gn);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < user.size(); ++i) {
    Vector up = user, down = user;
    up[i] += eps;
    down[i] -= eps;
    Vector tu, tp;
    std::vector<Vector> tn;
    const float lu = nn::sampled_softmax_loss(up, pos, negs, &tu, &tp, &tn);
    const float ld = nn::sampled_softmax_loss(down, pos, negs, &tu, &tp, &tn);
    EXPECT_NEAR(gu[i], (lu - ld) / (2 * eps), 5e-3f);
  }
}

TEST(Loss, SampledSoftmaxLossDropsWhenPositiveCloser) {
  const Vector user = {1.0f, 0.0f};
  const std::vector<Vector> negs = {{0.0f, 1.0f}};
  Vector gu, gp;
  std::vector<Vector> gn;
  const float far =
      nn::sampled_softmax_loss(user, Vector{0.1f, 0.0f}, negs, &gu, &gp, &gn);
  const float close =
      nn::sampled_softmax_loss(user, Vector{2.0f, 0.0f}, negs, &gu, &gp, &gn);
  EXPECT_LT(close, far);
}

}  // namespace
}  // namespace imars
