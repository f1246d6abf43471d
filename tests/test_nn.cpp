// Unit + property tests for the nn module: gradient checks, training
// convergence, embedding pooling, losses.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/embedding.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
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
// the finite difference of a scalar loss with the analytic gradient.
TEST(Dense, WeightGradientMatchesFiniteDifference) {
  util::Xoshiro256 rng(1);
  Dense layer(4, 3, Activation::kRelu, rng);
  const Vector x = {0.5f, -1.0f, 2.0f, 0.25f};

  // Loss = sum(outputs).
  const auto loss_of = [&](Dense& l) {
    const Vector y = l.infer(x);
    float s = 0.0f;
    for (float v : y) s += v;
    return s;
  };

  layer.forward(x);
  layer.backward(Vector(3, 1.0f));
  const auto& analytic = layer.weight_grad();

  const float eps = 1e-3f;
  for (std::size_t o = 0; o < 3; ++o) {
    for (std::size_t i = 0; i < 4; ++i) {
      Dense probe = layer;
      probe.mutable_weight().at(o, i) += eps;
      const float up = loss_of(probe);
      probe.mutable_weight().at(o, i) -= 2 * eps;
      const float down = loss_of(probe);
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(analytic.at(o, i), numeric, 5e-2f)
          << "weight (" << o << "," << i << ")";
    }
  }
}

TEST(Dense, InputGradientMatchesFiniteDifference) {
  util::Xoshiro256 rng(2);
  Dense layer(5, 2, Activation::kSigmoid, rng);
  Vector x = {0.1f, -0.2f, 0.3f, 0.7f, -0.5f};

  const auto loss_of = [&](const Vector& in) {
    const Vector y = layer.infer(in);
    return y[0] + 2.0f * y[1];
  };

  layer.forward(x);
  const Vector gin = layer.backward(Vector{1.0f, 2.0f});

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
  EXPECT_THROW(layer.backward(Vector{1.0f, 1.0f}), Error);
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
    layer.backward(Vector{y - target});
    layer.apply_sgd(0.1f);
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

bool all_positive_zero(std::span<const float> a) {
  return same_bits(a, Vector(a.size(), 0.0f));
}

void expect_same_state(const Dense& got, const Dense& want,
                       const std::string& where) {
  EXPECT_TRUE(same_bits(got.weight().data(), want.weight().data())) << where;
  EXPECT_TRUE(same_bits(got.bias(), want.bias())) << where;
  EXPECT_TRUE(same_bits(got.weight_grad().data(), want.weight_grad().data()))
      << where;
  EXPECT_TRUE(same_bits(got.bias_grad(), want.bias_grad())) << where;
}

// The plain SGD step Dense::apply_sgd must equal: w -= lr * gw over every
// weight, clean rows included, then the same for the bias.
void full_sweep_sgd(Dense& d, float lr) {
  const auto w = d.mutable_weight().data();
  const auto gw = d.weight_grad().data();
  for (std::size_t i = 0; i < w.size(); ++i) w[i] -= lr * gw[i];
  auto& b = d.mutable_bias();
  for (std::size_t i = 0; i < b.size(); ++i) b[i] -= lr * d.bias_grad()[i];
  d.zero_grad();
}

// Gaussian values with about a third exact zeros (half of them -0.0f), so
// whole weight-gradient rows stay clean under every activation.
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

// Dirty-row SGD against a full-sweep reference on a seeded schedule: 1-3
// forward/backward calls per step, then apply_sgd or (one step in five)
// zero_grad. A copy taken mid-accumulation is stepped alongside. 13 inputs
// cover both the 4-lane body and the tail of the row update.
TEST(Dense, DirtyRowSgdMatchesFullSweep) {
  for (const Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kSigmoid}) {
    const std::string name = "act " + std::to_string(static_cast<int>(act));
    util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(act));
    Dense layer(13, 9, act, rng);
    Dense ref = layer;
    std::optional<Dense> copy;  // taken during step 7's accumulation
    std::size_t clean_rows = 0, dirty_rows = 0;
    for (int step = 0; step < 40; ++step) {
      const std::string where = name + " step " + std::to_string(step);
      const std::size_t calls = 1 + rng.below(3);
      for (std::size_t k = 0; k < calls; ++k) {
        const Vector x = sparse_vector(13, rng);
        const Vector g = sparse_vector(9, rng);
        EXPECT_TRUE(same_bits(layer.forward(x), ref.forward(x))) << where;
        EXPECT_TRUE(same_bits(layer.backward(g), ref.backward(g))) << where;
        if (copy) {
          copy->forward(x);
          copy->backward(g);
        }
        if (step == 7 && k == 0) copy = layer;
      }
      for (std::size_t o = 0; o < 9; ++o) {
        if (all_positive_zero(layer.weight_grad().row(o))) {
          ++clean_rows;
        } else {
          ++dirty_rows;
        }
      }
      if (rng.below(5) == 0) {
        layer.zero_grad();
        ref.zero_grad();
        if (copy) copy->zero_grad();
      } else {
        const float lr = 0.01f + 0.2f * static_cast<float>(rng.uniform());
        layer.apply_sgd(lr);
        full_sweep_sgd(ref, lr);
        if (copy) copy->apply_sgd(lr);
      }
      EXPECT_TRUE(all_positive_zero(layer.weight_grad().data())) << where;
      EXPECT_TRUE(all_positive_zero(layer.bias_grad())) << where;
      expect_same_state(layer, ref, where);
      if (copy) expect_same_state(*copy, ref, where + " copy");
    }
    EXPECT_TRUE(copy.has_value());
    // The schedule must exercise both kinds of row.
    EXPECT_GT(clean_rows, 20u) << name;
    EXPECT_GT(dirty_rows, 20u) << name;
  }
}

TEST(Dense, ApplySgdRejectsBadLearningRate) {
  util::Xoshiro256 rng(16);
  Dense layer(3, 2, Activation::kIdentity, rng);
  layer.forward(Vector{1.0f, 2.0f, 3.0f});
  layer.backward(Vector{1.0f, -1.0f});
  const Dense before = layer;
  for (const float lr : {0.0f, -0.01f, std::nanf(""),
                         std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(layer.apply_sgd(lr), Error) << lr;
    EXPECT_TRUE(same_bits(layer.weight().data(), before.weight().data()));
  }
}

TEST(Mlp, DimsAndParameterCount) {
  util::Xoshiro256 rng(6);
  Mlp mlp({8, 16, 4}, Activation::kIdentity, rng);
  EXPECT_EQ(mlp.in_dim(), 8u);
  EXPECT_EQ(mlp.out_dim(), 4u);
  EXPECT_EQ(mlp.layer_count(), 2u);
  EXPECT_EQ(mlp.parameter_count(), 8u * 16 + 16 + 16 * 4 + 4);
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
      mlp.backward(Vector{g});
      mlp.apply_sgd(0.5f);
    }
  }
  for (const auto& [x, t] : data) {
    const float p = mlp.infer(x)[0];
    EXPECT_NEAR(p, t, 0.25f) << "(" << x[0] << "," << x[1] << ")";
  }
}

// ---------- EmbeddingTable ---------------------------------------------------

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
  t.accumulate_grad(idx, Pooling::kMean, grad);
  t.apply_sgd(1.0f);
  // Each row receives grad/2 and moves by -lr * grad/2.
  EXPECT_EQ(Vector(t.row(0).begin(), t.row(0).end()), (Vector{-1.0f, -2.0f}));
  EXPECT_EQ(Vector(t.row(1).begin(), t.row(1).end()), (Vector{-1.0f, -2.0f}));
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
    t.accumulate_grad(idx, Pooling::kSum, grad);
    t.apply_sgd(0.1f);
  }
  const auto e = t.row(0);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(e[c], target[c], 1e-3f);
}

TEST(Embedding, ApplySgdRejectsBadLearningRate) {
  util::Xoshiro256 rng(17);
  EmbeddingTable t(3, 2, rng);
  const std::size_t idx[1] = {1};
  t.accumulate_grad(idx, Pooling::kSum, Vector{1.0f, -1.0f});
  const tensor::Matrix before = t.matrix();
  for (const float lr : {0.0f, -0.01f, std::nanf(""),
                         std::numeric_limits<float>::infinity()}) {
    EXPECT_THROW(t.apply_sgd(lr), Error) << lr;
    EXPECT_EQ(t.matrix(), before);
  }
}

TEST(Embedding, QuantizedSnapshotRoundTrips) {
  util::Xoshiro256 rng(14);
  EmbeddingTable t(8, 4, rng);
  const auto q = t.quantized();
  EXPECT_EQ(q.rows(), 8u);
  EXPECT_EQ(q.cols(), 4u);
  for (std::size_t r = 0; r < 8; ++r) {
    const auto back = q.dequantize_row(r);
    const auto orig = t.row(r);
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_NEAR(back[c], orig[c], q.params().scale * 0.5f + 1e-6f);
  }
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

// ---------- LrSchedule --------------------------------------------------------

TEST(LrSchedule, StepDecay) {
  nn::LrSchedule s(1.0f, 0.5f, 10);
  EXPECT_FLOAT_EQ(s.at(0), 1.0f);
  EXPECT_FLOAT_EQ(s.at(9), 1.0f);
  EXPECT_FLOAT_EQ(s.at(10), 0.5f);
  EXPECT_FLOAT_EQ(s.at(25), 0.25f);
}

TEST(LrSchedule, RejectsBadParams) {
  EXPECT_THROW(nn::LrSchedule(0.0f, 0.5f, 10), Error);
  EXPECT_THROW(nn::LrSchedule(1.0f, 1.5f, 10), Error);
  EXPECT_THROW(nn::LrSchedule(1.0f, 0.5f, 0), Error);
}

}  // namespace
}  // namespace imars
