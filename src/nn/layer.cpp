#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace imars::nn {

namespace {

// w[i] -= lr * g[i]; g[i] = 0. Four lanes per step, vectorized like
// tensor::axpy.
void sgd_row(float lr, float* __restrict w, float* __restrict g,
             std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    w[i] -= lr * g[i];
    w[i + 1] -= lr * g[i + 1];
    w[i + 2] -= lr * g[i + 2];
    w[i + 3] -= lr * g[i + 3];
    g[i] = 0.0f;
    g[i + 1] = 0.0f;
    g[i + 2] = 0.0f;
    g[i + 3] = 0.0f;
  }
  for (; i < n; ++i) {
    w[i] -= lr * g[i];
    g[i] = 0.0f;
  }
}

}  // namespace

Dense::Dense(std::size_t in, std::size_t out, Activation act,
             util::Xoshiro256& rng)
    : weight_(tensor::Matrix::randn(out, in,
                                    std::sqrt(2.0f / static_cast<float>(in)),
                                    rng)),
      bias_(out, 0.0f),
      act_(act),
      grad_weight_(out, in),
      grad_bias_(out, 0.0f),
      row_dirty_(out, 0) {
  IMARS_REQUIRE(in > 0 && out > 0, "Dense: dimensions must be positive");
}

tensor::Vector Dense::apply_act(tensor::Vector z) const {
  switch (act_) {
    case Activation::kIdentity:
      return z;
    case Activation::kRelu:
      tensor::relu_inplace(z);
      return z;
    case Activation::kSigmoid:
      return tensor::sigmoid(z);
  }
  return z;  // unreachable
}

tensor::Vector Dense::forward(std::span<const float> x) {
  IMARS_REQUIRE(x.size() == in_dim(), "Dense::forward: input dim mismatch");
  last_input_.assign(x.begin(), x.end());
  last_pre_act_ = tensor::gemv(weight_, x);
  tensor::add_inplace(last_pre_act_, bias_);
  has_forward_state_ = true;
  return apply_act(last_pre_act_);
}

tensor::Vector Dense::infer(std::span<const float> x) const {
  IMARS_REQUIRE(x.size() == in_dim(), "Dense::infer: input dim mismatch");
  tensor::Vector z = tensor::gemv(weight_, x);
  tensor::add_inplace(z, bias_);
  return apply_act(std::move(z));
}

tensor::Vector Dense::backward(std::span<const float> grad_out) {
  IMARS_REQUIRE(has_forward_state_, "Dense::backward without forward");
  IMARS_REQUIRE(grad_out.size() == out_dim(),
                "Dense::backward: grad dim mismatch");

  // dL/dz through the activation.
  tensor::Vector grad_z(grad_out.begin(), grad_out.end());
  switch (act_) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      for (std::size_t i = 0; i < grad_z.size(); ++i)
        if (last_pre_act_[i] <= 0.0f) grad_z[i] = 0.0f;
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < grad_z.size(); ++i) {
        const float s = 1.0f / (1.0f + std::exp(-last_pre_act_[i]));
        grad_z[i] *= s * (1.0f - s);
      }
      break;
  }

  // Accumulate dL/dW = grad_z * x^T, dL/db = grad_z. A zero grad_z[o]
  // leaves row o untouched, and clean.
  for (std::size_t o = 0; o < out_dim(); ++o) {
    const float g = grad_z[o];
    if (g != 0.0f) {
      tensor::axpy(g, last_input_, grad_weight_.row(o));
      row_dirty_[o] = 1;
    }
    grad_bias_[o] += g;
  }

  // dL/dx = W^T grad_z.
  return tensor::gevm(grad_z, weight_);
}

void Dense::apply_sgd(float lr) {
  IMARS_REQUIRE(std::isfinite(lr) && lr > 0.0f,
                "Dense::apply_sgd: lr must be finite and positive");
  for (std::size_t o = 0; o < out_dim(); ++o) {
    if (row_dirty_[o] == 0) continue;
    sgd_row(lr, weight_.row(o).data(), grad_weight_.row(o).data(), in_dim());
    row_dirty_[o] = 0;
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) bias_[i] -= lr * grad_bias_[i];
  std::fill(grad_bias_.begin(), grad_bias_.end(), 0.0f);
}

void Dense::zero_grad() {
  for (std::size_t o = 0; o < out_dim(); ++o) {
    if (row_dirty_[o] == 0) continue;
    const auto g = grad_weight_.row(o);
    std::fill(g.begin(), g.end(), 0.0f);
    row_dirty_[o] = 0;
  }
  std::fill(grad_bias_.begin(), grad_bias_.end(), 0.0f);
}

}  // namespace imars::nn
