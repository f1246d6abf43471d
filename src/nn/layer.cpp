#include "nn/layer.hpp"

#include <cmath>

#include "util/error.hpp"

namespace imars::nn {

Dense::Dense(std::size_t in, std::size_t out, Activation act,
             util::Xoshiro256& rng)
    : weight_(tensor::Matrix::randn(out, in,
                                    std::sqrt(2.0f / static_cast<float>(in)),
                                    rng)),
      bias_(out, 0.0f),
      act_(act) {
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

tensor::Vector Dense::backward(std::span<const float> grad_out, float lr) {
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

  // dL/dx = W^T grad_z from the weights as they were, and W -= lr *
  // grad_z x^T row by row; gevm_sgd checks lr before it writes anything.
  tensor::Vector grad_x = tensor::gevm_sgd(grad_z, weight_, last_input_, lr);
  for (std::size_t o = 0; o < out_dim(); ++o)
    bias_[o] -= lr * (0.0f + grad_z[o]);
  return grad_x;
}

}  // namespace imars::nn
