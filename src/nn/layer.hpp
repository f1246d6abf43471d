// Fully connected layer with activation, forward + backward.
//
// The DNN stacks in the paper are plain MLPs (YouTubeDNN 128-64-32 / 128-1,
// DLRM 256-128-32 / 256-64-1). Training runs sample-at-a-time SGD, and a
// training step updates the parameters in place: backward() computes
// dLoss/dInput and steps the weights and bias in one pass (gevm_sgd), with
// no gradient buffer. A row whose upstream gradient is zero (ReLU zeroes
// about half of them) is neither read nor written.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace imars::nn {

/// Activation applied after the affine transform.
enum class Activation {
  kIdentity,
  kRelu,
  kSigmoid,
};

/// y = act(W x + b). Caches the forward pass for backward().
class Dense {
 public:
  /// He-initialized weights (stddev sqrt(2/in)) and zero bias.
  Dense(std::size_t in, std::size_t out, Activation act,
        util::Xoshiro256& rng);

  std::size_t in_dim() const noexcept { return weight_.cols(); }
  std::size_t out_dim() const noexcept { return weight_.rows(); }
  Activation activation() const noexcept { return act_; }

  /// Forward pass; caches input and pre-activation for backward().
  tensor::Vector forward(std::span<const float> x);

  /// Inference-only forward (no caching); usable from const contexts.
  tensor::Vector infer(std::span<const float> x) const;

  /// One plain SGD step for the most recent forward() call: returns
  /// dLoss/dInput through the weights as they were, and moves them in
  /// place, W[o] -= lr * (+0 + dz[o] * x) for each dz[o] != 0 and
  /// b[o] -= lr * (+0 + dz[o]) for every o, where dz is dLoss/dz. `lr`
  /// must be finite and positive.
  tensor::Vector backward(std::span<const float> grad_out, float lr);

  const tensor::Matrix& weight() const noexcept { return weight_; }
  const tensor::Vector& bias() const noexcept { return bias_; }
  tensor::Matrix& mutable_weight() noexcept { return weight_; }
  tensor::Vector& mutable_bias() noexcept { return bias_; }

 private:
  tensor::Vector apply_act(tensor::Vector z) const;

  tensor::Matrix weight_;      // out x in
  tensor::Vector bias_;        // out
  Activation act_;

  // Cached forward state.
  tensor::Vector last_input_;
  tensor::Vector last_pre_act_;
  bool has_forward_state_ = false;
};

}  // namespace imars::nn
