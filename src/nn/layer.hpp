// Fully connected layer with activation, forward + backward.
//
// The DNN stacks in the paper are plain MLPs (YouTubeDNN 128-64-32 / 128-1,
// DLRM 256-128-32 / 256-64-1). Training runs sample-at-a-time SGD.
//
// The SGD update is dirty-row: backward() adds to a weight-gradient row only
// when that output's upstream gradient is nonzero (ReLU zeroes about half
// of them) and records the rows it touched. apply_sgd() and zero_grad()
// then visit only those rows, plus the whole bias. A clean row's gradient
// is +0, and w - lr * (+0) == w for every finite lr > 0, so the result is
// bit-identical to a full sweep; apply_sgd() rejects any other lr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

  /// Backward pass for the most recent forward() call. Accumulates weight
  /// and bias gradients internally and returns dLoss/dInput.
  tensor::Vector backward(std::span<const float> grad_out);

  /// Applies accumulated gradients with plain SGD and clears them. `lr`
  /// must be finite and positive.
  void apply_sgd(float lr);

  /// Clears accumulated gradients.
  void zero_grad();

  const tensor::Matrix& weight() const noexcept { return weight_; }
  const tensor::Vector& bias() const noexcept { return bias_; }
  tensor::Matrix& mutable_weight() noexcept { return weight_; }
  tensor::Vector& mutable_bias() noexcept { return bias_; }

  const tensor::Matrix& weight_grad() const noexcept { return grad_weight_; }
  const tensor::Vector& bias_grad() const noexcept { return grad_bias_; }

 private:
  tensor::Vector apply_act(tensor::Vector z) const;

  tensor::Matrix weight_;      // out x in
  tensor::Vector bias_;        // out
  Activation act_;

  tensor::Matrix grad_weight_;
  tensor::Vector grad_bias_;
  // row_dirty_[o] != 0 when grad_weight_ row o may be nonzero; every other
  // row is all +0.
  std::vector<std::uint8_t> row_dirty_;

  // Cached forward state.
  tensor::Vector last_input_;
  tensor::Vector last_pre_act_;
  bool has_forward_state_ = false;
};

}  // namespace imars::nn
