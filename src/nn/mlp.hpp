// Sequential MLP container matching the paper's DNN-stack configurations.
// Training is per-sample SGD in place: forward() caches each layer's input,
// and backward(grad, lr) steps the layers last to first (Dense::backward).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace imars::nn {

/// A stack of Dense layers, e.g. Mlp({128, 64, 32}) builds the paper's
/// 128-64-32 filtering network (ReLU between hidden layers, configurable
/// output activation).
class Mlp {
 public:
  /// dims = {in, h1, ..., out}; needs at least {in, out}.
  Mlp(std::vector<std::size_t> dims, Activation output_act,
      util::Xoshiro256& rng);

  std::size_t in_dim() const;
  std::size_t out_dim() const;
  std::size_t layer_count() const noexcept { return layers_.size(); }
  const Dense& layer(std::size_t i) const;
  Dense& mutable_layer(std::size_t i);

  /// Layer widths {in, h1, ..., out} as constructed.
  const std::vector<std::size_t>& dims() const noexcept { return dims_; }

  tensor::Vector forward(std::span<const float> x);
  tensor::Vector infer(std::span<const float> x) const;

  /// One SGD step through all layers, last to first (Dense::backward):
  /// each layer moves in place once it has passed its dLoss/dInput on.
  /// Returns dLoss/dInput of the first layer.
  tensor::Vector backward(std::span<const float> grad_out, float lr);

 private:
  std::vector<std::size_t> dims_;
  std::vector<Dense> layers_;
};

}  // namespace imars::nn
