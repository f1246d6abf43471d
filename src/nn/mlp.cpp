#include "nn/mlp.hpp"

#include "util/error.hpp"

namespace imars::nn {

Mlp::Mlp(std::vector<std::size_t> dims, Activation output_act,
         util::Xoshiro256& rng)
    : dims_(std::move(dims)) {
  IMARS_REQUIRE(dims_.size() >= 2, "Mlp: need at least {in, out} dims");
  layers_.reserve(dims_.size() - 1);
  for (std::size_t i = 0; i + 1 < dims_.size(); ++i) {
    const bool last = (i + 2 == dims_.size());
    layers_.emplace_back(dims_[i], dims_[i + 1],
                         last ? output_act : Activation::kRelu, rng);
  }
}

std::size_t Mlp::in_dim() const { return layers_.front().in_dim(); }
std::size_t Mlp::out_dim() const { return layers_.back().out_dim(); }

const Dense& Mlp::layer(std::size_t i) const {
  IMARS_REQUIRE(i < layers_.size(), "Mlp::layer out of range");
  return layers_[i];
}

Dense& Mlp::mutable_layer(std::size_t i) {
  IMARS_REQUIRE(i < layers_.size(), "Mlp::mutable_layer out of range");
  return layers_[i];
}

tensor::Vector Mlp::forward(std::span<const float> x) {
  tensor::Vector v(x.begin(), x.end());
  for (auto& l : layers_) v = l.forward(v);
  return v;
}

tensor::Vector Mlp::infer(std::span<const float> x) const {
  tensor::Vector v(x.begin(), x.end());
  for (const auto& l : layers_) v = l.infer(v);
  return v;
}

tensor::Vector Mlp::backward(std::span<const float> grad_out, float lr) {
  tensor::Vector g(grad_out.begin(), grad_out.end());
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = it->backward(g, lr);
  return g;
}

}  // namespace imars::nn
