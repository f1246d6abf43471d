// Trainable embedding table with lookup + pooling.
//
// This is the *algorithmic* embedding table used for model training and for
// the CPU/GPU baselines. The in-memory (hardware) incarnation lives in
// core::ImarsAccelerator, which loads a quantized snapshot of these tables
// into CMA banks (Sec III-B).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/qtensor.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace imars::nn {

/// How multiple looked-up rows combine into one output vector (Sec II-A
/// "sparse lookup and pooling operations").
enum class Pooling {
  kSum,
  kMean,
  kConcat,
};

/// rows x dim trainable embedding table.
class EmbeddingTable {
 public:
  /// Uniform init in [-1/dim, 1/dim] (DLRM-style).
  EmbeddingTable(std::size_t rows, std::size_t dim, util::Xoshiro256& rng);

  std::size_t rows() const noexcept { return table_.rows(); }
  std::size_t dim() const noexcept { return table_.cols(); }

  /// Single-row lookup.
  std::span<const float> row(std::size_t index) const;

  /// Looks up `indices` and pools them. kConcat returns dim()*indices.size()
  /// values; kSum/kMean return dim() values. Empty index lists are allowed
  /// for sum/mean (result is all-zero) but not for concat.
  tensor::Vector lookup_pooled(std::span<const std::size_t> indices,
                               Pooling pooling) const;

  /// SGD update for a pooled lookup: distributes grad over the looked-up
  /// rows (scaled 1/n for mean pooling).
  void accumulate_grad(std::span<const std::size_t> indices, Pooling pooling,
                       std::span<const float> grad);
  /// Applies the pending gradients (lr must be finite and positive).
  void apply_sgd(float lr);
  void zero_grad();

  /// Direct row write (used by tests and synthetic setups).
  void set_row(std::size_t index, std::span<const float> values);

  /// Post-training int8 snapshot of the whole table (per-tensor symmetric).
  tensor::QMatrix quantized() const;

  const tensor::Matrix& matrix() const noexcept { return table_; }

 private:
  tensor::Matrix table_;
  // Sparse gradient accumulator: only touched rows are stored.
  std::vector<std::pair<std::size_t, tensor::Vector>> pending_grads_;
};

}  // namespace imars::nn
