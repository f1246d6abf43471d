// Trainable embedding table with lookup + pooling.
//
// This is the *algorithmic* embedding table used for model training and for
// the CPU/GPU baselines. The in-memory (hardware) incarnation lives in
// core::ImarsAccelerator, which loads a quantized snapshot of these tables
// into CMA banks (Sec III-B). A training step updates the looked-up rows in
// place (sgd()); nothing is buffered between steps.
#pragma once

#include <cstddef>
#include <span>

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

  /// One plain SGD step for a pooled lookup of `indices`, given the
  /// gradient of the pooled output: each looked-up row, in call order,
  /// moves by row[c] -= lr * g[c], where g is grad * (1/n for mean pooling,
  /// 1 for sum) or, for concat, the row's dim()-slice of grad. A row
  /// looked up twice moves twice. `lr` must be finite and positive, and
  /// grad must not overlap the table.
  void sgd(std::span<const std::size_t> indices, Pooling pooling,
           std::span<const float> grad, float lr);

  /// Direct row write (used by tests and synthetic setups).
  void set_row(std::size_t index, std::span<const float> values);

  /// Post-training int8 snapshot of the whole table (per-tensor symmetric).
  tensor::QMatrix quantized() const;

  const tensor::Matrix& matrix() const noexcept { return table_; }

 private:
  tensor::Matrix table_;
};

}  // namespace imars::nn
