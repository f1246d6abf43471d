#include "nn/embedding.hpp"

#include <cmath>

#include "util/error.hpp"

namespace imars::nn {

EmbeddingTable::EmbeddingTable(std::size_t rows, std::size_t dim,
                               util::Xoshiro256& rng)
    : table_(rows, dim) {
  IMARS_REQUIRE(rows > 0 && dim > 0, "EmbeddingTable: dims must be positive");
  const float r = 1.0f / static_cast<float>(dim);
  for (auto& x : table_.data()) x = static_cast<float>(rng.uniform(-r, r));
}

std::span<const float> EmbeddingTable::row(std::size_t index) const {
  IMARS_REQUIRE(index < rows(), "EmbeddingTable: row index out of range");
  return table_.row(index);
}

tensor::Vector EmbeddingTable::lookup_pooled(
    std::span<const std::size_t> indices, Pooling pooling) const {
  if (pooling == Pooling::kConcat) {
    IMARS_REQUIRE(!indices.empty(), "concat pooling of zero lookups");
    tensor::Vector out;
    out.reserve(indices.size() * dim());
    for (auto idx : indices) {
      const auto r = row(idx);
      out.insert(out.end(), r.begin(), r.end());
    }
    return out;
  }
  tensor::Vector out(dim(), 0.0f);
  for (auto idx : indices) tensor::add_inplace(out, row(idx));
  if (pooling == Pooling::kMean && !indices.empty()) {
    tensor::scale_inplace(out, 1.0f / static_cast<float>(indices.size()));
  }
  return out;
}

void EmbeddingTable::accumulate_grad(std::span<const std::size_t> indices,
                                     Pooling pooling,
                                     std::span<const float> grad) {
  if (indices.empty()) return;
  const float scale = (pooling == Pooling::kMean)
                          ? 1.0f / static_cast<float>(indices.size())
                          : 1.0f;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t idx = indices[k];
    IMARS_REQUIRE(idx < rows(), "EmbeddingTable: grad index out of range");
    tensor::Vector g(dim(), 0.0f);
    if (pooling == Pooling::kConcat) {
      IMARS_REQUIRE(grad.size() == indices.size() * dim(),
                    "concat grad size mismatch");
      for (std::size_t c = 0; c < dim(); ++c) g[c] = grad[k * dim() + c];
    } else {
      IMARS_REQUIRE(grad.size() == dim(), "pooled grad size mismatch");
      for (std::size_t c = 0; c < dim(); ++c) g[c] = grad[c] * scale;
    }
    pending_grads_.emplace_back(idx, std::move(g));
  }
}

void EmbeddingTable::apply_sgd(float lr) {
  IMARS_REQUIRE(std::isfinite(lr) && lr > 0.0f,
                "EmbeddingTable::apply_sgd: lr must be finite and positive");
  for (const auto& [idx, g] : pending_grads_) {
    auto r = table_.row(idx);
    for (std::size_t c = 0; c < g.size(); ++c) r[c] -= lr * g[c];
  }
  pending_grads_.clear();
}

void EmbeddingTable::zero_grad() { pending_grads_.clear(); }

void EmbeddingTable::set_row(std::size_t index, std::span<const float> values) {
  IMARS_REQUIRE(index < rows(), "EmbeddingTable::set_row out of range");
  IMARS_REQUIRE(values.size() == dim(), "EmbeddingTable::set_row dim mismatch");
  auto r = table_.row(index);
  for (std::size_t c = 0; c < values.size(); ++c) r[c] = values[c];
}

tensor::QMatrix EmbeddingTable::quantized() const {
  return tensor::QMatrix::quantize(table_);
}

}  // namespace imars::nn
