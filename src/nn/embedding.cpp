#include "nn/embedding.hpp"

#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace imars::nn {

namespace {

// Four floats in one SSE2 register (a GCC/Clang vector extension, no -m
// flag); loads and stores go through memcpy because rows have no alignment.
typedef float f32x4 __attribute__((vector_size(16)));

// r[c] -= lr * (g[c] * scale) for c < n, four columns per step. Each lane
// rounds its own column's two products and difference as the one-lane loop
// does, so the row moves bit for bit as it would there.
void sgd_row(float* __restrict r, const float* __restrict g, std::size_t n,
             float scale, float lr) {
  const f32x4 scale4 = {scale, scale, scale, scale};
  const f32x4 lr4 = {lr, lr, lr, lr};
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    f32x4 rv, gv;
    std::memcpy(&rv, r + c, sizeof rv);
    std::memcpy(&gv, g + c, sizeof gv);
    rv -= lr4 * (gv * scale4);
    std::memcpy(r + c, &rv, sizeof rv);
  }
  for (; c < n; ++c) r[c] -= lr * (g[c] * scale);
}

}  // namespace

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

void EmbeddingTable::sgd(std::span<const std::size_t> indices,
                         Pooling pooling, std::span<const float> grad,
                         float lr) {
  IMARS_REQUIRE(std::isfinite(lr) && lr > 0.0f,
                "EmbeddingTable::sgd: lr must be finite and positive");
  if (indices.empty()) return;
  const bool concat = pooling == Pooling::kConcat;
  IMARS_REQUIRE(grad.size() == (concat ? indices.size() : 1) * dim(),
                "EmbeddingTable::sgd: grad size mismatch");
  IMARS_REQUIRE(tensor::disjoint(grad, table_.data()),
                "EmbeddingTable::sgd: grad must not overlap the table");
  for (const std::size_t idx : indices)
    IMARS_REQUIRE(idx < rows(), "EmbeddingTable: grad index out of range");
  const float scale = (pooling == Pooling::kMean)
                          ? 1.0f / static_cast<float>(indices.size())
                          : 1.0f;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const auto r = table_.row(indices[k]);
    const auto g = concat ? grad.subspan(k * dim(), dim()) : grad;
    sgd_row(r.data(), g.data(), r.size(), scale, lr);
  }
}

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
