#include "nn/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"
#include "util/quant.hpp"

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

// One init value of a table whose values lie in [-r, r): the constructor
// and every regeneration draw through this, so they cannot drift apart.
float init_value(util::Xoshiro256& g, float r) {
  return static_cast<float>(g.uniform(-r, r));
}

// Writes the init values that follow `skip` draws of `g` into `out`.
void regenerate(util::Xoshiro256 g, std::size_t skip, std::size_t dim,
                std::span<float> out) {
  for (std::size_t i = 0; i < skip; ++i) g();
  const float r = 1.0f / static_cast<float>(dim);
  for (float& x : out) x = init_value(g, r);
}

}  // namespace

EmbeddingTable::EmbeddingTable(std::size_t rows, std::size_t dim,
                               util::Xoshiro256& rng)
    : rows_(rows), dim_(dim) {
  IMARS_REQUIRE(rows > 0 && dim > 0, "EmbeddingTable: dims must be positive");
  // dense() holds every value at once, so a shape no Matrix could hold is
  // rejected before the first draw.
  IMARS_REQUIRE(tensor::checked_elements(rows, dim, "EmbeddingTable") <=
                    std::vector<float>().max_size(),
                "EmbeddingTable: rows x dim exceeds a Matrix's capacity");
  const std::size_t n_pages = rows / kPageRows + (rows % kPageRows != 0);
  pages_.reserve(n_pages);
  const float r = 1.0f / static_cast<float>(dim);
  for (std::size_t p = 0; p < n_pages; ++p) {
    Page page{rng, 0.0f, nullptr};
    for (std::size_t i = page_floats(p); i > 0; --i)
      page.init_max = std::max(page.init_max, std::fabs(init_value(rng, r)));
    pages_.push_back(std::move(page));
  }
}

EmbeddingTable::EmbeddingTable(const EmbeddingTable& other)
    : rows_(other.rows_), dim_(other.dim_) {
  pages_.reserve(other.pages_.size());
  for (std::size_t p = 0; p < other.pages_.size(); ++p) {
    const Page& src = other.pages_[p];
    Page page{src.init, src.init_max, nullptr};
    if (src.values) {
      const std::size_t n = page_floats(p);
      page.values = std::make_unique_for_overwrite<float[]>(n);
      std::copy_n(src.values.get(), n, page.values.get());
    }
    pages_.push_back(std::move(page));
  }
}

std::size_t EmbeddingTable::page_floats(std::size_t p) const noexcept {
  return std::min(kPageRows, rows_ - p * kPageRows) * dim_;
}

std::span<const float> EmbeddingTable::page_values(
    std::size_t p, std::span<float> scratch) const {
  const Page& page = pages_[p];
  const std::size_t n = page_floats(p);
  if (page.values) return {page.values.get(), n};
  regenerate(page.init, 0, dim_, scratch.first(n));
  return scratch.first(n);
}

const float* EmbeddingTable::stored_row(std::size_t index) const noexcept {
  const Page& page = pages_[index / kPageRows];
  return page.values ? page.values.get() + (index % kPageRows) * dim_
                     : nullptr;
}

float* EmbeddingTable::writable_row(std::size_t index) {
  const std::size_t p = index / kPageRows;
  Page& page = pages_[p];
  if (!page.values) {
    const std::size_t n = page_floats(p);
    page.values = std::make_unique_for_overwrite<float[]>(n);
    regenerate(page.init, 0, dim_, {page.values.get(), n});
  }
  return page.values.get() + (index % kPageRows) * dim_;
}

void EmbeddingTable::copy_row(std::size_t index, std::span<float> out) const {
  IMARS_REQUIRE(index < rows_, "EmbeddingTable: row index out of range");
  IMARS_REQUIRE(out.size() == dim_,
                "EmbeddingTable::copy_row: out must hold dim() floats");
  if (const float* stored = stored_row(index)) {
    std::copy_n(stored, dim_, out.begin());
  } else {
    regenerate(pages_[index / kPageRows].init, (index % kPageRows) * dim_,
               dim_, out);
  }
}

tensor::Vector EmbeddingTable::lookup_pooled(
    std::span<const std::size_t> indices, Pooling pooling) const {
  if (pooling == Pooling::kConcat) {
    IMARS_REQUIRE(!indices.empty(), "concat pooling of zero lookups");
    tensor::Vector out(indices.size() * dim_);
    for (std::size_t k = 0; k < indices.size(); ++k)
      copy_row(indices[k], std::span(out).subspan(k * dim_, dim_));
    return out;
  }
  // Stored rows add in place; only a row on an unwritten page needs the
  // scratch row.
  tensor::Vector out(dim_, 0.0f);
  tensor::Vector scratch;
  for (const std::size_t idx : indices) {
    IMARS_REQUIRE(idx < rows_, "EmbeddingTable: row index out of range");
    if (const float* stored = stored_row(idx)) {
      tensor::add_inplace(out, {stored, dim_});
    } else {
      scratch.resize(dim_);
      copy_row(idx, scratch);
      tensor::add_inplace(out, scratch);
    }
  }
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
  IMARS_REQUIRE(grad.size() == (concat ? indices.size() : 1) * dim_,
                "EmbeddingTable::sgd: grad size mismatch");
  // Every check before the first move, so a rejected step moves no row. A
  // page allocated below cannot overlap grad, which is live memory already.
  for (const std::size_t idx : indices) {
    IMARS_REQUIRE(idx < rows_, "EmbeddingTable: grad index out of range");
    const float* stored = stored_row(idx);
    IMARS_REQUIRE(stored == nullptr || tensor::disjoint(grad, {stored, dim_}),
                  "EmbeddingTable::sgd: grad must not overlap a row it moves");
  }
  const float scale = (pooling == Pooling::kMean)
                          ? 1.0f / static_cast<float>(indices.size())
                          : 1.0f;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const auto g = concat ? grad.subspan(k * dim_, dim_) : grad;
    sgd_row(writable_row(indices[k]), g.data(), dim_, scale, lr);
  }
}

void EmbeddingTable::set_row(std::size_t index, std::span<const float> values) {
  IMARS_REQUIRE(index < rows_, "EmbeddingTable::set_row out of range");
  IMARS_REQUIRE(values.size() == dim_, "EmbeddingTable::set_row dim mismatch");
  float* r = writable_row(index);
  for (std::size_t c = 0; c < values.size(); ++c) r[c] = values[c];
}

tensor::QMatrix EmbeddingTable::quantized() const {
  // The scale of the dense table: the stored pages' max |x| and the
  // unwritten pages' cached init max, whose max is the dense table's.
  float m = 0.0f;
  for (std::size_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    m = std::max(m, page.values
                        ? util::max_abs({page.values.get(), page_floats(p)})
                        : page.init_max);
  }
  const util::QuantParams params = util::symmetric_for(m);
  tensor::QMatrix q(rows_, dim_, params);
  for_each_page([&](std::size_t first, std::span<const float> values) {
    util::quantize(values, params,
                   q.data().subspan(first * dim_, values.size()));
  });
  return q;
}

tensor::Matrix EmbeddingTable::dense() const {
  tensor::Matrix m(rows_, dim_);
  for_each_page([&](std::size_t first, std::span<const float> values) {
    std::copy(values.begin(), values.end(),
              m.data().begin() + static_cast<std::ptrdiff_t>(first * dim_));
  });
  return m;
}

}  // namespace imars::nn
