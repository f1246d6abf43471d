#include "nn/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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

// Writes into `out` the init values that follow `skip` more draws of `g`,
// leaving `g` after the last one.
void regenerate(util::Xoshiro256& g, std::size_t skip, std::size_t dim,
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
  // A row's slot numbers the stored rows from 1.
  IMARS_REQUIRE(rows <= std::numeric_limits<std::uint32_t>::max(),
                "EmbeddingTable: more rows than a 32-bit row slot numbers");
  // dense() holds every value at once, so a shape no Matrix could hold is
  // rejected before the first draw.
  IMARS_REQUIRE(tensor::checked_elements(rows, dim, "EmbeddingTable") <=
                    std::vector<float>().max_size(),
                "EmbeddingTable: rows x dim exceeds a Matrix's capacity");
  const std::size_t n_pages = rows / kPageRows + (rows % kPageRows != 0);
  pages_.reserve(n_pages);
  const float r = 1.0f / static_cast<float>(dim);
  for (std::size_t p = 0; p < n_pages; ++p) {
    Page page{rng, 0.0f};
    for (std::size_t i = page_rows(p) * dim; i > 0; --i)
      page.init_max = std::max(page.init_max, std::fabs(init_value(rng, r)));
    pages_.push_back(page);
  }
  slots_.assign(rows, 0);
}

std::size_t EmbeddingTable::stored_rows() const noexcept {
  return std::min(chunks_.size() * kChunkRows, rows_);
}

std::size_t EmbeddingTable::page_rows(std::size_t p) const noexcept {
  return std::min(kPageRows, rows_ - p * kPageRows);
}

bool EmbeddingTable::page_written(std::size_t p) const noexcept {
  const std::uint32_t* first = slots_.data() + p * kPageRows;
  return std::any_of(first, first + page_rows(p),
                     [](std::uint32_t slot) { return slot != 0; });
}

std::span<const float> EmbeddingTable::page_values(
    std::size_t p, std::span<float> scratch) const {
  // One walk of the page's generator: a stored row's draws are skipped,
  // and only when an unwritten row follows them.
  util::Xoshiro256 g = pages_[p].init;
  std::size_t skip = 0;
  for (std::size_t i = 0; i < page_rows(p); ++i) {
    const std::span<float> out = scratch.subspan(i * dim_, dim_);
    if (const float* stored = stored_row(p * kPageRows + i)) {
      std::copy_n(stored, dim_, out.begin());
      skip += dim_;
    } else {
      regenerate(g, skip, dim_, out);
      skip = 0;
    }
  }
  return scratch.first(page_rows(p) * dim_);
}

const float* EmbeddingTable::stored_row(std::size_t index) const noexcept {
  const std::size_t slot = slots_[index];
  if (slot == 0) return nullptr;
  return chunks_[(slot - 1) / kChunkRows].get() +
         (slot - 1) % kChunkRows * dim_;
}

float* EmbeddingTable::writable_row(std::size_t index) {
  std::uint32_t& slot = slots_[index];
  if (slot != 0)
    return chunks_[(slot - 1) / kChunkRows].get() +
           (slot - 1) % kChunkRows * dim_;
  // A first write stores the row at the end of the last chunk, which holds
  // kChunkRows rows or, in a nearly full table, the rows left to store.
  if (stored_ % kChunkRows == 0)
    chunks_.push_back(std::make_unique_for_overwrite<float[]>(
        std::min(kChunkRows, rows_ - stored_) * dim_));
  float* row = chunks_.back().get() + stored_ % kChunkRows * dim_;
  util::Xoshiro256 g = pages_[index / kPageRows].init;
  regenerate(g, index % kPageRows * dim_, dim_, {row, dim_});
  slot = static_cast<std::uint32_t>(++stored_);
  return row;
}

void EmbeddingTable::copy_row(std::size_t index, std::span<float> out) const {
  IMARS_REQUIRE(index < rows_, "EmbeddingTable: row index out of range");
  IMARS_REQUIRE(out.size() == dim_,
                "EmbeddingTable::copy_row: out must hold dim() floats");
  if (const float* stored = stored_row(index)) {
    std::copy_n(stored, dim_, out.begin());
  } else {
    util::Xoshiro256 g = pages_[index / kPageRows].init;
    regenerate(g, index % kPageRows * dim_, dim_, out);
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
  // Stored rows add in place; only an unwritten row needs the scratch row.
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
  // Every check before the first move, so a rejected step moves no row.
  // No member hands out a stored row, so grad cannot overlap one.
  for (const std::size_t idx : indices)
    IMARS_REQUIRE(idx < rows_, "EmbeddingTable: grad index out of range");
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
  // The scale of the dense table: the max |x| of the stored rows and of
  // the unwritten pages' cached init maxima. A written page's init max is
  // not its max (a written row may have grown, or held that max and
  // shrunk), but it bounds its unwritten rows'. So only a written page
  // whose init max exceeds the running max can raise it, and only such a
  // page is regenerated.
  float m = 0.0f;
  for (std::size_t s = 0; s < stored_; s += kChunkRows)
    m = std::max(m, util::max_abs({chunks_[s / kChunkRows].get(),
                                   std::min(kChunkRows, stored_ - s) * dim_}));
  for (std::size_t p = 0; p < pages_.size(); ++p)
    if (!page_written(p)) m = std::max(m, pages_[p].init_max);
  std::vector<float> scratch(kPageRows * dim_);
  for (std::size_t p = 0; p < pages_.size(); ++p)
    if (pages_[p].init_max > m && page_written(p))
      m = std::max(m, util::max_abs(page_values(p, scratch)));
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
