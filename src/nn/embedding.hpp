// Trainable embedding table with lookup + pooling.
//
// This is the *algorithmic* embedding table used for model training and for
// the CPU/GPU baselines. The in-memory (hardware) incarnation lives in
// core::ImarsAccelerator, which loads a quantized snapshot of these tables
// into CMA banks (Sec III-B). A training step updates the looked-up rows in
// place (sgd()); nothing is buffered between steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// rows x dim trainable embedding table that stores only the rows written.
///
/// A trained model touches few rows of a large table (training Criteo's
/// 287,398-row tables on 4,000 samples writes ~7% of them), and every other
/// row keeps its random init value, which is a pure function of the init
/// stream. So the table keeps, per page of kPageRows rows, a copy of the
/// generator at the page's first init value and the page's init max |x|
/// (40 B), and per row a 32-bit slot: 0 until sgd() or set_row() first
/// writes the row, then the row's place in append-only chunks of
/// kChunkRows rows that never move. A read of an unwritten row regenerates
/// it from its page's generator into caller storage, and a first write
/// regenerates just that row into its slot. Every read returns the values
/// a dense table initialized by the same draws would hold.
///
/// Const members never store a row or write the table, so concurrent
/// readers of a table no thread writes are race-free.
class EmbeddingTable {
 public:
  /// Rows per page: the unit of init regeneration.
  static constexpr std::size_t kPageRows = 8;
  /// Stored rows per chunk: the unit of row storage.
  static constexpr std::size_t kChunkRows = 64;

  /// Uniform init in [-1/dim, 1/dim) (DLRM-style): rows * dim draws from
  /// `rng`, row-major, so `rng` ends where a dense init would leave it.
  /// Throws Error, before any draw, for more rows than a 32-bit slot
  /// numbers or a shape no tensor::Matrix can hold.
  EmbeddingTable(std::size_t rows, std::size_t dim, util::Xoshiro256& rng);

  EmbeddingTable(const EmbeddingTable&) = delete;
  EmbeddingTable& operator=(const EmbeddingTable&) = delete;
  EmbeddingTable(EmbeddingTable&&) noexcept = default;
  EmbeddingTable& operator=(EmbeddingTable&&) noexcept = default;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dim() const noexcept { return dim_; }

  /// Rows of storage the chunks hold: the written rows plus the unused
  /// rest of the last chunk.
  std::size_t stored_rows() const noexcept;

  /// Copies row `index` into `out` (dim() floats): the stored row, or its
  /// init values regenerated from its page's generator when no write has
  /// touched the row.
  void copy_row(std::size_t index, std::span<float> out) const;

  /// Looks up `indices` and pools them. kConcat returns dim()*indices.size()
  /// values; kSum/kMean return dim() values. Empty index lists are allowed
  /// for sum/mean (result is all-zero) but not for concat.
  tensor::Vector lookup_pooled(std::span<const std::size_t> indices,
                               Pooling pooling) const;

  /// One plain SGD step for a pooled lookup of `indices`, given the
  /// gradient of the pooled output: each looked-up row, in call order,
  /// moves by row[c] -= lr * g[c], where g is grad * (1/n for mean pooling,
  /// 1 for sum) or, for concat, the row's dim()-slice of grad. A row
  /// looked up twice moves twice. `lr` must be finite and positive.
  void sgd(std::span<const std::size_t> indices, Pooling pooling,
           std::span<const float> grad, float lr);

  /// Direct row write (used by tests and synthetic setups).
  void set_row(std::size_t index, std::span<const float> values);

  /// Post-training int8 snapshot of the whole table (per-tensor symmetric):
  /// the scale and bytes of tensor::QMatrix::quantize(dense()), streamed a
  /// page at a time without the dense copy.
  tensor::QMatrix quantized() const;

  /// Full dense copy of the table, for whole-table consumers (save, index
  /// builds, tests): rows() x dim() floats at once.
  tensor::Matrix dense() const;

  /// Calls f(first_row, values) for every page in row order, where values
  /// holds the page's rows row-major (kPageRows rows, fewer on the last
  /// page) in scratch the next call overwrites. A page's unwritten rows are
  /// regenerated with one walk of its generator, so a whole-table pass
  /// draws each unwritten row's init values once.
  template <class F>
  void for_each_page(F&& f) const {
    std::vector<float> scratch(kPageRows * dim_);
    for (std::size_t p = 0; p < pages_.size(); ++p)
      f(p * kPageRows, page_values(p, scratch));
  }

 private:
  struct Page {
    util::Xoshiro256 init;  ///< the generator at the page's first init value
    float init_max;         ///< max |x| over the page's init values
  };

  /// Rows page `p` holds: kPageRows, fewer on the last page.
  std::size_t page_rows(std::size_t p) const noexcept;
  /// Whether some row of page `p` was written.
  bool page_written(std::size_t p) const noexcept;
  /// Page `p`'s current values written into `scratch` (at least
  /// page_rows(p) * dim() floats).
  std::span<const float> page_values(std::size_t p,
                                     std::span<float> scratch) const;
  /// Row `index` of storage, or nullptr while the row is unwritten.
  const float* stored_row(std::size_t index) const noexcept;
  /// Row `index` of storage, storing the row's init values first if no
  /// write touched it yet.
  float* writable_row(std::size_t index);

  std::size_t rows_;
  std::size_t dim_;
  std::vector<Page> pages_;
  /// Per row: 0 while unwritten, else 1 + the row's place in storage.
  std::vector<std::uint32_t> slots_;
  /// Stored rows, kChunkRows per chunk (the last chunk of a nearly full
  /// table holds only the rows left to store).
  std::vector<std::unique_ptr<float[]>> chunks_;
  std::size_t stored_ = 0;  ///< rows stored
};

}  // namespace imars::nn
