// Trainable embedding table with lookup + pooling.
//
// This is the *algorithmic* embedding table used for model training and for
// the CPU/GPU baselines. The in-memory (hardware) incarnation lives in
// core::ImarsAccelerator, which loads a quantized snapshot of these tables
// into CMA banks (Sec III-B). A training step updates the looked-up rows in
// place (sgd()); nothing is buffered between steps.
#pragma once

#include <cstddef>
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

/// rows x dim trainable embedding table, stored in pages of kPageRows rows.
///
/// A trained model touches few rows of a large table (training Criteo's
/// 287,398-row tables on 4,000 samples writes ~7% of them), and every other
/// row keeps its random init value, which is a pure function of the init
/// stream. So a page holds no floats until sgd() or set_row() first writes
/// one of its rows; it keeps a copy of the generator at its first init
/// value (32 B) and its init values' max |x| (4 B). A read of a row on an
/// unwritten page regenerates the row from that copy into caller storage,
/// and a first write fills the whole page from it. Every read returns the
/// values a dense table initialized by the same draws would hold.
///
/// Const members never store a page or write the table, so concurrent
/// readers of a table no thread writes are race-free.
class EmbeddingTable {
 public:
  /// Rows per page: the unit of storage and of init regeneration.
  static constexpr std::size_t kPageRows = 8;

  /// Uniform init in [-1/dim, 1/dim) (DLRM-style): rows * dim draws from
  /// `rng`, row-major, so `rng` ends where a dense init would leave it.
  /// Throws Error, before any draw, for a shape no tensor::Matrix can hold.
  EmbeddingTable(std::size_t rows, std::size_t dim, util::Xoshiro256& rng);

  EmbeddingTable(const EmbeddingTable& other);
  EmbeddingTable& operator=(const EmbeddingTable&) = delete;
  EmbeddingTable(EmbeddingTable&&) noexcept = default;
  EmbeddingTable& operator=(EmbeddingTable&&) noexcept = default;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dim() const noexcept { return dim_; }

  /// Copies row `index` into `out` (dim() floats): the stored row, or its
  /// init values regenerated from its page's generator when no write has
  /// touched the page.
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
  /// looked up twice moves twice. `lr` must be finite and positive, and
  /// grad must not overlap a row the step moves.
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
  /// page). An unwritten page is regenerated with one walk of its
  /// generator, so a whole-table pass draws each init value once.
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
    std::unique_ptr<float[]> values;  ///< nullptr until a row is written
  };

  /// Floats page `p` holds: kPageRows rows, fewer on the last page.
  std::size_t page_floats(std::size_t p) const noexcept;
  /// Page `p`'s stored values, or its init values regenerated into
  /// `scratch` (at least page_floats(p) floats).
  std::span<const float> page_values(std::size_t p,
                                     std::span<float> scratch) const;
  /// Row `index` of storage, or nullptr while its page is unwritten.
  const float* stored_row(std::size_t index) const noexcept;
  /// Row `index` of storage, filling its page from the init stream first
  /// if no row of the page was written yet.
  float* writable_row(std::size_t index);

  std::size_t rows_;
  std::size_t dim_;
  std::vector<Page> pages_;
};

}  // namespace imars::nn
