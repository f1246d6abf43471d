// Zipf-distributed integer sampler.
//
// Real recommendation traffic is heavily skewed: a few popular items receive
// most interactions. Both synthetic generators use a Zipf(s) popularity
// distribution, which also reproduces the cache-unfriendly ET access pattern
// that makes GPU embedding lookups bandwidth-bound (Sec I).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace imars::data {

/// Samples from {0, ..., n-1} with P(k) proportional to 1/(k+1)^s via an
/// inverse CDF with an alias-style guide table: cell j of an m-cell guide
/// stores an index at or before the first one whose CDF reaches the
/// smallest u in [j/m, (j+1)/m), so a draw starts at the guide entry of its
/// u and scans forward instead of binary-searching the CDF.
///
/// Layout. The CDF is dense for the first 2^16 items (kDenseGuideItems),
/// and up to there the guide has one cell per item (m = n), so a draw
/// crosses about one CDF step. Past 2^16 items the guide keeps one cell per
/// 16 items (kGuideStride), and the CDF is not stored: the tail keeps one
/// unnormalized running-sum checkpoint per 16-item cell and recomputes a
/// cell's values on demand with the constructor's own additions, divided by
/// the same total. Tail guide entries are cell starts. The million-user
/// load generator's sampler thus holds 0.5 MB of head CDF, 0.47 MB of
/// checkpoints and a 0.25 MB guide instead of 8 MB of CDF, and a tail draw
/// skips whole cells by their end CDF, then recomputes at most 15 terms of
/// the cell that holds its answer. Every value is bit-equal to the dense
/// CDF's, so a draw lands on the SAME index `std::lower_bound` over the
/// CDF returns, for every u in [0, 1] (at()).
class ZipfSampler {
 public:
  /// n items, exponent s >= 0 (s = 0 is uniform).
  ZipfSampler(std::size_t n, double s);

  std::size_t size() const noexcept { return n_; }

  /// Draws one index: at(rng.uniform()).
  std::size_t sample(util::Xoshiro256& rng) const {
    return at(rng.uniform());
  }

  /// The index a draw of `u` in [0, 1] yields: the first k with
  /// cdf(k) >= u, exactly what `std::lower_bound` over the CDF returns.
  std::size_t at(double u) const;

  /// Cumulative probability of the indices 0..k.
  double cdf(std::size_t k) const;

  /// Probability mass of index k.
  double pmf(std::size_t k) const;

 private:
  /// Items per guide cell, and per checkpoint, above kDenseGuideItems items.
  static constexpr std::size_t kGuideStride = 16;
  /// Largest population with one guide cell per item, and the length of
  /// the dense CDF head.
  static constexpr std::size_t kDenseGuideItems = std::size_t{1} << 16;

  /// at(u) for an answer in the tail, from k: a tail cell's first item at
  /// or before the answer. Kept out of line, so a draw that ends in the
  /// head pays no stack frame for the tail's recompute.
  [[gnu::noinline]] std::size_t tail_at(std::size_t k, double u) const;
  /// Unnormalized running sum through item k - 1, for a tail item k:
  /// recomputed from the checkpoint of k's cell.
  double sum_before(std::size_t k) const noexcept;
  /// CDF of the last item of tail cell c (1.0 for the last cell).
  double cell_end(std::size_t c) const noexcept {
    return checkpoint_[c + 1] / total_;
  }

  std::size_t n_ = 0;
  double s_ = 0.0;
  /// Sum of every item's term: the constructor's last running sum.
  double total_ = 0.0;
  /// Normalized CDF of items 0 .. min(n, kDenseGuideItems) - 1.
  std::vector<double> head_;
  /// checkpoint_[c] = running sum before tail cell c, the one after the
  /// last cell is total_ (empty up to kDenseGuideItems items).
  std::vector<double> checkpoint_;
  /// guide_[j] = min k with cdf(k) >= t, for a t <= every u with
  /// fl(u * m) >= j, rounded down to its cell's first item in the tail.
  std::vector<std::uint32_t> guide_;
};

}  // namespace imars::data
