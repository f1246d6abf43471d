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

/// Samples from {0, ..., n-1} with P(k) proportional to 1/(k+1)^s via a
/// precomputed inverse CDF with an alias-style guide table: cell j of an
/// m-cell guide stores the first index whose CDF reaches about j/m, never
/// past the answer of any u in the cell, so a draw starts at the guide
/// entry of its u and scans forward instead of binary-searching the CDF.
/// Up to 2^16 items the guide has one cell per item (m = n) and a draw
/// crosses about one CDF step; above that it keeps one cell per 16 items
/// (kGuideStride), so the million-user load generator's guide is 0.25 MB
/// instead of 4 MB, at an expected scan of about 8 steps. Either way the
/// draw lands on the SAME index `std::lower_bound` over the CDF returns,
/// for every u in [0, 1] (at()).
class ZipfSampler {
 public:
  /// n items, exponent s >= 0 (s = 0 is uniform).
  ZipfSampler(std::size_t n, double s);

  std::size_t size() const noexcept { return cdf_.size(); }

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
  /// Items per guide cell above kDenseGuideItems items.
  static constexpr std::size_t kGuideStride = 16;
  /// Largest population with one guide cell per item.
  static constexpr std::size_t kDenseGuideItems = std::size_t{1} << 16;

  std::vector<double> cdf_;
  /// guide_[j] = min k with cdf_[k] >= t, for a t <= every u with
  /// fl(u * m) >= j.
  std::vector<std::uint32_t> guide_;
};

}  // namespace imars::data
