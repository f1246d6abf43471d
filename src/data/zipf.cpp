#include "data/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace imars::data {

namespace {

// Item k's unnormalized mass. The constructor's running sum and every tail
// recompute add exactly this expression in item order, so a recomputed sum
// is bit-equal to the one a dense CDF would have stored.
double term(std::size_t k, double s) {
  return 1.0 / std::pow(static_cast<double>(k + 1), s);
}

}  // namespace

ZipfSampler::ZipfSampler(std::size_t n, double s) : n_(n), s_(s) {
  IMARS_REQUIRE(n > 0, "ZipfSampler: n must be positive");
  IMARS_REQUIRE(s >= 0.0, "ZipfSampler: exponent must be non-negative");
  IMARS_REQUIRE(n <= 0xffffffffULL, "ZipfSampler: population exceeds 2^32");
  // One pass of running sums: the head keeps every sum, the tail only the
  // sum before each kGuideStride-item cell, then the total. No buffer of n
  // sums is ever held. The last item's sum is the total itself, so its CDF
  // is total / total: exactly 1.0.
  const std::size_t h = std::min(n, kDenseGuideItems);
  head_.resize(h);
  double total = 0.0;
  for (std::size_t k = 0; k < h; ++k) {
    total += term(k, s);
    head_[k] = total;
  }
  if (n > h) {
    checkpoint_.reserve((n - h + kGuideStride - 1) / kGuideStride + 1);
    for (std::size_t k = h; k < n; ++k) {
      if ((k - h) % kGuideStride == 0) checkpoint_.push_back(total);
      total += term(k, s);
    }
    checkpoint_.push_back(total);
  }
  total_ = total;
  for (auto& c : head_) c /= total;

  // Guide table: m cells, cell j holding lower_bound's answer for a t no
  // larger than any u that at() maps to cell j (those have fl(u * m) >= j),
  // so a draw's answer is at or past its cell's entry. t starts at the
  // rounded j/m, which can map to cell j from above the cell's first u,
  // and steps down one ulp while the next lower double still maps to cell
  // j or above (fl(u * m) is monotone in u). One merge pass over the head
  // CDF, then over the tail cells' end CDFs (O(n / kGuideStride) in the
  // tail), fills the cells; an answer in the tail is rounded down to its
  // cell's first item.
  const std::size_t m =
      n <= kDenseGuideItems ? n : (n + kGuideStride - 1) / kGuideStride;
  guide_.resize(m);
  std::size_t k = 0;
  const double md = static_cast<double>(m);
  const double inv_m = 1.0 / md;
  for (std::size_t j = 0; j < m; ++j) {
    const double jd = static_cast<double>(j);
    double t = jd * inv_m;
    while (t > 0.0 && std::nextafter(t, 0.0) * md >= jd)
      t = std::nextafter(t, 0.0);
    while (k < h && head_[k] < t) ++k;
    if (k >= h)
      while (cell_end((k - h) / kGuideStride) < t) k += kGuideStride;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

double ZipfSampler::sum_before(std::size_t k) const noexcept {
  const std::size_t h = head_.size();
  const std::size_t c = (k - h) / kGuideStride;
  double sum = checkpoint_[c];
  for (std::size_t i = h + c * kGuideStride; i < k; ++i) sum += term(i, s_);
  return sum;
}

std::size_t ZipfSampler::at(double u) const {
  IMARS_REQUIRE(u >= 0.0 && u <= 1.0, "ZipfSampler::at: u must be in [0, 1]");
  // Start at the guide cell covering u, whose entry is at or before u's
  // answer, and scan forward to the first CDF value that reaches u:
  // lower_bound's answer. Without a tail the head's last value, 1.0,
  // bounds the scan.
  const std::size_t m = guide_.size();
  const std::size_t j =
      std::min(static_cast<std::size_t>(u * static_cast<double>(m)), m - 1);
  std::size_t k = guide_[j];
  const std::size_t h = head_.size();
  while (k < h && head_[k] < u) ++k;
  return k < h ? k : tail_at(k, u);
}

std::size_t ZipfSampler::tail_at(std::size_t k, double u) const {
  // Skip the cells that end below u (the last one ends at 1.0), then
  // recompute the running sums of the cell holding the answer. Its last
  // item needs none: its CDF is the cell's end, which reaches u.
  const std::size_t h = head_.size();
  std::size_t c = (k - h) / kGuideStride;
  while (cell_end(c) < u) ++c;
  std::size_t i = h + c * kGuideStride;
  const std::size_t last = std::min(i + kGuideStride, n_) - 1;
  double sum = checkpoint_[c];
  for (; i < last; ++i) {
    sum += term(i, s_);
    if (sum / total_ >= u) return i;
  }
  return last;
}

double ZipfSampler::cdf(std::size_t k) const {
  IMARS_REQUIRE(k < n_, "ZipfSampler::cdf: index out of range");
  if (k < head_.size()) return head_[k];
  return (sum_before(k) + term(k, s_)) / total_;
}

double ZipfSampler::pmf(std::size_t k) const {
  IMARS_REQUIRE(k < n_, "ZipfSampler::pmf: index out of range");
  if (k < head_.size()) return k == 0 ? head_[0] : head_[k] - head_[k - 1];
  // cdf(k) - cdf(k - 1) from one walk: the sum before k is k - 1's sum.
  const double before = sum_before(k);
  return (before + term(k, s_)) / total_ - before / total_;
}

}  // namespace imars::data
