#include "data/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace imars::data {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  IMARS_REQUIRE(n > 0, "ZipfSampler: n must be positive");
  IMARS_REQUIRE(s >= 0.0, "ZipfSampler: exponent must be non-negative");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding

  // Guide table: m cells, cell j holding lower_bound's answer for a t no
  // larger than any u that at() maps to cell j (those have fl(u * m) >= j),
  // so a draw's answer is at or past its cell's entry. t starts at the
  // rounded j/m, which can map to cell j from above the cell's first u,
  // and steps down one ulp while the next lower double still maps to cell
  // j or above (fl(u * m) is monotone in u). One merge pass over the CDF
  // (O(n)) fills the cells.
  IMARS_REQUIRE(n <= 0xffffffffULL, "ZipfSampler: population exceeds 2^32");
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
    while (cdf_[k] < t) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

std::size_t ZipfSampler::at(double u) const {
  IMARS_REQUIRE(u >= 0.0 && u <= 1.0, "ZipfSampler::at: u must be in [0, 1]");
  // Start at the guide cell covering u, whose entry is at or before u's
  // answer, and scan forward to the first CDF value that reaches u:
  // lower_bound's answer (cdf_.back() == 1.0 >= u bounds the scan).
  const std::size_t m = guide_.size();
  const std::size_t j =
      std::min(static_cast<std::size_t>(u * static_cast<double>(m)), m - 1);
  std::size_t k = guide_[j];
  while (cdf_[k] < u) ++k;
  return k;
}

double ZipfSampler::cdf(std::size_t k) const {
  IMARS_REQUIRE(k < cdf_.size(), "ZipfSampler::cdf: index out of range");
  return cdf_[k];
}

double ZipfSampler::pmf(std::size_t k) const {
  IMARS_REQUIRE(k < cdf_.size(), "ZipfSampler::pmf: index out of range");
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace imars::data
