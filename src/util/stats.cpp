#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace imars::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double percentile(std::span<const double> values, double p) {
  IMARS_REQUIRE(!values.empty(), "percentile of empty span");
  IMARS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile_select(std::span<double> values, double p) {
  IMARS_REQUIRE(!values.empty(), "percentile of empty span");
  IMARS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), nth, values.end());
  const double v_lo = *nth;
  // hi is lo or lo + 1; after nth_element everything past `nth` is >= v_lo,
  // so the (lo+1)-th order statistic is the minimum of the tail — the same
  // value the sorted copy holds at index hi.
  const double v_hi = hi == lo
                          ? v_lo
                          : *std::min_element(nth + 1, values.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  IMARS_REQUIRE(xs.size() == ys.size(), "pearson: size mismatch");
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(n);
  const double my = std::accumulate(ys.begin(), ys.end(), 0.0) / static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {
std::vector<double> ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> rank(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = avg;
    i = j + 1;
  }
  return rank;
}
}  // namespace

double spearman(std::span<const double> xs, std::span<const double> ys) {
  IMARS_REQUIRE(xs.size() == ys.size(), "spearman: size mismatch");
  const auto rx = ranks(xs);
  const auto ry = ranks(ys);
  return pearson(rx, ry);
}

double auc(std::span<const int> labels, std::span<const double> scores) {
  IMARS_REQUIRE(labels.size() == scores.size(), "auc: size mismatch");
  const auto r = ranks(scores);
  double pos_rank_sum = 0.0;
  std::size_t npos = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] != 0) {
      pos_rank_sum += r[i];
      ++npos;
    }
  }
  const std::size_t nneg = labels.size() - npos;
  if (npos == 0 || nneg == 0) return 0.5;
  // Mann–Whitney U statistic normalized to [0,1].
  const double u = pos_rank_sum - static_cast<double>(npos) *
                                      (static_cast<double>(npos) + 1.0) / 2.0;
  return u / (static_cast<double>(npos) * static_cast<double>(nneg));
}

}  // namespace imars::util
