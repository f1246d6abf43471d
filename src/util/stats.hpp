// Small statistics helpers used by benches and the accuracy experiments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace imars::util {

/// Streaming mean/min/max accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation; `p` in [0, 100]. Copies + sorts.
double percentile(std::span<const double> values, double p);

/// Same interpolated percentile (`rank = p/100 * (n-1)`, tiny-n semantics
/// included) computed with `nth_element` selection instead of a full sort:
/// O(n) per call, and callers that already hold a scratch copy skip the
/// per-call allocation entirely. Partially reorders `values`. Returns
/// bit-identical results to `percentile` for every input — selection picks
/// the same order statistics the sort would.
double percentile_select(std::span<double> values, double p);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Spearman rank correlation (ties get average rank).
double spearman(std::span<const double> xs, std::span<const double> ys);

/// Area under the ROC curve for binary labels and scores. Labels must
/// contain at least one positive and one negative; otherwise returns 0.5.
double auc(std::span<const int> labels, std::span<const double> scores);

}  // namespace imars::util
