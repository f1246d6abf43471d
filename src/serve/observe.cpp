#include "serve/observe.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace imars::serve {

StreamingHistogram::StreamingHistogram(double rel_err) : rel_err_(rel_err) {
  IMARS_REQUIRE(rel_err > 0.0 && rel_err < 1.0,
                "StreamingHistogram: rel_err must be in (0, 1)");
  IMARS_REQUIRE(rel_err >= kMinRelErr,
                "StreamingHistogram: rel_err below 1e-6 overflows the int32 "
                "bucket index");
  base_ = (1.0 + rel_err) * (1.0 + rel_err);
  log_base_ = std::log(base_);
}

void StreamingHistogram::record(double x) {
  // A NaN or infinite sample has no bucket (its index cast would be
  // undefined) and would turn sum() and mean() into NaN or infinity.
  IMARS_REQUIRE(std::isfinite(x),
                "StreamingHistogram::record: value must be finite");
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  if (x <= 0.0) {
    ++zero_;
    return;
  }
  const auto idx =
      static_cast<std::int32_t>(std::floor(std::log(x) / log_base_));
  Page& page = page_of(idx);
  std::uint64_t& cnt = page.counts[static_cast<std::size_t>(idx - page.first)];
  if (cnt == 0) ++buckets_;
  ++cnt;
}

StreamingHistogram::Page& StreamingHistogram::page_of(std::int32_t idx) {
  // kPageBuckets is a power of two, so masking rounds toward -infinity
  // and a negative index lands on its page too.
  const std::int32_t first = idx & -kPageBuckets;
  auto it = std::lower_bound(
      pages_.begin(), pages_.end(), first,
      [](const Page& p, std::int32_t f) { return p.first < f; });
  if (it == pages_.end() || it->first != first)
    it = pages_.insert(it,
                       Page{first, std::vector<std::uint64_t>(kPageBuckets)});
  return *it;
}

double StreamingHistogram::value_at(std::size_t i) const {
  // The first and last order statistics are tracked exactly, which makes
  // n = 1 and n = 2 exact for every p — the tiny-n behavior a QoS class
  // with little traffic relies on (pinned against ServeReport in the tests).
  if (i == 0) return min_;
  if (i + 1 >= n_) return max_;
  std::uint64_t cum = zero_;
  if (i < cum) return std::clamp(0.0, min_, max_);
  // Bucket indices ascend with sample value, so the i-th order statistic
  // lies in the first bucket whose cumulative count exceeds i; its
  // geometric-mean representative is within rel_err of every sample in the
  // bucket.
  for (const Page& page : pages_) {
    for (std::int32_t j = 0; j < kPageBuckets; ++j) {
      cum += page.counts[static_cast<std::size_t>(j)];
      if (i < cum)
        return std::clamp(
            std::pow(base_, static_cast<double>(page.first + j) + 0.5), min_,
            max_);
    }
  }
  return max_;
}

double StreamingHistogram::percentile(double p) const {
  IMARS_REQUIRE(!std::isnan(p),
                "StreamingHistogram::percentile: p must not be NaN");
  if (n_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // util::percentile semantics: rank = p/100 * (n-1), linear interpolation
  // between the neighboring order statistics.
  const double rank = p / 100.0 * static_cast<double>(n_ - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const double a = value_at(lo);
  if (frac == 0.0 || lo + 1 >= n_) return a;
  return a + frac * (value_at(lo + 1) - a);
}

void StreamingHistogram::merge(const StreamingHistogram& other) {
  IMARS_REQUIRE(rel_err_ == other.rel_err_,
                "StreamingHistogram::merge: rel_err mismatch");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  n_ += other.n_;
  sum_ += other.sum_;
  zero_ += other.zero_;
  // page_of() inserts only pages this histogram lacks, so a self-merge,
  // which lacks none, never moves the directory it walks.
  for (const Page& from : other.pages_) {
    Page& page = page_of(from.first);
    for (std::size_t j = 0; j < from.counts.size(); ++j) {
      if (from.counts[j] == 0) continue;
      if (page.counts[j] == 0) ++buckets_;
      page.counts[j] += from.counts[j];
    }
  }
}

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    gauges_.emplace(std::string(name), value);
  else
    it->second = value;
}

StreamingHistogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), StreamingHistogram()).first;
  return it->second;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void HostProfiler::enable(ObserverSink* sink) {
  sink_ = sink;
  collecting_ = true;
  epoch_ = std::chrono::steady_clock::now();
  totals_.clear();
}

void HostProfiler::finish(std::string_view name,
                          std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  const double start_us =
      std::chrono::duration<double, std::micro>(start - epoch_).count();
  const double dur_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  auto it = totals_.find(name);
  if (it == totals_.end())
    totals_.emplace(std::string(name), dur_us);
  else
    it->second += dur_us;
  if (sink_ != nullptr) sink_->on_host_span(name, start_us, dur_us);
}

}  // namespace imars::serve
