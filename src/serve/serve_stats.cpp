#include "serve/serve_stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace imars::serve {

namespace {

/// Percentile over a possibly-empty sample: 0.0 when empty. For n >= 1 the
/// interpolated rank p/100 * (n-1) stays inside [0, n-1], so the
/// percentile never indexes past the sample and n = 1 yields the sample
/// itself for every p (pinned by the serving test suite). Selection-based
/// (util::percentile_select): O(n) instead of the former copy + full sort,
/// bit-identical values — the sample is taken by value because selection
/// reorders it, and every caller hands over a freshly built vector anyway.
double percentile_or_zero(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  return util::percentile_select(xs, p);
}

}  // namespace

void StreamingAggregates::note(std::size_t cls, double latency_ns,
                               double energy_pj, double device_ns) {
  ++queries;
  energy_pj_sum += energy_pj;
  latency.record(latency_ns);
  if (cls >= class_latency.size()) {
    class_latency.resize(cls + 1, StreamingHistogram(rel_err));
    class_queries.resize(cls + 1, 0);
    class_device_ns.resize(cls + 1, 0.0);
  }
  class_latency[cls].record(latency_ns);
  ++class_queries[cls];
  class_device_ns[cls] += device_ns;
}

std::vector<double> ServeReport::latencies_ns() const {
  IMARS_REQUIRE(!streaming.enabled,
                "ServeReport::latencies_ns: streaming mode retains no "
                "per-query sample");
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back((q.complete - q.enqueue).value);
  return out;
}

double ServeReport::mean_latency_ns() const {
  if (streaming.enabled) return streaming.latency.mean();
  if (queries.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& q : queries) sum += (q.complete - q.enqueue).value;
  return sum / static_cast<double>(queries.size());
}

double ServeReport::p50_latency_ns() const {
  if (streaming.enabled) return streaming.latency.percentile(50.0);
  return percentile_or_zero(latencies_ns(), 50.0);
}
double ServeReport::p95_latency_ns() const {
  if (streaming.enabled) return streaming.latency.percentile(95.0);
  return percentile_or_zero(latencies_ns(), 95.0);
}
double ServeReport::p99_latency_ns() const {
  if (streaming.enabled) return streaming.latency.percentile(99.0);
  return percentile_or_zero(latencies_ns(), 99.0);
}

double ServeReport::qps() const {
  if (size() == 0 || makespan.value <= 0.0) return 0.0;
  return static_cast<double>(size()) / makespan.seconds();
}

double ServeReport::mean_batch_size() const {
  if (batches == 0) return 0.0;
  return static_cast<double>(size()) / static_cast<double>(batches);
}

double ServeReport::mean_energy_pj() const {
  if (streaming.enabled)
    return streaming.queries == 0
               ? 0.0
               : streaming.energy_pj_sum /
                     static_cast<double>(streaming.queries);
  if (queries.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& q : queries) sum += q.energy.value;
  return sum / static_cast<double>(queries.size());
}

double ServeReport::rank_utilization(std::size_t s) const {
  IMARS_REQUIRE(s < shards.size(), "ServeReport: shard out of range");
  if (makespan.value <= 0.0) return 0.0;
  return shards[s].last_stage_busy().value / makespan.value;
}

double ServeReport::stage_utilization(std::size_t s,
                                      std::string_view stage) const {
  IMARS_REQUIRE(s < shards.size(), "ServeReport: shard out of range");
  const auto it = std::find(stage_names.begin(), stage_names.end(), stage);
  IMARS_REQUIRE(it != stage_names.end(),
                "ServeReport: unknown stage '" + std::string(stage) + "'");
  if (makespan.value <= 0.0) return 0.0;
  const auto idx = static_cast<std::size_t>(it - stage_names.begin());
  IMARS_REQUIRE(idx < shards[s].stage_busy.size(),
                "ServeReport: stage outside the shard's stage layout");
  return shards[s].stage_busy[idx].value / makespan.value;
}

std::vector<double> ServeReport::class_latencies_ns(std::size_t cls) const {
  IMARS_REQUIRE(!streaming.enabled,
                "ServeReport::class_latencies_ns: streaming mode retains "
                "no per-query sample");
  std::vector<double> out;
  for (const auto& q : queries)
    if (q.qos_class == cls) out.push_back((q.complete - q.enqueue).value);
  return out;
}

namespace {

/// The class histogram of a streaming report, or nullptr when the label
/// never appeared (its views then report the pinned empty-set 0.0).
const StreamingHistogram* class_hist(const StreamingAggregates& s,
                                     std::size_t cls) {
  return cls < s.class_latency.size() ? &s.class_latency[cls] : nullptr;
}

}  // namespace

double ServeReport::class_p50_latency_ns(std::size_t cls) const {
  if (streaming.enabled) {
    const auto* h = class_hist(streaming, cls);
    return h == nullptr ? 0.0 : h->percentile(50.0);
  }
  return percentile_or_zero(class_latencies_ns(cls), 50.0);
}
double ServeReport::class_p99_latency_ns(std::size_t cls) const {
  if (streaming.enabled) {
    const auto* h = class_hist(streaming, cls);
    return h == nullptr ? 0.0 : h->percentile(99.0);
  }
  return percentile_or_zero(class_latencies_ns(cls), 99.0);
}

double ServeReport::device_share(std::size_t cls, device::Ns cutoff) const {
  if (streaming.enabled) {
    IMARS_REQUIRE(cutoff.value ==
                      std::numeric_limits<double>::infinity(),
                  "ServeReport::device_share: streaming mode retains no "
                  "per-query completions; finite cutoffs need record mode");
    double total = 0.0;
    for (double d : streaming.class_device_ns) total += d;
    const double mine =
        cls < streaming.class_device_ns.size()
            ? streaming.class_device_ns[cls]
            : 0.0;
    return total > 0.0 ? mine / total : 0.0;
  }
  double total = 0.0, mine = 0.0;
  for (const auto& q : queries) {
    if (q.complete.value > cutoff.value) continue;
    total += q.device_time.value;
    if (q.qos_class == cls) mine += q.device_time.value;
  }
  return total > 0.0 ? mine / total : 0.0;
}

double ServeReport::fairness_error(device::Ns cutoff) const {
  if (classes.size() < 2) return 0.0;
  double weight_sum = 0.0;
  for (const auto& c : classes) weight_sum += c.weight;
  if (weight_sum <= 0.0) return 0.0;
  double worst = 0.0;
  for (std::size_t cls = 0; cls < classes.size(); ++cls) {
    if (classes[cls].weight <= 0.0) continue;  // scavengers have no target
    const double target = classes[cls].weight / weight_sum;
    worst = std::max(worst, std::abs(device_share(cls, cutoff) - target));
  }
  return worst;
}

}  // namespace imars::serve
