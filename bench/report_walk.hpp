// One definition of what a ServeReport simulated: visit_report walks every
// simulated field in a fixed order, and every report-equality check in the
// repository compares two walks — the serving tests' bit-identical
// comparator and golden digests (tests/serve_test_util.hpp) and the
// benches' parity gates (reports_equal below). Bit-identical means equal
// bits: every timestamp, latency, energy and score compares by
// representation, not within a tolerance — the engine's determinism
// contract is that scheduling mode never changes accounting, not that it
// stays "close". The one field left out is ServeReport::host_span_us: host
// wall-clock describes how the simulator ran, not what it simulated.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/serve_stats.hpp"

namespace imars::bench {

/// Sections of the report walk, in walk order; a digest keeps one hash per
/// section so a golden mismatch names the first section that moved.
///   counts  — run totals: queries, batches, updates, flush bytes,
///             makespan, update cost, summed stage stats and the stage
///             names;
///   cache   — every CacheStats counter;
///   clocks  — per-shard stage and write busy time, per-class records;
///   queries — per-query records (streaming aggregates in streaming mode).
inline constexpr std::array<std::string_view, 4> kSectionNames = {
    "counts", "cache", "clocks", "queries"};
inline constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/// One simulated field of a report: where it sits and its exact bits.
struct ReportField {
  std::size_t section = 0;     ///< index into kSectionNames
  const char* name = "";
  std::size_t at = kNoIndex;   ///< record index (query, shard, class, stage)
  std::size_t sub = kNoIndex;  ///< position inside it (stage, op, rank)
  bool real = false;           ///< `bits` holds a double
  std::uint64_t bits = 0;
};

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over the eight little-endian bytes of `v`.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Calls `emit(ReportField)` for every simulated field of `r`, in a fixed
/// order. Every length precedes the elements it counts, so two reports
/// agree on the walk's shape up to their first differing field.
template <class Emit>
void visit_report(const serve::ServeReport& r, Emit&& emit) {
  std::size_t section = 0;
  const auto count = [&](const char* name, std::uint64_t v,
                         std::size_t at = kNoIndex,
                         std::size_t sub = kNoIndex) {
    emit(ReportField{section, name, at, sub, false, v});
  };
  const auto real = [&](const char* name, double v, std::size_t at = kNoIndex,
                        std::size_t sub = kNoIndex) {
    emit(ReportField{section, name, at, sub, true,
                     std::bit_cast<std::uint64_t>(v)});
  };
  const auto stats = [&](const char* latency, const char* energy,
                         const recsys::StageStats& s) {
    for (std::size_t op = 0; op < s.ops.size(); ++op) {
      real(latency, s.ops[op].latency.value, kNoIndex, op);
      real(energy, s.ops[op].energy.value, kNoIndex, op);
    }
  };
  // A histogram's public view, `sub` = 0..7: count, sum, min, max, bucket
  // count, p50, p95, p99.
  const auto histogram = [&](const char* name,
                             const serve::StreamingHistogram& h,
                             std::size_t at = kNoIndex) {
    count(name, h.count(), at, 0);
    real(name, h.sum(), at, 1);
    real(name, h.min(), at, 2);
    real(name, h.max(), at, 3);
    count(name, h.bucket_count(), at, 4);
    real(name, h.percentile(50.0), at, 5);
    real(name, h.percentile(95.0), at, 6);
    real(name, h.percentile(99.0), at, 7);
  };

  section = 0;  // counts
  count("queries", r.size());
  count("batches", r.batches);
  count("updates", r.updates);
  count("flush_bytes", r.flush_bytes);
  real("makespan", r.makespan.value);
  real("update_cost.latency", r.update_cost.latency.value);
  real("update_cost.energy", r.update_cost.energy.value);
  stats("filter_stats.latency", "filter_stats.energy", r.filter_stats);
  stats("rank_stats.latency", "rank_stats.energy", r.rank_stats);
  count("stage_names.size", r.stage_names.size());
  for (std::size_t j = 0; j < r.stage_names.size(); ++j)
    count("stage_names.fnv", fnv1a(r.stage_names[j]), j);

  section = 1;  // cache
  const serve::CacheStats& c = r.cache;
  count("hits", c.hits);
  count("misses", c.misses);
  count("update_hits", c.update_hits);
  count("update_misses", c.update_misses);
  count("flushes", c.flushes);
  count("warm_hits", c.warm_hits);
  count("cold_faults", c.cold_faults);
  count("cold_rows_fetched", c.cold_rows_fetched);
  count("warm_evictions", c.warm_evictions);
  count("promotions", c.promotions);
  count("flushes_warm", c.flushes_warm);
  count("flushes_cold", c.flushes_cold);

  section = 2;  // clocks
  count("shards.size", r.shards.size());
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    const auto& busy = r.shards[s].stage_busy;
    count("stage_busy.size", busy.size(), s);
    for (std::size_t st = 0; st < busy.size(); ++st)
      real("stage_busy", busy[st].value, s, st);
    real("write_busy", r.shards[s].write_busy.value, s);
  }
  count("classes.size", r.classes.size());
  for (std::size_t k = 0; k < r.classes.size(); ++k) {
    const serve::ClassReport& cr = r.classes[k];
    count("class.name.fnv", fnv1a(cr.name), k);
    real("class.weight", cr.weight, k);
    real("class.deadline", cr.deadline.value, k);
    count("class.queries", cr.queries, k);
    count("class.batches", cr.batches, k);
    count("class.slo_violations", cr.slo_violations, k);
    real("class.device_time", cr.device_time.value, k);
  }

  section = 3;  // queries
  const serve::StreamingAggregates& sa = r.streaming;
  count("streaming.enabled", sa.enabled ? 1 : 0);
  if (sa.enabled) {
    real("streaming.rel_err", sa.rel_err);
    count("streaming.queries", sa.queries);
    real("streaming.energy_pj_sum", sa.energy_pj_sum);
    histogram("streaming.latency", sa.latency);
    count("streaming.classes", sa.class_latency.size());
    for (std::size_t k = 0; k < sa.class_latency.size(); ++k)
      histogram("streaming.class_latency", sa.class_latency[k], k);
    count("streaming.class_queries.size", sa.class_queries.size());
    for (std::size_t k = 0; k < sa.class_queries.size(); ++k)
      count("streaming.class_queries", sa.class_queries[k], k);
    count("streaming.class_device_ns.size", sa.class_device_ns.size());
    for (std::size_t k = 0; k < sa.class_device_ns.size(); ++k)
      real("streaming.class_device_ns", sa.class_device_ns[k], k);
  }
  count("records", r.queries.size());
  for (std::size_t i = 0; i < r.queries.size(); ++i) {
    const serve::ServedQuery& q = r.queries[i];
    count("id", q.id, i);
    count("user", q.user, i);
    count("client", q.client, i);
    count("qos_class", q.qos_class, i);
    count("batch", q.batch, i);
    count("batch_size", q.batch_size, i);
    count("home_shard", q.home_shard, i);
    count("candidates", q.candidates, i);
    real("enqueue", q.enqueue.value, i);
    real("dispatch", q.dispatch.value, i);
    real("complete", q.complete.value, i);
    real("filter_latency", q.filter_latency.value, i);
    real("rank_latency", q.rank_latency.value, i);
    real("device_time", q.device_time.value, i);
    real("energy", q.energy.value, i);
    count("topk.size", q.topk.size(), i);
    for (std::size_t j = 0; j < q.topk.size(); ++j) {
      count("topk.item", q.topk[j].item, i, j);
      real("topk.score", static_cast<double>(q.topk[j].score), i, j);
    }
  }
}

/// Every simulated field of `r`, in walk order.
inline std::vector<ReportField> report_fields(const serve::ServeReport& r) {
  std::vector<ReportField> out;
  visit_report(r, [&](const ReportField& f) { out.push_back(f); });
  return out;
}

/// "section.name[at][sub]" of a field, for failure messages.
inline std::string field_path(const ReportField& f) {
  std::string s = std::string(kSectionNames[f.section]) + "." + f.name;
  if (f.at != kNoIndex) s += "[" + std::to_string(f.at) + "]";
  if (f.sub != kNoIndex) s += "[" + std::to_string(f.sub) + "]";
  return s;
}

/// A field's value as text: doubles at full precision, counts in decimal.
inline std::string field_value(const ReportField& f) {
  if (!f.real) return std::to_string(f.bits);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::bit_cast<double>(f.bits));
  return buf;
}

/// The first field at which the walks of `a` and `b` differ, as
/// "path: value vs value", or nullopt when the reports are bit-identical.
/// Only the first difference is named: every later field of the walk may
/// just be its consequence.
inline std::optional<std::string> first_difference(
    const serve::ServeReport& a, const serve::ServeReport& b) {
  const std::vector<ReportField> fa = report_fields(a);
  const std::vector<ReportField> fb = report_fields(b);
  // Lengths are fields too, so the walks agree in shape up to the first
  // difference and one index walks both.
  const std::size_t n = std::min(fa.size(), fb.size());
  for (std::size_t i = 0; i < n; ++i)
    if (fa[i].bits != fb[i].bits)
      return field_path(fa[i]) + ": " + field_value(fa[i]) + " vs " +
             field_value(fb[i]);
  if (fa.size() != fb.size())
    return "report walks differ in length: " + std::to_string(fa.size()) +
           " vs " + std::to_string(fb.size()) + " fields";
  return std::nullopt;
}

/// Whether `a` and `b` are bit-identical over every simulated field; a
/// mismatch names its first differing field on stderr under `label`.
inline bool reports_equal(const serve::ServeReport& a,
                          const serve::ServeReport& b,
                          const std::string& label) {
  const std::optional<std::string> diff = first_difference(a, b);
  if (diff)
    std::cerr << "[parity] MISMATCH in " << label << ": " << *diff << "\n";
  return !diff;
}

}  // namespace imars::bench
