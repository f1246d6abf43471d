// Shared helpers for the serving test suites, over the report walk of
// bench/report_walk.hpp (the one definition of what a ServeReport
// simulated, which the benches' parity gates use too):
//   * expect_reports_identical — the "same seed => bit-identical report"
//     comparator that determinism tests assert (overlap on/off, seed
//     replays, QoS grids, observers attached or not).
//   * report_digest — the FNV-1a digest the golden tests pin
//     (expect_golden compares one against a committed GoldenRow).
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "report_walk.hpp"
#include "serve/serve_stats.hpp"

namespace imars::serve_test {

/// Per-section FNV-1a digest of a report's simulated fields.
struct ReportDigest {
  std::array<std::uint64_t, bench::kSectionNames.size()> sections{};
};

inline ReportDigest report_digest(const serve::ServeReport& r) {
  ReportDigest d;
  d.sections.fill(bench::kFnvOffset);
  bench::visit_report(r, [&](const bench::ReportField& f) {
    d.sections[f.section] = bench::fnv1a(d.sections[f.section], f.bits);
  });
  return d;
}

/// A committed golden row: a cell name and its report's digest.
struct GoldenRow {
  std::string_view cell;
  ReportDigest digest;
};

/// `d` as a golden row, paste-ready: {"cell", {{0x...ULL, ...}}},
inline std::string golden_row(std::string_view cell, const ReportDigest& d) {
  std::string row = "{\"" + std::string(cell) + "\", {{";
  for (std::size_t s = 0; s < d.sections.size(); ++s) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%s0x%016llxULL", s == 0 ? "" : ", ",
                  static_cast<unsigned long long>(d.sections[s]));
    row += hex;
  }
  return row + "}}},";
}

/// Asserts `report` served `golden`'s cell with `golden`'s digest. A moved
/// cell names its first differing section and prints its new row.
inline void expect_golden(const GoldenRow& golden, std::string_view cell,
                          const serve::ServeReport& report) {
  ASSERT_EQ(cell, golden.cell);
  const ReportDigest d = report_digest(report);
  for (std::size_t s = 0; s < d.sections.size(); ++s)
    if (d.sections[s] != golden.digest.sections[s]) {
      ADD_FAILURE() << "golden digest moved in cell " << cell
                    << ": first differing section \""
                    << bench::kSectionNames[s]
                    << "\"\n  new row: " << golden_row(cell, d);
      return;
    }
}

/// Conservation: each stage unit of each shard runs its executions one at a
/// time, starting at or after 0 and ending by their queries' completion,
/// so no unit is busy for longer than the makespan.
inline void expect_stage_busy_within_makespan(std::string_view cell,
                                              const serve::ServeReport& r) {
  for (std::size_t s = 0; s < r.shards.size(); ++s)
    for (std::size_t u = 0; u < r.shards[s].stage_busy.size(); ++u)
      EXPECT_LE(r.shards[s].stage_busy[u].value, r.makespan.value)
          << cell << ": shard " << s << ", stage unit " << u;
}

/// Asserts two serving reports are bit-identical over every field the
/// report walk visits — the contract report_digest pins — naming the first
/// differing field.
inline void expect_reports_identical(const serve::ServeReport& a,
                                     const serve::ServeReport& b) {
  const std::optional<std::string> diff = bench::first_difference(a, b);
  if (diff) ADD_FAILURE() << "reports differ at " << *diff;
}

/// Asserts two serving reports answered the same queries with the same
/// RESULTS: identical id/user sequence and identical merged top-k items and
/// scores per query. Timestamps, latencies, batching, placement and energy
/// are deliberately NOT compared — this is the placement-invariance
/// contract (any ShardMap/PlacementPolicy is a disjoint cover, so it may
/// move work between shards but never change what is computed).
inline void expect_results_identical(const serve::ServeReport& a,
                                     const serve::ServeReport& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& qa = a.queries[i];
    const auto& qb = b.queries[i];
    ASSERT_EQ(qa.id, qb.id) << "query " << i;
    EXPECT_EQ(qa.user, qb.user);
    EXPECT_EQ(qa.qos_class, qb.qos_class);
    EXPECT_EQ(qa.candidates, qb.candidates);
    ASSERT_EQ(qa.topk.size(), qb.topk.size()) << "query " << i;
    for (std::size_t j = 0; j < qa.topk.size(); ++j) {
      EXPECT_EQ(qa.topk[j].item, qb.topk[j].item)
          << "query " << i << " position " << j;
      EXPECT_FLOAT_EQ(qa.topk[j].score, qb.topk[j].score);
    }
  }
}

}  // namespace imars::serve_test
