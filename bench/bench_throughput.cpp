// Extension experiment: query throughput under stage pipelining.
//
// The paper's 22025 queries/s assumes queries traverse iMARS serially.
// Because the filtering resources (filter crossbar bank + ItET TCAM) and
// the ranking resources (rank crossbar bank + CTR buffer) are disjoint
// hardware blocks (Fig. 3(a)), query q+1 can filter while query q ranks;
// only the ET banks are shared. This bench measures per-stage times on the
// functional machine and reports serial vs pipelined throughput.
#include <iostream>

#include "core/backend.hpp"
#include "core/calibration.hpp"
#include "core/throughput.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace imars;
using recsys::OpKind;
using recsys::StageStats;

int main() {
  const double scale = 0.25;
  const std::size_t users_to_run = 60;

  std::cout << "=== Extension: query throughput with stage pipelining ===\n"
            << "(synthetic MovieLens at scale " << scale << ")\n\n";

  auto ml = bench::make_movielens(scale, 3, 1);
  std::vector<recsys::UserContext> calib;
  for (std::size_t u = 0; u < 8; ++u)
    calib.push_back(ml.model->make_context(*ml.ds, u));

  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.max_candidates = core::kEndToEndCandidates;
  icfg.nns_radius = 64;
  core::ImarsBackend be(*ml.model, core::ArchConfig{},
                        device::DeviceProfile::fefet45(), icfg, calib);

  StageStats fs, rs;
  for (std::size_t u = 0; u < users_to_run; ++u) {
    const auto ctx = ml.model->make_context(*ml.ds, u);
    StageStats f, r;
    const auto cands = be.filter(ctx, &f);
    (void)be.rank(ctx, cands, 10, &r);
    fs.merge(f);
    rs.merge(r);
  }
  const double n = static_cast<double>(users_to_run);

  core::StageTimes t;
  t.filter = fs.total().latency / n;
  t.rank = rs.total().latency / n;
  // Both stages contend for the shared UIET/ItET banks.
  t.shared_et = (fs.at(OpKind::kEtLookup).latency +
                 rs.at(OpKind::kEtLookup).latency) /
                n;

  util::Table table("Throughput (per-query stage times measured)");
  table.header({"quantity", "value"});
  table.row({"filtering stage", util::Table::num(t.filter.us(), 2) + " us"});
  table.row({"ranking stage", util::Table::num(t.rank.us(), 2) + " us"});
  table.row({"shared ET-bank time", util::Table::num(t.shared_et.us(), 2) + " us"});
  table.separator();
  table.row({"QPS serial (paper's assumption)",
             util::Table::num(core::qps_serial(t), 0)});
  table.row({"QPS pipelined (extension)",
             util::Table::num(core::qps_pipelined(t), 0)});
  table.row({"pipeline speedup",
             util::Table::factor(core::pipeline_speedup(t))});
  table.print(std::cout);

  bench::JsonReport json("throughput");
  json.record("stage_pipelining")
      .set("scale", scale)
      .set("users", users_to_run)
      .set("filter_us", t.filter.us())
      .set("rank_us", t.rank.us())
      .set("shared_et_us", t.shared_et.us())
      .set("qps_serial", core::qps_serial(t))
      .set("qps_pipelined", core::qps_pipelined(t))
      .set("pipeline_speedup", core::pipeline_speedup(t));
  json.write();

  std::cout << "\nReading: with ranking dominating the query, pipelining\n"
               "hides most of the filtering latency behind the previous\n"
               "query's ranking; the gain approaches (filter+rank)/rank and\n"
               "is bounded by the serialized ET-bank contention. A deeper\n"
               "per-candidate pipeline inside the ranking stage would need\n"
               "a second rank crossbar bank (area trade-off).\n";

  // CI gate: the serial stage path must report a genuine pipelined win.
  // The old accounting double-counted the shared ET time and clamped to
  // serial, so this printed exactly 1 — a regression back to that (or to
  // any model where overlapping buys nothing) fails the bench.
  const double speedup = core::pipeline_speedup(t);
  if (!(speedup > 1.0)) {
    std::cout << "\nFAIL: pipeline_speedup " << speedup
              << " is not > 1 — stage overlap bought nothing\n";
    return 1;
  }
  return 0;
}
