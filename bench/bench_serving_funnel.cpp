// Full-funnel serving benchmark: the FunnelServable's four-stage
// retrieval -> filter -> rank -> re-rank DAG served end-to-end by the
// generic stage-pipeline engine, gated on three exit conditions:
//
//   recall   — the ANN retrieval tier (IVF-Flat) keeps recall@k >= 0.95
//              against the exact cosine top-k over the item table;
//   tail     — the fused funnel's end-to-end p99 beats a non-fused
//              two-pass baseline (pass 1: retrieval+filter+rank service
//              emitting the rank survivors; pass 2: a second serving
//              round trip that re-admits each query at its pass-1
//              completion and runs the precise re-rank), i.e. fusing the
//              funnel into one dispatch saves the second batching round;
//   parity   — the overlap-invariance contract holds for the funnel
//              across the full regime grid (open/closed x gated/ungated,
//              overlap off vs on, bit-identical reports).
//
// Emits BENCH_funnel.json. Exit 0 iff all three gates hold.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baseline/exact_nns.hpp"
#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "harness.hpp"
#include "report_walk.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_funnel.hpp"
#include "serve/trace.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace imars;

int main(int argc, char** argv) {
  // --trace <file>: export the fused open-loop run as Chrome trace-event
  // JSON (pure observation — every figure stays bit-identical).
  const auto observe = bench::parse_observe_flags(argc, argv);
  const double scale = 0.05;
  const std::size_t queries = 96;
  const std::size_t k = 10;
  const std::size_t shards = 2;

  std::cout << "=== Extension: full-funnel serving "
               "(retrieve->filter->rank->re-rank) ===\n"
            << "(synthetic MovieLens at scale " << scale << ", " << queries
            << " queries per run, k=" << k << ", " << shards << " shards)\n\n";

  auto ml = bench::make_movielens(scale, 1, 1, 505);
  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ml.ds->num_users(); ++u)
    users.push_back(ml.model->make_context(*ml.ds, u));
  std::vector<recsys::UserContext> calib(users.begin(), users.begin() + 8);

  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  const std::vector<device::DeviceProfile> profs(shards, profile);
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.max_candidates = core::kEndToEndCandidates;
  icfg.nns_radius = 64;
  const auto factory =
      core::imars_backend_factory(*ml.model, arch, profile, icfg, calib);

  serve::FunnelConfig fcfg;
  fcfg.retrieval = serve::RetrievalKind::kIvf;
  fcfg.retrieve_k = 64;
  fcfg.filter_radius = 120;
  fcfg.rank_keep = 24;
  fcfg.ivf.nlist = 8;
  fcfg.ivf.nprobe = 6;

  // --- gate 1: retrieval recall@k vs the exact cosine top-k --------------
  serve::FunnelServable probe(*ml.model, arch, factory, profs, fcfg);
  const auto& items = ml.model->item_table();
  const std::size_t audit_users = std::min<std::size_t>(48, users.size());
  double recall_sum = 0.0;
  for (std::size_t u = 0; u < audit_users; ++u) {
    const auto exact = baseline::topk_cosine(
        items, ml.model->user_embedding(users[u]), k);
    const auto cand = probe.retrieval_candidates(users[u]);
    const std::unordered_set<std::size_t> got(cand.begin(), cand.end());
    std::size_t hit = 0;
    for (const auto e : exact) hit += got.count(e) ? 1u : 0u;
    recall_sum += static_cast<double>(hit) / static_cast<double>(k);
  }
  const double recall = recall_sum / static_cast<double>(audit_users);
  const bool recall_ok = recall >= 0.95;
  std::cout << "retrieval recall@" << k << " = " << recall << " over "
            << audit_users << " users (gate >= 0.95): "
            << (recall_ok ? "OK" : "FAIL") << "\n\n";

  auto make_cfg = [&](bool overlap, bool gated) {
    serve::ServingConfig cfg;
    cfg.shards = shards;
    cfg.k = k;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = device::Ns{300000.0};
    cfg.cache.capacity_rows = 256;
    cfg.overlap = overlap;
    if (gated) {
      cfg.qos = serve::QosBatcherConfig::single(cfg.batcher);
      cfg.qos.admit_window = device::Ns{50000.0};
    }
    return cfg;
  };
  auto make_load = [&](bool open) {
    serve::LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = queries;
    lg.num_users = users.size();
    lg.user_zipf_s = 0.9;
    lg.seed = 909;
    if (open) {
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      // Below the fabric's closed-loop saturation point, so the open
      // regime measures batching + service (where the two-pass baseline
      // pays its second admission round trip), not queue backlog.
      lg.rate_qps = 8.0e3;
    }
    return lg;
  };
  auto run_funnel = [&](const serve::FunnelConfig& fc,
                        const serve::ServingConfig& cfg,
                        const serve::LoadGenConfig& lg,
                        serve::TraceLog* trace_log = nullptr) {
    auto rt = std::make_unique<serve::ServingRuntime>(
        std::make_unique<serve::FunnelServable>(*ml.model, arch, factory,
                                                profs, fc),
        cfg, arch, profile);
    if (trace_log) rt->set_observer(trace_log);
    serve::LoadGenerator gen(lg);
    return rt->run(gen, users);
  };

  bench::JsonReport json("funnel");
  json.record("workload")
      .set("scale", scale)
      .set("users", users.size())
      .set("items", ml.ds->num_items())
      .set("queries", queries)
      .set("k", k)
      .set("shards", shards)
      .set("retrieve_k", fcfg.retrieve_k)
      .set("rank_keep", fcfg.rank_keep)
      .set("ivf_nlist", fcfg.ivf.nlist)
      .set("ivf_nprobe", fcfg.ivf.nprobe);
  json.record("recall")
      .set("recall_at_k", recall)
      .set("audit_users", audit_users)
      .set("gate", 0.95)
      .set("ok", recall_ok ? 1 : 0);

  // --- gate 3: overlap-invariance grid -----------------------------------
  bool grid_ok = true;
  serve::ServeReport fused;  // open, ungated, phased
  util::Table grid_table("Parity grid (overlap off vs on, bit-identical)");
  grid_table.header({"regime", "p99 us", "QPS", "parity"});
  serve::TraceLog trace_log;
  for (const bool open : {false, true})
    for (const bool gated : {false, true}) {
      const bool traced = open && !gated && !observe.trace_path.empty();
      const auto off = run_funnel(fcfg, make_cfg(false, gated),
                                  make_load(open),
                                  traced ? &trace_log : nullptr);
      const auto on = run_funnel(fcfg, make_cfg(true, gated), make_load(open));
      const std::string regime = std::string(open ? "open" : "closed") +
                                 (gated ? "+gated" : "");
      const bool eq = bench::reports_equal(off, on, "grid:" + regime);
      grid_ok = grid_ok && eq;
      if (open && !gated) fused = off;
      grid_table.row({regime, util::Table::num(off.p99_latency_ns() * 1e-3, 1),
                      util::Table::num(off.qps(), 0), eq ? "OK" : "FAIL"});
      json.record("grid_" + regime)
          .set("p99_us", off.p99_latency_ns() * 1e-3)
          .set("qps", off.qps())
          .set("overlap_parity", eq ? 1 : 0);
    }
  grid_table.print(std::cout);
  if (!observe.trace_path.empty()) {
    trace_log.write(observe.trace_path);
    std::cout << "trace: " << trace_log.events().size() << " events -> "
              << observe.trace_path << "\n";
  }
  std::cout << "\n";

  // --- gate 2: fused funnel vs the non-fused two-pass baseline -----------
  // Pass 1: the candidate service — same funnel without the re-rank stage,
  // answering with the rank stage's top rank_keep items.
  serve::FunnelConfig pass1 = fcfg;
  pass1.rerank = false;
  auto cfg1 = make_cfg(false, false);
  cfg1.k = fcfg.rank_keep;
  const auto rep1 = run_funnel(pass1, cfg1, make_load(true));

  // Pass 2: the precise-scoring service — a second serving round trip fed
  // at each query's pass-1 completion (fixed TCAM retrieval + filter +
  // rank + full-precision re-rank), paying admission + batching again.
  std::vector<serve::Request> trace;
  std::unordered_map<std::size_t, double> first_enqueue;
  for (const auto& q : rep1.queries) {
    serve::Request r;
    r.id = q.id;
    r.user = q.user;
    r.client = q.client;
    r.enqueue = q.complete;
    trace.push_back(r);
    first_enqueue[q.id] = q.enqueue.value;
  }
  std::sort(trace.begin(), trace.end(),
            [](const serve::Request& a, const serve::Request& b) {
              return a.enqueue.value != b.enqueue.value
                         ? a.enqueue.value < b.enqueue.value
                         : a.id < b.id;
            });
  serve::FunnelConfig pass2 = fcfg;
  pass2.retrieval = serve::RetrievalKind::kFixed;
  serve::LoadGenConfig lg2;
  lg2.arrivals = serve::ArrivalProcess::kTrace;
  lg2.trace = std::move(trace);
  lg2.num_users = users.size();
  const auto rep2 = run_funnel(pass2, make_cfg(false, false), lg2);

  std::vector<double> two_pass_lat;
  for (const auto& q : rep2.queries)
    two_pass_lat.push_back(q.complete.value - first_enqueue.at(q.id));
  const double two_pass_p99 = util::percentile_select(two_pass_lat, 99.0);
  const double fused_p99 = fused.p99_latency_ns();
  const bool tail_ok = fused_p99 < two_pass_p99;
  std::cout << "fused p99 " << fused_p99 * 1e-3 << " us vs two-pass p99 "
            << two_pass_p99 * 1e-3 << " us (pass-1 p99 "
            << rep1.p99_latency_ns() * 1e-3
            << " us): " << (tail_ok ? "OK" : "FAIL") << "\n";
  json.record("two_pass")
      .set("fused_p99_us", fused_p99 * 1e-3)
      .set("two_pass_p99_us", two_pass_p99 * 1e-3)
      .set("pass1_p99_us", rep1.p99_latency_ns() * 1e-3)
      .set("p99_gain", two_pass_p99 > 0 ? fused_p99 / two_pass_p99 : 0.0)
      .set("ok", tail_ok ? 1 : 0);

  json.record("delta")
      .set("recall_at_k", recall)
      .set("fused_vs_two_pass_p99_gain",
           two_pass_p99 > 0 ? two_pass_p99 / std::max(fused_p99, 1.0) : 0.0)
      .set("parity_grid_ok", grid_ok ? 1 : 0)
      .set("all_gates_ok", (recall_ok && tail_ok && grid_ok) ? 1 : 0);
  json.write();

  std::cout << "\ngates: recall " << (recall_ok ? "OK" : "FAIL") << ", tail "
            << (tail_ok ? "OK" : "FAIL") << ", parity "
            << (grid_ok ? "OK" : "FAIL") << "\n";
  return (recall_ok && tail_ok && grid_ok) ? 0 : 1;
}
