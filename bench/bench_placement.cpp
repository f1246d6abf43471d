// Capability-weighted placement & write-back benchmark (extension):
// weighted vs uniform item placement on a mixed-technology filter/rank
// fabric, under two Zipf skews and a read-only vs 10%-update mix.
//
// Fabric: FeFET-22 + 2x FeFET-45 + ReRAM-45 behind one ServingRuntime.
// Two placements over the SAME open-loop Poisson stream:
//   uniform    modulo bucket ring (frequency- and capability-blind)
//   weighted   ShardMap::from_costs over measured per-item rank cost (PR 2)
//
// The update-mix points drive the write-back cache model: 10% of arrivals
// are embedding-update writes absorbed by the periphery buffer (dirty rows,
// eviction flushes) instead of queries.
//
// Acceptance (exit nonzero on violation):
//   * per-query top-k parity between weighted and uniform placements
//     (placement moves work, never results);
//   * weighted p99 strictly beats uniform p99 under BOTH skews,
//     read-only and update mix.
//
// Emits BENCH_placement.json (bench/harness.hpp JsonReport).
#include <iostream>
#include <map>
#include <memory>

#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

struct PlacementPoint {
  std::string name;
  bool weighted = false;
};

struct LoadPoint {
  double zipf_s = 0.9;
  double update_fraction = 0.0;
};

std::string load_name(const LoadPoint& lp) {
  std::string name = "zipf" + util::Table::num(lp.zipf_s, 1);
  name += lp.update_fraction > 0.0
              ? "+upd" + util::Table::num(lp.update_fraction * 100.0, 0)
              : "+ro";
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  // --self-profile / --trace <file>: observation only (harness.hpp); the
  // trace exports the weighted placement under the heaviest load point.
  const auto obs = bench::parse_observe_flags(argc, argv);
  const double scale = 0.12;
  const std::size_t queries = 192;
  const std::size_t k = 10;

  std::cout << "=== Extension: frequency-aware placement & write-back ===\n"
            << "(synthetic MovieLens at scale " << scale << ", " << queries
            << " open-loop arrivals per point, mixed FeFET-22/45 + ReRAM-45 "
               "fabric)\n\n";

  auto ml = bench::make_movielens(scale, 3, 1);
  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ml.ds->num_users(); ++u)
    users.push_back(ml.model->make_context(*ml.ds, u));
  std::vector<recsys::UserContext> calib(users.begin(), users.begin() + 8);

  const core::ArchConfig arch;
  const auto base_profile = device::DeviceProfile::fefet45();
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.max_candidates = core::kEndToEndCandidates;
  icfg.nns_radius = 64;
  const auto sharded_factory =
      core::imars_sharded_backend_factory(*ml.model, arch, icfg, calib);

  const std::vector<device::DeviceProfile> profiles = {
      device::DeviceProfile::fefet22(), device::DeviceProfile::fefet45(),
      device::DeviceProfile::fefet45(), device::DeviceProfile::reram45()};

  serve::TrafficSpec traffic;
  traffic.filter_features = ml.model->filter_features();
  traffic.rank_features = ml.model->rank_features();

  // Measured per-item rank cost of each technology (capability weights and
  // the anchor for the open-loop rate), probed on a throwaway fabric.
  std::vector<device::Ns> rank_costs;
  double qps_anchor = 0.0;
  {
    auto probe =
        std::make_unique<serve::ShardRouter>(sharded_factory, profiles,
                                             traffic);
    probe->bind_users(users);
    std::vector<std::size_t> probe_items;
    for (std::size_t i = 0; i < 16; ++i) probe_items.push_back(i);
    rank_costs = probe->probe_rank_cost(users.front(), probe_items);

    // Closed-loop capacity of the uniform fabric (the rate anchor).
    serve::ServingConfig cal_cfg;
    cal_cfg.k = k;
    cal_cfg.batcher.max_batch = 8;
    cal_cfg.batcher.max_wait = device::Ns{500000.0};
    cal_cfg.cache.capacity_rows = 128;
    cal_cfg.traffic = traffic;
    serve::ServingRuntime cal_rt(std::move(probe), cal_cfg, arch,
                                 base_profile, profiles);
    serve::LoadGenConfig cal_lg;
    cal_lg.clients = 16;
    cal_lg.total_queries = 96;
    cal_lg.num_users = users.size();
    cal_lg.user_zipf_s = 0.8;
    cal_lg.seed = 877;
    serve::LoadGenerator cal_gen(cal_lg);
    qps_anchor = cal_rt.run(cal_gen, users).qps();
  }
  std::cout << "  [calibrate] uniform closed-loop capacity: "
            << util::Table::num(qps_anchor, 0) << " QPS\n\n";

  const std::vector<PlacementPoint> placements = {
      {"uniform", false},
      {"weighted", true},
  };
  const std::vector<LoadPoint> loads = {
      {0.8, 0.0}, {0.8, 0.1}, {1.2, 0.0}, {1.2, 0.1}};

  // One runtime per placement, reused across load points (run() resets
  // clocks/cache).
  std::vector<std::unique_ptr<serve::ServingRuntime>> runtimes;
  for (const auto& p : placements) {
    auto router = std::make_unique<serve::ShardRouter>(sharded_factory,
                                                       profiles, traffic);
    serve::ServingConfig cfg;
    cfg.k = k;
    cfg.batcher.max_batch = 8;
    cfg.batcher.max_wait = device::Ns{500000.0};
    // Deliberately smaller than the catalog's hot set: ET row traffic must
    // keep reaching the CMA arrays for placement to matter (a buffer that
    // swallows the whole catalog hides the technology difference), and
    // admission churn is what exercises dirty-row eviction flushes.
    cfg.cache.capacity_rows = 128;
    cfg.traffic = traffic;
    cfg.overlap = true;
    cfg.self_profile = obs.any();
    if (p.weighted) cfg.shard_map = serve::ShardMap::from_costs(rank_costs);
    runtimes.push_back(std::make_unique<serve::ServingRuntime>(
        std::move(router), cfg, arch, base_profile, profiles));
  }

  bench::JsonReport json("placement");
  util::Table table("Placement grid (" + std::to_string(queries) +
                    " arrivals/point, open loop @1.2x capacity)");
  table.header({"load", "placement", "QPS", "p50 us", "p99 us", "hit rate",
                "wr hit", "flush KB"});

  bool p99_ok = true, parity_ok = true;
  for (const auto& lp : loads) {
    // id -> topk of the uniform run, for cross-placement parity.
    std::map<std::size_t, std::vector<recsys::ScoredItem>> uniform_topk;
    double uniform_p99 = 0.0, weighted_p99 = 0.0;
    for (std::size_t pi = 0; pi < placements.size(); ++pi) {
      const auto& p = placements[pi];
      serve::LoadGenConfig lg;
      lg.clients = 16;
      lg.total_queries = queries;
      lg.num_users = users.size();
      lg.user_zipf_s = lp.zipf_s;
      lg.seed = 877;  // identical stream for every placement
      lg.update_fraction = lp.update_fraction;
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      lg.rate_qps = 1.2 * qps_anchor;
      serve::LoadGenerator gen(lg);

      serve::TraceLog trace;
      const bool traced = !obs.trace_path.empty() && p.weighted &&
                          &lp == &loads.back();
      if (traced) runtimes[pi]->set_observer(&trace);
      const auto report = runtimes[pi]->run(gen, users);
      if (traced) {
        runtimes[pi]->set_observer(nullptr);
        trace.write(obs.trace_path);
        std::cout << "trace: " << trace.events().size() << " events -> "
                  << obs.trace_path << "\n";
      }
      if (obs.self_profile)
        bench::print_host_spans(load_name(lp) + "/" + p.name,
                                report.host_span_us, std::cout);
      const double p99 = report.p99_latency_ns();
      if (!p.weighted) {
        uniform_p99 = p99;
        for (const auto& q : report.queries) uniform_topk[q.id] = q.topk;
      } else {
        weighted_p99 = p99;
        // Placement permutation invariance: identical results per query.
        for (const auto& q : report.queries) {
          const auto it = uniform_topk.find(q.id);
          if (it == uniform_topk.end() || it->second.size() != q.topk.size()) {
            parity_ok = false;
            continue;
          }
          for (std::size_t j = 0; j < q.topk.size(); ++j)
            if (q.topk[j].item != it->second[j].item ||
                q.topk[j].score != it->second[j].score)
              parity_ok = false;
        }
      }

      table.row({load_name(lp), p.name, util::Table::num(report.qps(), 0),
                 util::Table::num(report.p50_latency_ns() * 1e-3, 1),
                 util::Table::num(p99 * 1e-3, 1),
                 util::Table::num(report.cache.hit_rate(), 3),
                 util::Table::num(report.cache.write_hit_rate(), 2),
                 util::Table::num(
                     static_cast<double>(report.flush_bytes) / 1024.0, 1)});

      auto& rec = json.record(load_name(lp) + "/" + p.name)
                      .set("placement", p.name)
                      .set("zipf_s", lp.zipf_s)
                      .set("update_fraction", lp.update_fraction)
                      .set("queries", queries)
                      .set("rate_qps", lg.rate_qps)
                      .set("k", k)
                      .set("scale", scale)
                      .set("qps", report.qps())
                      .set("p50_us", report.p50_latency_ns() * 1e-3)
                      .set("p95_us", report.p95_latency_ns() * 1e-3)
                      .set("p99_us", p99 * 1e-3)
                      .set("cache_hit_rate", report.cache.hit_rate())
                      .set("updates", report.updates)
                      .set("update_write_hit_rate",
                           report.cache.write_hit_rate())
                      .set("flushes",
                           static_cast<std::size_t>(report.cache.flushes))
                      .set("flush_bytes", report.flush_bytes)
                      .set("update_cost_us",
                           report.update_cost.latency.value * 1e-3)
                      .set("makespan_ms", report.makespan.ms());
      for (std::size_t s = 0; s < profiles.size(); ++s)
        rec.set("tech_shard" + std::to_string(s), profiles[s].name)
            .set("util_shard" + std::to_string(s),
                 report.rank_utilization(s));
    }
    if (weighted_p99 >= uniform_p99) {
      p99_ok = false;
      std::cout << "  [accept] " << load_name(lp)
                << ": weighted p99 NOT better than uniform ("
                << util::Table::num(weighted_p99 * 1e-3, 1) << " vs "
                << util::Table::num(uniform_p99 * 1e-3, 1) << " us)\n";
    }
  }
  table.print(std::cout);
  json.write();

  std::cout << "\nReading: the uniform ring sends one quarter of every\n"
               "query's candidates to the slow ReRAM shard; the weighted map\n"
               "shrinks that slice in proportion to measured rank cost, so\n"
               "the per-query critical path stops being paced by the slow\n"
               "technology. The update mix shows the write-back buffer\n"
               "absorbing hot-row writes (write hit rate) and paying\n"
               "deferred flushes on eviction.\n";

  if (!parity_ok)
    std::cout << "\nFAIL: placement changed per-query top-k results\n";
  if (!p99_ok)
    std::cout << "\nFAIL: weighted placement did not strictly beat uniform "
                 "p99 under skew\n";
  return parity_ok && p99_ok ? 0 : 1;
}
