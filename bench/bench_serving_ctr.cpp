// Criteo/DLRM serving benchmark (extension): the ranking-only CTR workload
// through the same batcher/cache/staged-pipeline/report path as the
// two-stage YouTubeDNN bench (ROADMAP "larger-scale serving bench" item).
//
// The fabric is deliberately *heterogeneous* — mixed device technologies
// behind one runtime — to exercise capability-weighted placement:
//   serial      1 FeFET-45 shard, closed loop (the capacity anchor)
//   uniform     4 shards (FeFET-45, FeFET-22, ReRAM-45 x2), modulo split,
//               open-loop Poisson at 1.5x aggregate capacity, overlap on
//   weighted    same fabric + load, ShardMap weighted by measured score cost
//   weighted+$  weighted + 8192-row hot-embedding cache
//
// Emits BENCH_serving_ctr.json records (bench/harness.hpp JsonReport) with
// per-shard utilization and the capability shares.
#include <iostream>

#include "core/backend_factory.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_ctr.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

struct GridPoint {
  std::string name;
  std::size_t shards;
  bool weighted;
  std::size_t cache_rows;
};

}  // namespace

int main(int argc, char** argv) {
  // --self-profile / --trace <file>: observation only (harness.hpp); the
  // trace exports the most loaded point, weighted+cache.
  const auto obs = bench::parse_observe_flags(argc, argv);
  const std::size_t train_samples = 4000;
  const std::size_t queries = 128;
  const std::size_t population = 512;

  std::cout << "=== Extension: CTR (DLRM/Criteo) serving runtime ===\n"
            << "(synthetic Criteo, " << queries
            << " Zipf-skewed impressions per configuration, mixed-technology "
               "fabric)\n\n";

  auto cr = bench::make_criteo(train_samples, 2);
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < std::min(population, cr.ds->size()); ++i)
    samples.push_back(cr.ds->sample(i));
  std::vector<data::CriteoSample> calib(samples.begin(), samples.begin() + 8);

  const core::ArchConfig arch;
  const auto base_profile = device::DeviceProfile::fefet45();
  const auto factory = core::imars_ctr_backend_factory(
      *cr.model, arch, core::TimingMode::kWorstCaseSameArray, calib);

  // Paper-baseline shard first (the serial point), then one fast FeFET-22
  // shard and two slow ReRAM shards.
  const std::vector<device::DeviceProfile> fabric = {
      device::DeviceProfile::fefet45(), device::DeviceProfile::fefet22(),
      device::DeviceProfile::reram45(), device::DeviceProfile::reram45()};

  const std::vector<GridPoint> grid = {
      {"serial", 1, false, 0},
      {"uniform", 4, false, 0},
      {"weighted", 4, true, 0},
      {"weighted+cache", 4, true, 8192},
  };

  bench::JsonReport json("serving_ctr");
  util::Table table("CTR serving (" + std::to_string(queries) +
                    " impressions)");
  table.header({"config", "QPS", "p50 us", "p95 us", "p99 us", "hit rate",
                "util s0..s3"});

  double qps_serial = 0.0, qps_uniform = 0.0, qps_weighted = 0.0;
  for (const auto& g : grid) {
    std::vector<device::DeviceProfile> profiles(
        fabric.begin(), fabric.begin() + g.shards);
    auto servable =
        std::make_unique<serve::CtrServable>(factory, profiles);
    servable->bind_samples(samples);

    serve::ServingConfig cfg;
    cfg.k = 1;
    cfg.batcher.max_batch = 16;
    cfg.batcher.max_wait = device::Ns{500000.0};  // 500 us deadline
    cfg.cache.capacity_rows = g.cache_rows;
    if (g.weighted) {
      // Capability from each shard's measured per-impression score cost.
      cfg.shard_map = serve::ShardMap::from_costs(
          servable->probe_score_cost(samples.front()));
    }
    // The sharded points are driven open-loop above fabric capacity (with
    // cross-batch overlap), so QPS measures what the fabric can actually
    // sustain — a closed loop would self-throttle to the client count and
    // mask the placement difference.
    const bool open = g.shards > 1 && qps_serial > 0.0;
    cfg.overlap = open;
    cfg.self_profile = obs.any();
    serve::ServingRuntime rt(std::move(servable), cfg, arch, base_profile,
                             profiles);

    serve::LoadGenConfig lg;
    lg.clients = g.shards == 1 ? 1 : 16;
    lg.total_queries = queries;
    lg.num_users = samples.size();
    lg.user_zipf_s = 0.9;
    lg.seed = 177;  // same impression stream for every configuration
    if (open) {
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      lg.rate_qps = 1.5 * static_cast<double>(g.shards) * qps_serial;
    }
    serve::LoadGenerator gen(lg);

    serve::TraceLog trace;
    const bool traced =
        !obs.trace_path.empty() && g.name == "weighted+cache";
    if (traced) rt.set_observer(&trace);
    const auto report = rt.run(gen);
    if (traced) {
      rt.set_observer(nullptr);
      trace.write(obs.trace_path);
      std::cout << "trace: " << trace.events().size() << " events -> "
                << obs.trace_path << "\n";
    }
    if (obs.self_profile)
      bench::print_host_spans(g.name, report.host_span_us, std::cout);
    if (g.name == "serial") qps_serial = report.qps();
    if (g.name == "uniform") qps_uniform = report.qps();
    if (g.name == "weighted") qps_weighted = report.qps();

    std::string utils;
    for (std::size_t s = 0; s < g.shards; ++s)
      utils += (s ? " " : "") + util::Table::num(report.rank_utilization(s), 2);
    table.row({g.name, util::Table::num(report.qps(), 0),
               util::Table::num(report.p50_latency_ns() * 1e-3, 1),
               util::Table::num(report.p95_latency_ns() * 1e-3, 1),
               util::Table::num(report.p99_latency_ns() * 1e-3, 1),
               util::Table::num(report.cache.hit_rate(), 3), utils});

    auto& rec = json.record(g.name)
                    .set("shards", g.shards)
                    .set("arrivals", open ? "poisson" : "closed")
                    .set("rate_qps", open ? lg.rate_qps : 0.0)
                    .set("weighted", g.weighted ? 1 : 0)
                    .set("cache_rows", g.cache_rows)
                    .set("queries", queries)
                    .set("population", samples.size())
                    .set("zipf_s", 0.9)
                    .set("qps", report.qps())
                    .set("p50_us", report.p50_latency_ns() * 1e-3)
                    .set("p95_us", report.p95_latency_ns() * 1e-3)
                    .set("p99_us", report.p99_latency_ns() * 1e-3)
                    .set("mean_batch", report.mean_batch_size())
                    .set("cache_hit_rate", report.cache.hit_rate())
                    .set("mean_energy_pj", report.mean_energy_pj())
                    .set("makespan_ms", report.makespan.ms());
    for (std::size_t s = 0; s < g.shards; ++s) {
      rec.set("tech_shard" + std::to_string(s), profiles[s].name)
          .set("util_shard" + std::to_string(s), report.rank_utilization(s));
      if (g.weighted)
        rec.set("share_shard" + std::to_string(s),
                rt.pipeline().shard_map().share(s));
    }
  }
  table.print(std::cout);
  json.write();

  const double scaling = qps_serial > 0.0 ? qps_weighted / qps_serial : 0.0;
  const double vs_uniform =
      qps_uniform > 0.0 ? qps_weighted / qps_uniform : 0.0;
  std::cout << "\nweighted sharding over serial: "
            << util::Table::factor(scaling)
            << "; weighted over uniform split on the mixed fabric: "
            << util::Table::factor(vs_uniform) << "\n"
            << "Reading: DLRM scoring shards by impression, so throughput\n"
               "scales with the shard count; on a mixed-technology fabric\n"
               "the capability-weighted ShardMap routes proportionally more\n"
               "of the stream to the FeFET-22 shard and keeps the slow\n"
               "ReRAM shards off the critical path.\n";
  return scaling > 1.5 && vs_uniform > 0.95 ? 0 : 1;
}
