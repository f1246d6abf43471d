// Tiered embedding memory benchmark (extension): frequency-driven online
// migration vs static warm pins under a DRIFTING Zipf hot set on the
// DLRM/Criteo CTR fabric.
//
// Embedding tables are iMARS's traffic bottleneck; real deployments cannot
// hold every table row in the CMA banks. The tiered model (RecFlash
// arXiv:2604.25338 frequency mapping) backs the banks with a modeled cold
// bulk tier: a miss whose block is not warm-resident faults the whole
// block in at PerfModel::cold_block_fetch cost. Three arms over the SAME
// scripted arrival trace (ArrivalProcess::kTrace):
//
//   flat     no tiers — the pre-tier simulator (reference)
//   static   tiering on, migration OFF: the warm tier holds only blocks
//            pinned from a phase-A access histogram (tier-aware
//            PlacementConfig::warm_histogram) — classic offline placement
//   migrate  tiering on, online migration, no pins: cold faults admit
//            their block warm; dispatch-boundary commits demote FIFO-order
//
// The trace is two Poisson phases with the SAME Zipf skew but a rotated
// user population (phase B shifts every user index by half the
// population), so the hot row set DRIFTS mid-run: phase-A pins go stale,
// which is exactly where online migration must win.
//
// Emits BENCH_tiering.json. Exit 0 iff migrate beats static pins on p99
// under the drift.
#include <iostream>
#include <unordered_map>

#include "core/backend_factory.hpp"
#include "harness.hpp"
#include "serve/observe.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_ctr.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

// Sums the contention anatomy of every ET-touching stage span (the fused
// CTR graph's score stage): stage-unit busy time, the waits in front of
// it, and the shared ET-bank claim lengths.
struct EtStageAgg final : serve::ObserverSink {
  double busy_ns = 0.0;
  double wait_ns = 0.0;  // unit_wait + et_wait
  double et_busy_ns = 0.0;
  void on_stage(const serve::StageSpan& s) override {
    if (s.et_busy.value <= 0.0) return;
    busy_ns += s.end.value - s.start.value;
    wait_ns += s.unit_wait.value + s.et_wait.value;
    et_busy_ns += s.et_busy.value;
  }
  /// busy / (busy + wait) over the ET-touching stage spans.
  double utilization() const {
    const double denom = busy_ns + wait_ns;
    return denom > 0.0 ? busy_ns / denom : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto obs = bench::parse_observe_flags(argc, argv);
  const std::size_t train_samples = 4000;
  const std::size_t queries = 384;  // per phase: queries / 2
  const std::size_t population = 512;
  const std::size_t shards = 2;
  // Tier geometry: a small hot periphery buffer, a warm tier of
  // block-granular CMA residency, everything else cold.
  const std::size_t hot_rows = 256;
  const std::size_t warm_rows = 2048;
  const std::size_t block_rows = 8;

  std::cout << "=== Extension: tiered embedding memory ===\n"
            << "(synthetic Criteo, " << queries
            << " impressions over a drifting Zipf hot set, " << shards
            << " FeFET-45 shards; hot " << hot_rows << " rows, warm "
            << warm_rows << " rows in blocks of " << block_rows << ")\n\n";

  auto cr = bench::make_criteo(train_samples, 2);
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < std::min(population, cr.ds->size()); ++i)
    samples.push_back(cr.ds->sample(i));
  std::vector<data::CriteoSample> calib(samples.begin(), samples.begin() + 8);

  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();

  const auto factory = core::imars_ctr_backend_factory(
      *cr.model, arch, core::TimingMode::kWorstCaseSameArray, calib);

  struct Arm {
    serve::ServeReport report;
    EtStageAgg et;
  };
  auto run_arm = [&](const serve::HotCacheConfig& cache,
                     const serve::PlacementConfig& placement,
                     const serve::LoadGenConfig& lg,
                     serve::ObserverSink* sink = nullptr) {
    const std::vector<device::DeviceProfile> profiles(shards, profile);
    auto servable =
        std::make_unique<serve::CtrServable>(factory, profiles);
    servable->bind_samples(samples);
    serve::ServingConfig cfg;
    cfg.k = 1;
    cfg.batcher.max_batch = 16;
    cfg.batcher.max_wait = device::Ns{500000.0};
    cfg.cache = cache;
    cfg.placement = placement;
    cfg.overlap = lg.arrivals != serve::ArrivalProcess::kClosedLoop;
    cfg.self_profile = obs.any();
    serve::ServingRuntime rt(std::move(servable), cfg, arch, profile);
    Arm arm;
    rt.set_observer(sink ? sink : &arm.et);
    serve::LoadGenerator gen(lg);
    arm.report = rt.run(gen);
    return arm;
  };

  serve::LoadGenConfig base_lg;
  base_lg.clients = 16;
  base_lg.total_queries = queries;
  base_lg.num_users = samples.size();
  base_lg.user_zipf_s = 1.1;  // sharp hot set, so drift actually bites
  base_lg.seed = 233;

  // Closed-loop capacity probe of the flat arm anchors the open-loop rate
  // above saturation, where queueing amplifies per-query cost deltas into
  // tail-latency deltas.
  serve::HotCacheConfig flat_cache;
  flat_cache.capacity_rows = hot_rows;
  const double capacity =
      run_arm(flat_cache, {}, base_lg).report.qps();
  const double rate = 1.3 * capacity;
  std::cout << "flat capacity probe: " << util::Table::num(capacity, 0)
            << " qps; offered open-loop load " << util::Table::num(rate, 0)
            << " qps (1.3x)\n\n";

  // The drifting trace: two Poisson phases at the overload rate. Phase B
  // rotates every drawn user by half the population, so the Zipf ranks
  // land on a disjoint hot set while skew, rate and length stay equal.
  std::vector<serve::Request> trace;
  {
    double t0 = 0.0;
    for (int phase = 0; phase < 2; ++phase) {
      serve::LoadGenConfig pl = base_lg;
      pl.total_queries = queries / 2;
      pl.seed = base_lg.seed + static_cast<std::uint64_t>(phase);
      pl.arrivals = serve::ArrivalProcess::kOpenPoisson;
      pl.rate_qps = rate;
      serve::LoadGenerator gen(pl);
      double last = t0;
      while (auto r = gen.next_arrival()) {
        serve::Request q = *r;
        if (phase == 1) q.user = (q.user + population / 2) % samples.size();
        q.enqueue = device::Ns{q.enqueue.value + t0};
        q.id = trace.size();
        last = q.enqueue.value;
        trace.push_back(q);
      }
      t0 = last + 1e9 / rate;  // one mean gap between the phases
    }
  }
  serve::LoadGenConfig trace_lg = base_lg;
  trace_lg.arrivals = serve::ArrivalProcess::kTrace;
  trace_lg.trace = trace;

  // Phase-A row histogram for the static-pin arm — the offline profile an
  // operator would have trained placement on before the drift.
  serve::PlacementConfig static_pins;
  {
    std::unordered_map<std::size_t, std::uint64_t> counts;
    for (std::size_t i = 0; i < trace.size() / 2; ++i) {
      const auto& s = samples[trace[i].user];
      for (std::size_t f = 0; f < s.sparse.size(); ++f)
        counts[(static_cast<std::uint64_t>(f) << 32) | s.sparse[f]] += 1;
    }
    for (const auto& [key, freq] : counts)
      static_pins.warm_histogram.push_back({key, freq});
    // One pin per warm block: pins are block-granular and consume warm
    // capacity, so this fills the warm tier without starving it.
    static_pins.warm_rows = warm_rows / block_rows;
  }

  serve::HotCacheConfig tier_cache = flat_cache;
  tier_cache.warm_capacity_rows = warm_rows;
  tier_cache.cold_block_rows = block_rows;
  serve::HotCacheConfig static_cache = tier_cache;
  static_cache.migrate = false;

  bench::JsonReport json("tiering");
  json.record("capacity")
      .set("flat_capacity_qps", capacity)
      .set("rate_qps", rate)
      .set("queries", trace.size())
      .set("shards", shards)
      .set("hot_rows", hot_rows)
      .set("warm_rows", warm_rows)
      .set("block_rows", block_rows);

  struct ArmSpec {
    std::string name;
    const serve::HotCacheConfig* cache;
    const serve::PlacementConfig* placement;
  };
  const serve::PlacementConfig no_pins;
  const std::vector<ArmSpec> grid = {
      {"flat", &flat_cache, &no_pins},
      {"static", &static_cache, &static_pins},
      {"migrate", &tier_cache, &no_pins},
  };

  util::Table table("tiered embedding memory under a drifting hot set (" +
                    std::to_string(trace.size()) + " impressions)");
  table.header({"arm", "QPS", "p99 us", "gather util", "ET share", "warm hit",
                "cold faults"});

  std::vector<Arm> arms;
  for (const auto& a : grid) {
    arms.push_back(run_arm(*a.cache, *a.placement, trace_lg));
    const auto& arm = arms.back();
    const auto& r = arm.report;
    if (obs.self_profile)
      bench::print_host_spans(a.name, r.host_span_us, std::cout);
    const double et_share =
        r.makespan.value > 0.0 ? arm.et.et_busy_ns / r.makespan.value : 0.0;
    table.row({a.name, util::Table::num(r.qps(), 0),
               util::Table::num(r.p99_latency_ns() * 1e-3, 1),
               util::Table::num(arm.et.utilization(), 3),
               util::Table::num(et_share, 3),
               util::Table::num(static_cast<double>(r.cache.warm_hits), 0),
               util::Table::num(static_cast<double>(r.cache.cold_faults), 0)});
    json.record(a.name)
        .set("queries", trace.size())
        .set("rate_qps", rate)
        .set("qps", r.qps())
        .set("p50_us", r.p50_latency_ns() * 1e-3)
        .set("p95_us", r.p95_latency_ns() * 1e-3)
        .set("p99_us", r.p99_latency_ns() * 1e-3)
        .set("makespan_ms", r.makespan.ms())
        .set("gather_utilization", arm.et.utilization())
        .set("et_busy_share", et_share)
        .set("cache_hits", r.cache.hits)
        .set("cache_misses", r.cache.misses)
        .set("warm_hits", r.cache.warm_hits)
        .set("cold_faults", r.cache.cold_faults)
        .set("cold_rows_fetched", r.cache.cold_rows_fetched)
        .set("warm_evictions", r.cache.warm_evictions)
        .set("promotions", r.cache.promotions);
  }
  table.print(std::cout);

  // --trace re-runs the migrate arm under a TraceLog (the runtime takes a
  // single observer and the ET aggregate above feeds the records). Reports
  // are deterministic, so the exported timeline is the gated run's and the
  // JSON records stay bit-identical with and without --trace; summarize
  // the migration traffic with `trace_summary --tiers`.
  if (!obs.trace_path.empty()) {
    serve::TraceLog tlog;
    run_arm(tier_cache, no_pins, trace_lg, &tlog);
    tlog.write(obs.trace_path);
    std::cout << "trace: " << tlog.events().size() << " events -> "
              << obs.trace_path << "\n";
  }

  const auto& stat = arms[1];
  const auto& migrate = arms[2];
  const double p99_static = stat.report.p99_latency_ns();
  const double p99_migrate = migrate.report.p99_latency_ns();
  const bool migrate_ok = p99_migrate < p99_static;

  json.record("delta").set(
      "migrate_vs_static_p99_gain",
      p99_static > 0.0 ? 1.0 - p99_migrate / p99_static : 0.0);
  json.write();

  std::cout << "\nonline migration vs stale static pins: p99 "
            << util::Table::num(p99_static * 1e-3, 1) << " us -> "
            << util::Table::num(p99_migrate * 1e-3, 1) << " us\n"
            << "Reading: under the mid-run hot-set drift the phase-A pins go\n"
               "stale and every unpinned miss streams a cold block, while\n"
               "online migration re-warms the new hot blocks within a few\n"
               "dispatch commits.\n";
  return migrate_ok ? 0 : 1;
}
