// Million-user steady-state scaling bench (MARM-style, arXiv:2411.09425):
//
//   Part A — cache scaling-law curves. Hit rate / p50 / p99 / QPS versus
//     hot-cache capacity across user populations {1e5, 1e6, 1e7} with the
//     cuckoo session layer churning, reporting both the modeled metrics
//     and the simulator's own wall-clock (queries per host-second).
//
//   Part B — host allocation budget. A scaling workload runs under a
//     counting global operator new; the heap allocations run() makes per
//     served query must stay at or below kAllocBudgetPerQuery (a gate:
//     nonzero exit above it). The count does not depend on host speed or
//     load, so it pins the steady-state allocation avoidance of the host
//     path (state pooling, scratch reuse, request recycling, the report
//     arena) where a wall-clock ratio would only be noise.
//
//   Part C — steady-state endurance: a 1e7-user population driven
//     through a ~1e6-slot session table to saturation, where every
//     arrival exercises the bounded cuckoo kick chain (forced evictions,
//     max kick chain <= the configured bound).
//
// The servable is synthetic (bench/synth_servable.hpp), so host-path cost
// dominates and population scale is free. Its reports on the scaling grid
// are pinned bit for bit by the golden digests in tests/test_serve.cpp.
// Emits BENCH_scaling.json.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "device/profile.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "synth_servable.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

/// Calls of the global operator new so far, on every thread.
std::atomic<std::uint64_t> g_heap_allocs{0};

/// Part B's gate. GCC 12 / libstdc++ 12 measure ~7.18 allocations per
/// query; one extra allocation per query, or per (query, shard) on its 4
/// shards, crosses 8.
constexpr double kAllocBudgetPerQuery = 8.0;

}  // namespace

// Counting global allocator for Part B. libstdc++'s array and nothrow
// forms forward to this one; over-aligned allocations are not counted.
void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct RunResult {
  serve::ServeReport report;
  double wall_ms = 0.0;           ///< whole run() wall-clock
  std::uint64_t heap_allocs = 0;  ///< operator new calls inside run()
  serve::SessionTable::Stats sessions;
  std::size_t session_occupancy = 0;
  double session_load = 0.0;
  std::size_t max_kick_chain = 0;
};

RunResult run_synth(const serve::ServingConfig& cfg,
                    const serve::LoadGenConfig& lg,
                    const core::ArchConfig& arch,
                    const device::DeviceProfile& profile) {
  serve::ServingRuntime rt(bench::make_synth(cfg, lg, arch, profile), cfg,
                           arch, profile);
  serve::LoadGenerator gen(lg);
  RunResult r;
  const std::uint64_t allocs0 = g_heap_allocs.load();
  const auto t0 = std::chrono::steady_clock::now();
  r.report = rt.run(gen);
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.heap_allocs = g_heap_allocs.load() - allocs0;
  if (const auto* s = gen.sessions(); s != nullptr) {
    r.sessions = s->stats();
    r.session_occupancy = s->occupancy();
    r.session_load = s->load_factor();
    r.max_kick_chain = s->max_kick_chain();
  }
  return r;
}

}  // namespace

int main() {
  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  bench::JsonReport json("scaling");

  std::cout << "=== Million-user steady state: cache scaling laws + host "
               "allocation budget ===\n\n";

  // The open-loop rate every part drives: the closed-loop throughput of
  // the scaling grid's fabric. It moves with any change to that fabric's
  // modeled speed, so the Part A and Part C records carry it: a curve
  // point that moved because its offered load moved says so.
  const double open_rate =
      run_synth(bench::grid_serving_config(),
                bench::grid_load_config(480), arch, profile)
          .report.qps();

  // --- Part A: cache scaling-law curves ----------------------------------
  // Hit rate / latency / QPS versus hot-cache capacity across population
  // scales, with the session layer churning. Streaming reports bound
  // memory, so the curve points scale to 1e7 users without retaining
  // per-query records.
  const std::vector<std::size_t> populations = {100000, 1000000, 10000000};
  const std::vector<std::size_t> capacities = {2048, 16384, 131072};
  const std::size_t curve_queries = 60000;

  util::Table curve_table("Cache scaling laws (session churn on)");
  curve_table.header({"users", "cache rows", "hit rate", "p50 us", "p99 us",
                      "QPS", "sess hit", "wall ms", "q/host-s"});
  for (const std::size_t pop : populations)
    for (const std::size_t cap : capacities) {
      serve::ServingConfig cfg;
      cfg.shards = 4;
      cfg.k = 8;
      cfg.batcher.max_batch = 32;
      cfg.cache.capacity_rows = cap;
      cfg.overlap = true;
      cfg.streaming_report = true;
      serve::LoadGenConfig lg;
      lg.clients = 32;
      lg.total_queries = curve_queries;
      lg.num_users = pop;
      lg.user_zipf_s = 0.9;
      lg.seed = 23;
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      lg.rate_qps = open_rate;
      lg.session_mode = true;
      lg.session_capacity = std::max<std::size_t>(pop / 10, 4096);
      lg.session_churn = 0.01;

      const auto r = run_synth(cfg, lg, arch, profile);
      const double qphs =
          r.wall_ms > 0.0
              ? static_cast<double>(r.report.size()) / (r.wall_ms * 1e-3)
              : 0.0;
      curve_table.row(
          {std::to_string(pop), std::to_string(cap),
           util::Table::num(r.report.cache.hit_rate(), 3),
           util::Table::num(r.report.p50_latency_ns() * 1e-3, 1),
           util::Table::num(r.report.p99_latency_ns() * 1e-3, 1),
           util::Table::num(r.report.qps(), 0),
           util::Table::num(r.sessions.hit_rate(), 3),
           util::Table::num(r.wall_ms, 1), util::Table::num(qphs, 0)});
      json.record("scale:u" + std::to_string(pop) + ":c" +
                  std::to_string(cap))
          .set("users", pop)
          .set("cache_rows", cap)
          .set("open_rate_qps", open_rate)
          .set("queries", r.report.size())
          .set("cache_hit_rate", r.report.cache.hit_rate())
          .set("p50_us", r.report.p50_latency_ns() * 1e-3)
          .set("p99_us", r.report.p99_latency_ns() * 1e-3)
          .set("qps", r.report.qps())
          .set("session_hit_rate", r.sessions.hit_rate())
          .set("session_arrivals",
               static_cast<std::size_t>(r.sessions.arrivals))
          .set("session_departures",
               static_cast<std::size_t>(r.sessions.departures))
          .set("session_occupancy", r.session_occupancy)
          .set("wall_ms", r.wall_ms)
          .set("queries_per_host_second", qphs);
    }
  curve_table.print(std::cout);

  // --- Part B: host allocation budget ------------------------------------
  // A 1e5-user scaling workload (16384-row cache, session churn) with
  // self-profiling on; the gate counts run()'s heap allocations per
  // served query.
  const std::size_t budget_queries = 30000;
  serve::ServingConfig budget_cfg;
  budget_cfg.shards = 4;
  budget_cfg.k = 8;
  budget_cfg.batcher.max_batch = 32;
  budget_cfg.cache.capacity_rows = 16384;
  budget_cfg.overlap = true;
  budget_cfg.self_profile = true;
  serve::LoadGenConfig budget_lg;
  budget_lg.clients = 32;
  budget_lg.total_queries = budget_queries;
  budget_lg.num_users = 100000;
  budget_lg.seed = 23;
  budget_lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
  budget_lg.rate_qps = open_rate;
  budget_lg.session_mode = true;
  budget_lg.session_capacity = 16384;
  budget_lg.session_churn = 0.01;

  const auto budget = run_synth(budget_cfg, budget_lg, arch, profile);
  const double allocs_per_query =
      static_cast<double>(budget.heap_allocs) /
      static_cast<double>(budget.report.size());
  const bool budget_ok = allocs_per_query <= kAllocBudgetPerQuery;
  std::cout << "\nhost allocation budget (" << budget.report.size()
            << " queries): " << budget.heap_allocs << " heap allocations, "
            << util::Table::num(allocs_per_query, 4) << " per query (budget "
            << util::Table::num(kAllocBudgetPerQuery, 0) << ")"
            << (budget_ok ? "" : " — OVER BUDGET") << "\n";
  bench::print_host_spans("allocation-budget run",
                          budget.report.host_span_us, std::cout);
  auto& budget_json = json.record("alloc_budget");
  budget_json.set("queries", budget.report.size())
      .set("heap_allocs", static_cast<std::size_t>(budget.heap_allocs))
      .set("allocs_per_query", allocs_per_query)
      .set("budget_per_query", kAllocBudgetPerQuery)
      .set("within_budget", budget_ok ? 1 : 0)
      .set("wall_ms", budget.wall_ms);
  for (const auto& [name, us] : budget.report.host_span_us)
    budget_json.set(name + "_us", us);

  // --- Part C: steady-state endurance ------------------------------------
  // A 1e7-user population through a ~1e6-slot session table until the
  // cuckoo layer saturates: near-capacity occupancy, forced evictions
  // absorbing the overflow, kick chains still bounded.
  {
    serve::ServingConfig cfg;
    cfg.shards = 4;
    cfg.k = 8;
    cfg.batcher.max_batch = 32;
    cfg.cache.capacity_rows = 131072;
    cfg.overlap = true;
    cfg.streaming_report = true;
    serve::LoadGenConfig lg;
    lg.clients = 32;
    lg.total_queries = 3000000;
    lg.num_users = 10000000;
    lg.user_zipf_s = 0.9;
    lg.seed = 31;
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = open_rate;
    lg.session_mode = true;
    lg.session_capacity = 1000000;
    lg.session_max_kicks = 32;
    lg.session_churn = 0.002;

    const auto r = run_synth(cfg, lg, arch, profile);
    const double qphs =
        r.wall_ms > 0.0
            ? static_cast<double>(r.report.size()) / (r.wall_ms * 1e-3)
            : 0.0;
    std::cout << "\nsteady state (1e7 users, 1e6-slot session table, "
              << r.report.size() << " queries):\n  live sessions "
              << r.session_occupancy << " (load "
              << util::Table::num(r.session_load, 3) << "), arrivals "
              << r.sessions.arrivals << ", departures "
              << r.sessions.departures << " (forced "
              << r.sessions.forced_evictions << "), max kick chain "
              << r.max_kick_chain << "\n  session hit rate "
              << util::Table::num(r.sessions.hit_rate(), 3)
              << ", cache hit rate "
              << util::Table::num(r.report.cache.hit_rate(), 3) << ", p99 "
              << util::Table::num(r.report.p99_latency_ns() * 1e-3, 1)
              << " us, wall " << util::Table::num(r.wall_ms * 1e-3, 1)
              << " s (" << util::Table::num(qphs, 0) << " q/host-s)\n";
    json.record("steady_state")
        .set("users", lg.num_users)
        .set("open_rate_qps", open_rate)
        .set("queries", r.report.size())
        .set("session_slots", lg.session_capacity)
        .set("session_occupancy", r.session_occupancy)
        .set("session_load", r.session_load)
        .set("session_hit_rate", r.sessions.hit_rate())
        .set("session_arrivals",
             static_cast<std::size_t>(r.sessions.arrivals))
        .set("session_departures",
             static_cast<std::size_t>(r.sessions.departures))
        .set("forced_evictions",
             static_cast<std::size_t>(r.sessions.forced_evictions))
        .set("max_kick_chain", r.max_kick_chain)
        .set("cache_hit_rate", r.report.cache.hit_rate())
        .set("p99_us", r.report.p99_latency_ns() * 1e-3)
        .set("qps", r.report.qps())
        .set("wall_ms", r.wall_ms)
        .set("queries_per_host_second", qphs);
  }

  json.write();
  return budget_ok ? 0 : 1;
}
