// Multi-tenant QoS serving benchmark (extension): priority-class batching,
// deadline-preemptive close and weighted admission on the iMARS fabric.
//
// Three phases over the same trained filter/rank fabric:
//
//   capacity   closed-loop probe: the fabric's self-throttled QPS and a
//              per-batch service estimate (feeds the preemptive close and
//              the admission window).
//   tail       a 10:1 bulk:interactive OVERLOAD mix (open-loop Poisson at
//              2x capacity) served (a) class-blind through the PR 2
//              single-queue batcher and (b) class-aware with preemptive
//              close + gated admission. Same arrival stream, same labels:
//              the interactive tail must collapse at equal total goodput.
//   fairness   two saturated bulk tenants at weights 1:3 (2x capacity):
//              measured device-time shares inside the contended window
//              must track the configured weights.
//
// Emits BENCH_serving_qos.json records (bench/harness.hpp JsonReport).
// Exit code 0 iff the QoS acceptance holds: interactive p99 >= 30% below
// class-blind at equal (+-5%) goodput, and fairness shares within 5
// points of the weights.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "harness.hpp"
#include "serve/runtime.hpp"
#include "serve/trace.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

struct Fabric {
  core::BackendFactory factory;
  std::vector<recsys::UserContext> users;
  core::ArchConfig arch;
  device::DeviceProfile profile = device::DeviceProfile::fefet45();
  recsys::YoutubeDnn* model = nullptr;
};

serve::ServingConfig base_config(const Fabric& fx) {
  serve::ServingConfig cfg;
  cfg.shards = 4;
  cfg.k = 10;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait = device::Ns{500000.0};
  cfg.cache.capacity_rows = 4096;
  cfg.traffic.filter_features = fx.model->filter_features();
  cfg.traffic.rank_features = fx.model->rank_features();
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace <file>: export the class-aware overload run as Chrome
  // trace-event JSON (tools/trace_summary validates it; CI uploads it next
  // to the BENCH_*.json artifacts). Observation is a pure observer — every
  // figure and the BENCH JSON are bit-identical with or without it.
  std::string trace_path;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--trace" && i + 1 < argc)
      trace_path = argv[++i];

  const double scale = 0.12;
  const std::size_t base_queries = 96;

  std::cout << "=== Extension: multi-tenant QoS serving ===\n"
            << "(synthetic MovieLens at scale " << scale
            << ", 10:1 bulk:interactive overload + weighted fairness)\n\n";

  auto ml = bench::make_movielens(scale, 3, 1);
  Fabric fx;
  for (std::size_t u = 0; u < ml.ds->num_users(); ++u)
    fx.users.push_back(ml.model->make_context(*ml.ds, u));
  std::vector<recsys::UserContext> calib(fx.users.begin(),
                                         fx.users.begin() + 8);
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.max_candidates = core::kEndToEndCandidates;
  icfg.nns_radius = 64;
  fx.factory = core::imars_backend_factory(*ml.model, fx.arch, fx.profile,
                                           icfg, calib);
  fx.model = ml.model.get();

  bench::JsonReport json("serving_qos");

  // --- capacity probe (closed loop, the PR 2 "full+cache" operating point)
  serve::ServingRuntime probe_rt(fx.factory, base_config(fx), fx.arch,
                                 fx.profile);
  serve::LoadGenConfig probe_lg;
  probe_lg.clients = 16;
  probe_lg.total_queries = base_queries;
  probe_lg.num_users = fx.users.size();
  probe_lg.user_zipf_s = 0.9;
  probe_lg.seed = 77;
  serve::LoadGenerator probe_gen(probe_lg);
  const auto probe = probe_rt.run(probe_gen, fx.users);
  const double capacity_qps = probe.qps();
  double service_sum = 0.0;
  for (const auto& q : probe.queries)
    service_sum += (q.complete - q.dispatch).value;
  const device::Ns service_est{service_sum /
                               static_cast<double>(probe.size())};
  std::cout << "capacity probe: " << util::Table::num(capacity_qps, 0)
            << " qps, batch service estimate "
            << util::Table::num(service_est.us(), 1) << " us\n\n";
  json.record("capacity")
      .set("qps", capacity_qps)
      .set("service_estimate_us", service_est.us())
      .set("queries", base_queries)
      .set("scale", scale);

  // --- tail-latency experiment: 10:1 overload mix ------------------------
  const std::size_t overload_queries = base_queries * 6;
  const double overload_rate = 2.0 * capacity_qps;
  serve::LoadGenConfig mix_lg;
  mix_lg.clients = 16;
  mix_lg.total_queries = overload_queries;
  mix_lg.num_users = fx.users.size();
  mix_lg.user_zipf_s = 0.9;
  mix_lg.seed = 77;
  mix_lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
  mix_lg.rate_qps = overload_rate;
  mix_lg.class_mix = {1.0, 10.0};  // interactive : bulk

  // (a) class-blind: the PR 2 single-queue batcher (labels ride along).
  serve::ServingConfig blind_cfg = base_config(fx);
  serve::ServingRuntime blind_rt(fx.factory, blind_cfg, fx.arch, fx.profile);
  serve::LoadGenerator blind_gen(mix_lg);
  const auto blind = blind_rt.run(blind_gen, fx.users);

  // (b) class-aware: preemptive close + weighted, gated admission.
  serve::ServingConfig qos_cfg = base_config(fx);
  serve::QosClassConfig interactive;
  interactive.name = "interactive";
  interactive.max_batch = 2;
  interactive.max_wait = device::Ns{500000.0};
  // SLO of 5 batch-services; the close budget (deadline - estimate) caps
  // the batcher wait at ~1 service, so the end-to-end path (close + gate +
  // service) fits the SLO even under the bulk backlog.
  interactive.deadline = service_est * 5.0;
  interactive.service_estimate = service_est * 4.0;
  interactive.weight = 2.0;
  serve::QosClassConfig bulk;
  bulk.name = "bulk";
  bulk.max_batch = 8;
  bulk.max_wait = device::Ns{500000.0};
  bulk.weight = 10.0;
  qos_cfg.qos.classes = {interactive, bulk};
  qos_cfg.qos.admit_window = service_est;
  qos_cfg.self_profile = !trace_path.empty();  // host spans ride along
  serve::ServingRuntime qos_rt(fx.factory, qos_cfg, fx.arch, fx.profile);
  serve::TraceLog trace;
  if (!trace_path.empty()) qos_rt.set_observer(&trace);
  serve::LoadGenerator qos_gen(mix_lg);
  const auto qos = qos_rt.run(qos_gen, fx.users);
  if (!trace_path.empty()) {
    trace.write(trace_path);
    std::cout << "trace: " << trace.events().size() << " events -> "
              << trace_path << "\n\n";
  }

  util::Table tail_table("10:1 overload at 2x capacity (" +
                         std::to_string(overload_queries) + " queries)");
  tail_table.header({"batcher", "goodput qps", "int p50 us", "int p99 us",
                     "bulk p99 us", "int batches", "SLO misses"});
  auto tail_row = [&](const std::string& name,
                      const serve::ServeReport& report) {
    const std::size_t violations =
        report.classes.size() > 1 ? report.classes[0].slo_violations : 0;
    const std::size_t ibatches =
        report.classes.size() > 1 ? report.classes[0].batches : 0;
    tail_table.row({name, util::Table::num(report.qps(), 0),
                    util::Table::num(report.class_p50_latency_ns(0) * 1e-3, 1),
                    util::Table::num(report.class_p99_latency_ns(0) * 1e-3, 1),
                    util::Table::num(report.class_p99_latency_ns(1) * 1e-3, 1),
                    util::Table::num(double(ibatches), 0),
                    util::Table::num(double(violations), 0)});
    json.record(name)
        .set("queries", overload_queries)
        .set("rate_qps", overload_rate)
        .set("offered_frac", 2.0)
        .set("goodput_qps", report.qps())
        .set("interactive_p50_us", report.class_p50_latency_ns(0) * 1e-3)
        .set("interactive_p99_us", report.class_p99_latency_ns(0) * 1e-3)
        .set("bulk_p99_us", report.class_p99_latency_ns(1) * 1e-3)
        .set("interactive_queries",
             static_cast<std::size_t>(std::count_if(
                 report.queries.begin(), report.queries.end(),
                 [](const auto& q) { return q.qos_class == 0; })))
        .set("slo_violations", violations)
        .set("makespan_ms", report.makespan.ms());
  };
  tail_row("blind", blind);
  tail_row("qos", qos);
  tail_table.print(std::cout);

  const double p99_blind = blind.class_p99_latency_ns(0);
  const double p99_qos = qos.class_p99_latency_ns(0);
  const double p99_gain = p99_blind > 0.0 ? 1.0 - p99_qos / p99_blind : 0.0;
  const double goodput_ratio =
      blind.qps() > 0.0 ? qos.qps() / blind.qps() : 0.0;
  std::cout << "\ninteractive p99: blind "
            << util::Table::num(p99_blind * 1e-3, 1) << " us -> qos "
            << util::Table::num(p99_qos * 1e-3, 1) << " us ("
            << util::Table::num(p99_gain * 100.0, 1)
            << "% lower) at goodput ratio "
            << util::Table::num(goodput_ratio, 3) << "\n\n";

  // --- fairness experiment: two saturated tenants, weights 1:3 -----------
  serve::ServingConfig fair_cfg = base_config(fx);
  serve::QosClassConfig light;
  light.name = "tenant-a";
  light.max_batch = 8;
  light.max_wait = device::Ns{500000.0};
  light.weight = 1.0;
  serve::QosClassConfig heavy = light;
  heavy.name = "tenant-b";
  heavy.weight = 3.0;
  fair_cfg.qos.classes = {light, heavy};
  fair_cfg.qos.admit_window = service_est * 2.0;
  serve::ServingRuntime fair_rt(fx.factory, fair_cfg, fx.arch, fx.profile);

  serve::LoadGenConfig fair_lg = mix_lg;
  fair_lg.class_mix = {0.5, 0.5};
  fair_lg.rate_qps = 2.0 * capacity_qps;  // both tenants saturated
  serve::LoadGenerator fair_gen(fair_lg);
  const auto fair = fair_rt.run(fair_gen, fx.users);
  // The contended window ends with the last arrival; past it the drain
  // phase serves whatever is left and shares converge to the 50:50 mix.
  device::Ns last_arrival{0.0};
  for (const auto& q : fair.queries)
    last_arrival = device::max(last_arrival, q.enqueue);
  const double share_a = fair.device_share(0, last_arrival);
  const double share_b = fair.device_share(1, last_arrival);
  const double fairness_gap =
      std::max(std::abs(share_a - 0.25), std::abs(share_b - 0.75));

  util::Table fair_table("Fairness: 50:50 demand, weights 1:3, 2x overload");
  fair_table.header({"tenant", "weight share", "device share", "p99 us"});
  fair_table.row({"tenant-a", "0.25", util::Table::num(share_a, 3),
                  util::Table::num(fair.class_p99_latency_ns(0) * 1e-3, 1)});
  fair_table.row({"tenant-b", "0.75", util::Table::num(share_b, 3),
                  util::Table::num(fair.class_p99_latency_ns(1) * 1e-3, 1)});
  fair_table.print(std::cout);
  json.record("fairness")
      .set("queries", overload_queries)
      .set("rate_qps", fair_lg.rate_qps)
      .set("weight_share_a", 0.25)
      .set("weight_share_b", 0.75)
      .set("device_share_a", share_a)
      .set("device_share_b", share_b)
      .set("fairness_gap", fairness_gap)
      .set("goodput_qps", fair.qps());
  json.write();

  const bool tail_ok = p99_gain >= 0.30;
  const bool goodput_ok = std::abs(goodput_ratio - 1.0) <= 0.05;
  const bool fair_ok = fairness_gap <= 0.05;
  std::cout << "\nacceptance: interactive p99 -"
            << util::Table::num(p99_gain * 100.0, 1) << "% (need >= 30%) "
            << (tail_ok ? "OK" : "FAIL") << ", goodput ratio "
            << util::Table::num(goodput_ratio, 3) << " (need 1 +- 0.05) "
            << (goodput_ok ? "OK" : "FAIL") << ", fairness gap "
            << util::Table::num(fairness_gap, 3) << " (need <= 0.05) "
            << (fair_ok ? "OK" : "FAIL") << "\n"
            << "Reading: separate per-class queues + preemptive close bound\n"
               "how long an interactive request can sit in the batcher, and\n"
               "the gated admission queue lets its batch overtake the bulk\n"
               "backlog (within its weight entitlement) instead of queueing\n"
               "behind every previously-closed bulk batch on the fabric.\n";
  return (tail_ok && goodput_ok && fair_ok) ? 0 : 1;
}
