// imars_bench — the repository benchmark.
//
//   imars_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
//
// One process runs one workload (workloads.hpp). The seed picks the request
// streams and nothing else.
//
// --trace 0 prints the end-to-end metrics. Set-up (data, training, fabric,
// oracle and an untimed warm-up pass) runs kSetupRuns times and setup_s is
// the median. The measured phase then serves, at fixed open-loop rates:
//
//   * the SLO ladder, one pass per rung, for the highest rate meeting the
//     SLO without a growing backlog;
//   * spec.nominal_streams independent streams at the nominal rate, pooled
//     for the simulated latency, throughput and energy;
//   * repeats of the first nominal stream, at least one and then until T
//     seconds have passed, each of which must reproduce that stream's
//     simulated report bit for bit.
//
// Every nominal pass also prints its host throughput. Host throughput is a
// per-layer metric, not an end-to-end one: on a shared machine it drifts
// by more than any regression bound the benchmark may set (README.md).
//
// --trace 1 prints the per-layer metrics instead: after one set-up it
// alternates untraced and traced passes of the first nominal stream for T
// seconds. A traced pass self-profiles the host path, wraps the servable
// in TimedServable and attaches a LayerSink, and must reproduce the
// untraced pass exactly.
//
// Every pass is checked: each issued request must be served, and every
// Workload::kAuditEvery-th query id is compared with a serial oracle. The
// last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 1 when any check failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace imars::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupRuns = 3;
constexpr std::size_t kCaptureLimit = std::size_t{1} << 22;
// Stream-seed salts: ladder rungs, nominal streams and the warm-up draw
// disjoint streams from the run's --seed.
constexpr std::uint64_t kLadderSalt = 0x6c6164646572ULL;
constexpr std::uint64_t kNominalSalt = 0x6e6f6d696e616cULL;
constexpr std::uint64_t kWarmupSalt = 0x7761726dULL;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : util::percentile(v, 50.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
  if (argc % 2 == 0) return std::nullopt;
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        return std::nullopt;
      o.trace = val[0] == '1';
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (end == val || *end != '\0')) return std::nullopt;
  }
  if (o.workload.empty() || !(o.seconds > 0.0) || !std::isfinite(o.seconds))
    return std::nullopt;
  return o;
}

// --- passes -------------------------------------------------------------

struct Pass {
  serve::ServeReport report;
  double wall_s = 0.0;     ///< wall time of the run() call
  std::size_t issued = 0;  ///< requests issued, updates included
  double session_hit_rate = 0.0;
  double max_kick_chain = 0.0;

  std::size_t unserved() const {
    const std::size_t done = report.size() + report.updates;
    return issued > done ? issued - done : 0;
  }
  double host_qps() const {
    return ratio(static_cast<double>(report.size()), wall_s);
  }
};

Pass run_pass(serve::ServingRuntime& rt, const serve::LoadGenConfig& lg) {
  serve::LoadGenerator gen(lg);
  Pass p;
  const auto t0 = Clock::now();
  p.report = rt.run(gen);
  p.wall_s = seconds_since(t0);
  p.issued = gen.issued();
  if (const auto* s = gen.sessions(); s != nullptr) {
    p.session_hit_rate = s->stats().hit_rate();
    p.max_kick_chain = static_cast<double>(s->max_kick_chain());
  }
  return p;
}

/// FNV-1a over every simulated figure of a report: two passes agree on it
/// only if they agree bit for bit.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t sim_digest(const serve::ServeReport& r) {
  Digest d;
  d.add(std::uint64_t{r.size()});
  d.add(std::uint64_t{r.batches});
  d.add(std::uint64_t{r.updates});
  d.add(r.makespan.value);
  for (const auto* stats : {&r.filter_stats, &r.rank_stats})
    for (const auto& op : stats->ops) {
      d.add(op.latency.value);
      d.add(op.energy.value);
    }
  for (std::uint64_t c :
       {r.cache.hits, r.cache.misses, r.cache.update_hits,
        r.cache.update_misses, r.cache.flushes, r.cache.warm_hits,
        r.cache.cold_faults, r.cache.warm_evictions, r.cache.promotions})
    d.add(c);
  for (const auto& s : r.shards) {
    for (const auto& b : s.stage_busy) d.add(b.value);
    d.add(s.write_busy.value);
  }
  for (const auto& c : r.classes) {
    d.add(std::uint64_t{c.queries});
    d.add(std::uint64_t{c.slo_violations});
    d.add(c.device_time.value);
  }
  for (const auto& q : r.queries) {
    d.add(std::uint64_t{q.id});
    d.add(q.dispatch.value);
    d.add(q.complete.value);
    d.add(q.energy.value);
    for (const auto& t : q.topk) {
      d.add(std::uint64_t{t.item});
      d.add(static_cast<double>(t.score));
    }
  }
  if (r.streaming.enabled) {
    d.add(r.streaming.energy_pj_sum);
    d.add(r.streaming.latency.sum());
    d.add(r.streaming.latency.percentile(50.0));
    d.add(r.streaming.latency.percentile(99.0));
  }
  return d.value();
}

/// Correctness tally over every measured pass.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t audited = 0;
  std::size_t mismatches = 0;
  bool correct = true;

  void fail(const std::string& what) {
    std::cout << "MISMATCH: " << what << "\n";
    correct = false;
  }
  /// Counts the pass's requests and its unserved ones.
  void served(const Pass& p) {
    attempted += p.issued;
    failed += p.unserved();
    if (p.unserved() > 0)
      fail(std::to_string(p.unserved()) + " of " + std::to_string(p.issued) +
           " requests unserved");
  }
  void audit(const AuditResult& a) {
    audited += a.checked;
    mismatches += a.mismatches;
    failed += a.mismatches;
    if (a.mismatches > 0)
      fail(std::to_string(a.mismatches) + " of " + std::to_string(a.checked) +
           " audited queries differ from the serial oracle");
  }
  /// A repeat of a stream must reproduce its simulated results exactly; a
  /// pass that does not counts every one of its requests as failed.
  void repeat(const Pass& p, std::uint64_t expected, const char* what) {
    if (sim_digest(p.report) == expected) return;
    failed += p.issued;
    fail(std::string(what) + " pass differs from the first pass of its stream");
  }
};

// --- output -------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(Checks& checks, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::cout << m.name << " = " << number(m.value) << " " << m.unit << "\n";
    if (!std::isfinite(m.value)) checks.fail(m.name + " is not finite");
  }
  std::cout << "error_frac = "
            << number(ratio(static_cast<double>(checks.failed),
                            static_cast<double>(checks.attempted)))
            << " (" << checks.failed << " of " << checks.attempted
            << " requests failed)\n";
  std::cout << "{\"correct\": " << (checks.correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = metrics[i].value;
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << number(std::isfinite(v) ? v : 0.0)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- set-up -------------------------------------------------------------

/// The stream of nominal pass `i` (0 = the stream every repeat and traced
/// pass reuses).
serve::LoadGenConfig nominal_load(const Workload& wl, std::uint64_t seed,
                                  std::uint64_t i) {
  const WorkloadSpec& spec = wl.spec();
  return wl.load(spec.nominal_qps, util::hash64(seed, kNominalSalt + i),
                 spec.queries);
}

/// Builds the workload `runs` times, each time serving its warm-up stream;
/// keeps the last build and appends each set-up time to `setup_s`.
std::unique_ptr<Workload> set_up(const Options& opt, std::size_t runs,
                                 std::vector<double>& setup_s) {
  std::unique_ptr<Workload> wl;
  for (std::size_t i = 0; i < runs; ++i) {
    wl.reset();  // free the previous build first: it counts toward peak RSS
    const auto t0 = Clock::now();
    wl = make_workload(opt.workload);
    wl->setup();
    const WorkloadSpec& spec = wl->spec();
    (void)run_pass(wl->runtime(),
                   wl->load(spec.nominal_qps,
                            util::hash64(opt.seed, kWarmupSalt),
                            spec.warmup_queries));
    setup_s.push_back(seconds_since(t0));
  }
  return wl;
}

// --- the SLO ladder ------------------------------------------------------

struct Rung {
  double rate = 0.0;
  double slo_p99_us = 0.0;
  double drain = 0.0;   ///< last query arrival / makespan
  double stress = 0.0;  ///< > 1 misses the SLO or builds a backlog
};

/// A rung's stress: the larger of p99 over the SLO and the backlog term
/// (1 - drain) / 0.02, which reaches 1 exactly when the fabric serves only
/// 0.98x the offered rate.
double stress(double p99_us, double slo_us, double drain) {
  return std::max(p99_us / slo_us, (1.0 - drain) / 0.02);
}

/// Highest rate meeting the SLO: from the highest rung that meets it, the
/// point where the stress crosses 1 on the way to the next rung,
/// interpolated geometrically (stress climbs roughly exponentially near
/// saturation). A ladder whose rungs all miss scales its first rung down
/// by the stress; one whose top rung meets reports that rung.
double max_qps_at_slo(const std::vector<Rung>& rungs) {
  if (rungs.back().stress <= 1.0) {
    std::cout << "warning: the top rung meets the SLO\n";
    return rungs.back().rate;
  }
  for (std::size_t j = rungs.size() - 1; j > 0; --j) {
    const Rung& lo = rungs[j - 1];
    const Rung& hi = rungs[j];
    if (lo.stress > 1.0) continue;
    const double t =
        std::log(lo.stress) / (std::log(lo.stress) - std::log(hi.stress));
    return lo.rate + t * (hi.rate - lo.rate);
  }
  return rungs.front().rate / rungs.front().stress;
}

/// Latest arrival among the stream's queries (updates excluded).
double last_query_arrival_ns(const serve::LoadGenConfig& lg) {
  serve::LoadGenerator gen(lg);
  double last = 0.0;
  while (auto r = gen.next_arrival())
    if (!r->is_update) last = std::max(last, r->enqueue.value);
  return last;
}

/// p99 (ns) of the queries the SLO applies to.
double slo_p99_ns(const WorkloadSpec& spec, const serve::ServeReport& r) {
  return spec.slo_class ? r.class_p99_latency_ns(*spec.slo_class)
                        : r.p99_latency_ns();
}

double ladder(Workload& wl, const Options& opt, Checks& checks) {
  const WorkloadSpec& spec = wl.spec();
  std::vector<Rung> rungs;
  for (std::size_t i = 0; i < spec.ladder_qps.size(); ++i) {
    const auto lg = wl.load(spec.ladder_qps[i],
                            util::hash64(opt.seed, kLadderSalt + i),
                            spec.ladder_queries);
    const Pass p = run_pass(wl.runtime(), lg);
    checks.served(p);
    checks.audit(wl.audit(p.report));
    Rung g;
    g.rate = spec.ladder_qps[i];
    g.slo_p99_us = slo_p99_ns(spec, p.report) * 1e-3;
    g.drain = ratio(last_query_arrival_ns(lg), p.report.makespan.value);
    g.stress = stress(g.slo_p99_us, spec.slo_us, g.drain);
    rungs.push_back(g);
    std::cout << "ladder " << number(g.rate) << " q/s: SLO p99 "
              << number(g.slo_p99_us) << " us, drain " << number(g.drain)
              << ", stress " << number(g.stress)
              << (g.stress <= 1.0 ? " (meets SLO)\n" : " (misses SLO)\n");
  }
  return max_qps_at_slo(rungs);
}

// --- end-to-end metrics --------------------------------------------------

/// Ladder, pooled nominal streams and repeats: every end-to-end metric but
/// setup_s and host_peak_rss_mb.
std::vector<Metric> measure(Workload& wl, const Options& opt,
                            Checks& checks) {
  const WorkloadSpec& spec = wl.spec();
  const auto t_measure = Clock::now();
  const double max_qps = ladder(wl, opt, checks);

  std::vector<double> latencies_ns, host_qps;
  serve::StreamingHistogram pooled(wl.runtime().config().streaming_rel_err);
  double energy_pj = 0.0, served = 0.0, makespan_ns = 0.0;
  double slo_queries = 0.0, slo_misses = 0.0;
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < spec.nominal_streams; ++i) {
    const Pass p = run_pass(wl.runtime(), nominal_load(wl, opt.seed, i));
    checks.served(p);
    checks.audit(wl.audit(p.report));
    if (i == 0) expected = sim_digest(p.report);
    host_qps.push_back(p.host_qps());
    const serve::ServeReport& r = p.report;
    const double n = static_cast<double>(r.size());
    energy_pj += r.mean_energy_pj() * n;
    served += n;
    makespan_ns += r.makespan.value;
    // Unserved requests miss the SLO too.
    slo_queries += static_cast<double>(p.unserved());
    slo_misses += static_cast<double>(p.unserved());
    if (r.streaming.enabled) {
      pooled.merge(r.streaming.latency);
      continue;
    }
    for (const auto& q : r.queries) {
      const double lat = (q.complete - q.enqueue).value;
      latencies_ns.push_back(lat);
      if (spec.slo_class && q.qos_class != *spec.slo_class) continue;
      slo_queries += 1.0;
      if (lat > spec.slo_us * 1e3) slo_misses += 1.0;
    }
  }
  const serve::LoadGenConfig first = nominal_load(wl, opt.seed, 0);
  do {
    const Pass p = run_pass(wl.runtime(), first);
    checks.served(p);
    checks.repeat(p, expected, "repeat");
    host_qps.push_back(p.host_qps());
  } while (seconds_since(t_measure) < opt.seconds);

  const bool streaming = latencies_ns.empty();
  const double samples = streaming ? static_cast<double>(pooled.count())
                                   : static_cast<double>(latencies_ns.size());
  const double p50 = streaming ? pooled.percentile(50.0)
                               : util::percentile(latencies_ns, 50.0);
  const double p99 = streaming ? pooled.percentile(99.0)
                               : util::percentile(latencies_ns, 99.0);
  std::cout << "nominal: " << spec.nominal_streams << " streams, "
            << number(samples) << " latency samples, "
            << number(std::floor(samples / 100.0)) << " beyond p99\n";
  if (streaming)
    std::cout << "sim_slo_miss_frac: not counted (streaming report keeps no "
                 "per-query latencies)\n";
  else
    std::cout << "sim_slo_miss_frac = " << number(ratio(slo_misses, slo_queries))
              << " (" << number(slo_misses) << " of " << number(slo_queries)
              << " SLO-class queries over " << number(spec.slo_us)
              << " us or unserved)\n";
  std::cout << "host q/s per nominal pass:";
  for (double q : host_qps) std::cout << " " << number(std::round(q));
  std::cout << "\nhost q/s median " << number(median(host_qps))
            << "\nmeasured " << number(seconds_since(t_measure))
            << " s; audit: " << checks.audited << " queries checked, "
            << checks.mismatches << " mismatches\n";

  return {
      {"sim_p50_us", "us", p50 * 1e-3},
      {"sim_p99_us", "us", p99 * 1e-3},
      {"sim_qps", "1/s", ratio(served, makespan_ns * 1e-9)},
      {"sim_max_qps_at_slo", "1/s", max_qps},
      {"sim_energy_uj_per_query", "uJ", ratio(energy_pj * 1e-6, served)},
  };
}

// --- per-layer metrics --------------------------------------------------

constexpr const char* kNodes[] = {"filter", "rank",     "gather",
                                  "dense",  "interact", "score"};
constexpr std::pair<recsys::OpKind, const char*> kOps[] = {
    {recsys::OpKind::kEtLookup, "et_lookup"},
    {recsys::OpKind::kDnn, "dnn"},
    {recsys::OpKind::kNns, "nns"},
    {recsys::OpKind::kTopK, "topk"},
    {recsys::OpKind::kComm, "comm"},
    {recsys::OpKind::kEtWrite, "et_write"},
    {recsys::OpKind::kEtBlock, "et_block"}};

double span_us(const serve::ServeReport& r, std::string_view name) {
  for (const auto& [n, us] : r.host_span_us)
    if (n == name) return us;
  return 0.0;
}

double spans_us(const serve::ServeReport& r) {
  double sum = 0.0;
  for (const auto& [n, us] : r.host_span_us) sum += us;
  return sum;
}

/// What one traced pass measured besides its report and sink.
struct HostProbes {
  std::vector<double> servable_stage_ns;  ///< per stage, this pass
  double accesses_ns = 0.0;
  double load_gen_ns_per_req = 0.0;
  double cache_ns_per_access = 0.0;
};

std::vector<Metric> layer_metrics(const Pass& pass, const LayerSink& s,
                                  const HostProbes& h,
                                  const AuditResult& audit,
                                  const serve::PipelineSpec& spec) {
  const serve::ServeReport& r = pass.report;
  const double q = static_cast<double>(r.size());
  const double kq = q / 1000.0;
  const double shards = static_cast<double>(r.shards.size());
  const double unit_ns = r.makespan.value * shards;  // unit-time per node
  std::vector<Metric> m;
  auto put = [&](std::string name, std::string unit, double v) {
    m.push_back({std::move(name), std::move(unit), v});
  };

  put("load_gen.host_ns_per_req", "ns", h.load_gen_ns_per_req);
  put("session_table.hit_rate", "ratio", pass.session_hit_rate);
  put("session_table.max_kick_chain", "count", pass.max_kick_chain);

  const double batches = static_cast<double>(s.batches);
  put("batcher.mean_batch", "count", r.mean_batch_size());
  put("batcher.queue_wait_p50_us", "us", s.queue_wait_ns.percentile(50) * 1e-3);
  put("batcher.queue_wait_p99_us", "us", s.queue_wait_ns.percentile(99) * 1e-3);
  put("batcher.close_size_frac", "ratio",
      ratio(static_cast<double>(s.triggers[0]), batches));
  put("batcher.close_deadline_frac", "ratio",
      ratio(static_cast<double>(s.triggers[1]), batches));
  put("batcher.close_preemptive_frac", "ratio",
      ratio(static_cast<double>(s.triggers[2]), batches));
  put("batcher.host_us_per_kq", "us", ratio(span_us(r, "host.batcher"), kq));

  put("runtime.gate_wait_p99_us", "us", s.gate_wait_ns.percentile(99) * 1e-3);
  put("runtime.host_submit_us_per_kq", "us",
      ratio(span_us(r, "host.submit"), kq));
  put("runtime.host_report_us_per_kq", "us",
      ratio(span_us(r, "host.report"), kq));
  put("runtime.host_wait_us_per_kq", "us", ratio(span_us(r, "host.wait"), kq));
  put("runtime.host_unattributed_frac", "ratio",
      1.0 - ratio(spans_us(r), pass.wall_s * 1e6));

  for (const char* node : kNodes) {
    const auto it = s.nodes.find(node);
    const LayerSink::Node n =
        it == s.nodes.end() ? LayerSink::Node{} : it->second;
    const std::string p = std::string("pipeline.") + node;
    put(p + ".busy_share", "ratio", ratio(n.busy_ns, unit_ns));
    put(p + ".unit_wait_us_per_q", "us", ratio(n.unit_wait_ns * 1e-3, q));
    put(p + ".et_wait_us_per_q", "us", ratio(n.et_wait_ns * 1e-3, q));
  }
  double busy_max = 0.0, busy_sum = 0.0, write_busy = 0.0;
  for (const auto& u : r.shards) {
    busy_max = std::max(busy_max, u.total_busy().value);
    busy_sum += u.total_busy().value;
    write_busy += u.write_busy.value;
  }
  put("pipeline.service_p99_us", "us", s.service_ns.percentile(99) * 1e-3);
  put("pipeline.et_busy_share", "ratio", ratio(s.et_busy_ns, unit_ns));
  put("pipeline.shard_imbalance", "ratio", ratio(busy_max * shards, busy_sum));
  put("pipeline.host_collect_us_per_kq", "us",
      ratio(span_us(r, "host.collect"), kq));

  const auto& c = r.cache;
  put("hot_cache.hit_rate", "ratio", c.hit_rate());
  put("hot_cache.accesses_per_q", "count",
      ratio(static_cast<double>(c.accesses()), q));
  put("hot_cache.write_hit_rate", "ratio", c.write_hit_rate());
  put("hot_cache.flushes_per_kq", "count",
      ratio(static_cast<double>(c.flushes), kq));
  put("hot_cache.warm_hit_rate", "ratio",
      ratio(static_cast<double>(c.warm_hits), static_cast<double>(c.misses)));
  put("hot_cache.cold_faults_per_kq", "count",
      ratio(static_cast<double>(c.cold_faults), kq));
  put("hot_cache.migrations_per_kq", "count",
      ratio(static_cast<double>(s.migrations), kq));
  put("hot_cache.write_busy_share", "ratio", ratio(write_busy, unit_ns));
  put("hot_cache.host_ns_per_access", "ns", h.cache_ns_per_access);

  for (const char* node : kNodes) {
    double ns = 0.0;
    for (std::size_t i = 0; i < spec.stages.size(); ++i)
      if (spec.stages[i].name == node) ns += h.servable_stage_ns[i];
    put(std::string("servable.") + node + ".host_us_per_q", "us",
        ratio(ns * 1e-3, q));
  }
  put("servable.accesses.host_ns_per_q", "ns", ratio(h.accesses_ns, q));

  recsys::StageStats ops = r.filter_stats;
  ops.merge(r.rank_stats);
  for (const auto& [kind, name] : kOps) {
    const std::string p = std::string("op.") + name;
    put(p + ".us_per_q", "us", ratio(ops.at(kind).latency.us(), q));
    put(p + ".uj_per_q", "uJ", ratio(ops.at(kind).energy.uj(), q));
  }

  // |ln(measured improvement / paper improvement)|; 0 without a paper
  // reference.
  const PaperAudit& a = audit.paper;
  const double n = static_cast<double>(a.queries);
  auto gap = [](double gpu, double imars, double paper) {
    return paper > 0.0 && gpu > 0.0 && imars > 0.0
               ? std::fabs(std::log(gpu / imars / paper))
               : 0.0;
  };
  put("audit.imars_serial_us_per_q", "us", ratio(a.imars_us, n));
  put("audit.imars_serial_uj_per_q", "uJ", ratio(a.imars_uj, n));
  put("baseline.gpu_us_per_q", "us", ratio(a.gpu_us, n));
  put("baseline.gpu_uj_per_q", "uJ", ratio(a.gpu_uj, n));
  put("audit.paper_gap_latency", "ln",
      gap(a.gpu_us, a.imars_us, a.paper_latency_x));
  put("audit.paper_gap_energy", "ln",
      gap(a.gpu_uj, a.imars_uj, a.paper_energy_x));
  return m;
}

/// Wall ns per request of draining a fresh generator over `lg`.
double load_gen_ns_per_req(const serve::LoadGenConfig& lg) {
  serve::LoadGenerator gen(lg);
  std::size_t n = 0;
  const auto t0 = Clock::now();
  while (gen.next_arrival()) ++n;
  return ratio(seconds_since(t0) * 1e9, static_cast<double>(n));
}

/// Wall ns per access of replaying `keys` through a fresh cache.
double cache_ns_per_access(const serve::HotCacheConfig& cfg,
                           const std::vector<std::uint64_t>& keys) {
  serve::HotEmbeddingCache cache(cfg);
  const auto t0 = Clock::now();
  for (std::uint64_t k : keys)
    (void)cache.access(static_cast<std::uint32_t>(k >> 32),
                       static_cast<std::uint32_t>(k));
  return ratio(seconds_since(t0) * 1e9, static_cast<double>(keys.size()));
}

/// Alternating untraced and traced passes of the first nominal stream, so
/// both see the same machine conditions: the per-layer metrics, each the
/// median over the traced passes (simulated ones are equal in every pass),
/// plus the untraced passes' host throughput and the tracing overhead.
std::vector<Metric> trace_layers(Workload& wl, const Options& opt,
                                 Checks& checks) {
  const serve::LoadGenConfig first = nominal_load(wl, opt.seed, 0);
  auto timed_owner =
      std::make_unique<TimedServable>(wl.runtime().servable(), kCaptureLimit);
  TimedServable& timed = *timed_owner;
  const auto traced_rt = wl.runtime_over(std::move(timed_owner), true);
  const serve::PipelineSpec& spec = timed.spec();

  std::vector<std::vector<Metric>> per_pass;
  std::vector<double> plain_wall, traced_wall;
  double plain_served = 0.0;
  std::optional<AuditResult> audit;
  std::uint64_t expected = 0;
  const auto t0 = Clock::now();
  while (per_pass.size() < 2 || seconds_since(t0) < opt.seconds) {
    const Pass plain = run_pass(wl.runtime(), first);
    checks.served(plain);
    if (plain_wall.empty())
      expected = sim_digest(plain.report);
    else
      checks.repeat(plain, expected, "untraced");
    plain_wall.push_back(plain.wall_s);
    plain_served += static_cast<double>(plain.report.size());

    HostProbes h;
    h.load_gen_ns_per_req = load_gen_ns_per_req(first);
    LayerSink sink;
    traced_rt->set_observer(&sink);
    const Pass traced = run_pass(*traced_rt, first);
    traced_rt->set_observer(nullptr);
    checks.served(traced);
    checks.repeat(traced, expected, "traced");
    if (spans_us(traced.report) > traced.wall_s * 1e6)
      checks.fail("host spans exceed the traced pass's wall time");
    traced_wall.push_back(traced.wall_s);
    if (!audit) {
      audit = wl.audit(traced.report);
      checks.audit(*audit);
    }
    h.servable_stage_ns = timed.take_stage_ns();
    h.accesses_ns = timed.take_accesses_ns();
    timed.stop_capture();
    h.cache_ns_per_access =
        cache_ns_per_access(wl.runtime().config().cache, timed.captured());
    per_pass.push_back(layer_metrics(traced, sink, h, *audit, spec));
  }

  std::vector<Metric> out = per_pass.front();
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::vector<double> v;
    for (const auto& pm : per_pass) v.push_back(pm[k].value);
    out[k].value = median(std::move(v));
  }
  double plain_wall_s = 0.0;
  for (double w : plain_wall) plain_wall_s += w;
  out.push_back({"host.qps", "1/s", ratio(plain_served, plain_wall_s)});
  out.push_back({"trace.overhead_frac", "ratio",
                 median(traced_wall) / median(plain_wall) - 1.0});
  std::cout << "passes: " << plain_wall.size() << " untraced, "
            << traced_wall.size() << " traced, each reproducing the first "
            << "bit for bit; audit: " << checks.audited
            << " queries checked, " << checks.mismatches << " mismatches\n";
  return out;
}

int run(const Options& opt) {
  std::vector<double> setup_s;
  const auto wl = set_up(opt, opt.trace ? 1 : kSetupRuns, setup_s);
  const WorkloadSpec& spec = wl->spec();
  std::cout << "workload " << spec.name << " seed " << opt.seed
            << ": open loop, nominal " << number(spec.nominal_qps)
            << " q/s, " << spec.queries << " requests per pass; SLO p99 <= "
            << number(spec.slo_us) << " us"
            << (spec.slo_class
                    ? " (class " + std::to_string(*spec.slo_class) + ")\n"
                    : "\n");
  std::cout << "setup runs (s):";
  for (double s : setup_s) std::cout << " " << number(s);
  std::cout << "\n";

  Checks checks;
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = trace_layers(*wl, opt, checks);
  } else {
    metrics = measure(*wl, opt, checks);
    metrics.push_back({"setup_s", "s", median(setup_s)});
    metrics.push_back({"host_peak_rss_mb", "MB", peak_rss_mb()});
  }
  print_result(checks, metrics);
  return checks.correct ? 0 : 1;
}

}  // namespace
}  // namespace imars::bench

int main(int argc, char** argv) {
  const auto opt = imars::bench::parse(argc, argv);
  if (!opt || !imars::bench::make_workload(opt->workload)) {
    std::cerr << "usage: imars_bench --workload <name> [--seed N] "
                 "[--seconds T] [--trace 0|1]\nworkloads:";
    for (const auto& n : imars::bench::workload_names()) std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
  }
  try {
    return imars::bench::run(*opt);
  } catch (const std::exception& e) {
    std::cerr << "imars_bench: " << e.what() << "\n";
    return 1;
  }
}
