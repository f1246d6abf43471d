#include "workloads.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "baseline/cpu_backend.hpp"
#include "baseline/gpu_model.hpp"
#include "core/backend.hpp"
#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "core/perf_model.hpp"
#include "harness.hpp"
#include "serve/servable_ctr.hpp"
#include "serve/shard_router.hpp"
#include "util/rng.hpp"

namespace imars::bench {
namespace {

using device::Ns;

/// Results in the merge unit's canonical order (score desc, item asc).
std::vector<recsys::ScoredItem> canonical(std::vector<recsys::ScoredItem> v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  });
  return v;
}

bool same_results(std::span<const recsys::ScoredItem> served,
                  std::vector<recsys::ScoredItem> expected) {
  const auto got =
      canonical(std::vector<recsys::ScoredItem>(served.begin(), served.end()));
  expected = canonical(std::move(expected));
  if (got.size() != expected.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i].item != expected[i].item || got[i].score != expected[i].score)
      return false;
  return true;
}

void add_costs(PaperAudit& a, const recsys::StageStats& imars,
               const recsys::StageStats& gpu) {
  ++a.queries;
  a.imars_us += imars.total().latency.us();
  a.imars_uj += imars.total().energy.uj();
  a.gpu_us += gpu.total().latency.us();
  a.gpu_uj += gpu.total().energy.uj();
}

/// What every workload shares: its spec, the serving configuration and the
/// runtime setup() builds over it.
class FabricWorkload : public Workload {
 public:
  const WorkloadSpec& spec() const override { return spec_; }
  serve::ServingRuntime& runtime() override { return *rt_; }

  std::unique_ptr<serve::ServingRuntime> runtime_over(
      std::unique_ptr<serve::ServableBackend> servable,
      bool self_profile) const override {
    serve::ServingConfig cfg = cfg_;
    cfg.self_profile = self_profile;
    return std::make_unique<serve::ServingRuntime>(
        std::move(servable), cfg, arch_, device::DeviceProfile::fefet45(),
        shard_profiles_);
  }

 protected:
  WorkloadSpec spec_;
  core::ArchConfig arch_;
  serve::ServingConfig cfg_;
  /// Per-shard technologies; empty = every shard is FeFET-45.
  std::vector<device::DeviceProfile> shard_profiles_;
  std::unique_ptr<serve::ServingRuntime> rt_;
};

// --- ml_filter_rank ---------------------------------------------------------

/// MovieLens-1M at full scale through YouTubeDNN on four FeFET-45 shards:
/// replicated TCAM filter, sharded crossbar rank. The paper's headline
/// workload; host time is the functional kernels.
class MlFilterRank final : public FabricWorkload {
 public:
  MlFilterRank() {
    spec_.name = "ml_filter_rank";
    spec_.nominal_qps = 70e3;
    spec_.nominal_streams = 6;
    spec_.queries = 1500;
    spec_.ladder_qps = {100e3, 106e3, 115e3};
    spec_.ladder_queries = 4000;
    spec_.warmup_queries = 200;
    spec_.slo_us = 500.0;
  }

  void setup() override {
    ml_ = make_movielens(1.0, 4, 2);
    for (std::size_t u = 0; u < ml_.ds->num_users(); ++u)
      users_.push_back(ml_.model->make_context(*ml_.ds, u));
    const std::vector<recsys::UserContext> calib(users_.begin(),
                                                 users_.begin() + 8);

    core::ImarsBackendConfig icfg;
    icfg.timing = core::TimingMode::kWorstCaseSameArray;
    icfg.max_candidates = core::kEndToEndCandidates;
    icfg.nns_radius = 28;
    const auto factory = core::imars_backend_factory(
        *ml_.model, arch_, device::DeviceProfile::fefet45(), icfg, calib);

    cfg_.shards = 4;
    cfg_.k = 10;
    cfg_.batcher.max_batch = 8;
    cfg_.batcher.max_wait = Ns{500000.0};
    cfg_.cache.capacity_rows = 4096;
    cfg_.traffic.filter_features = ml_.model->filter_features();
    cfg_.traffic.rank_features = ml_.model->rank_features();
    cfg_.overlap = true;
    auto router =
        std::make_unique<serve::ShardRouter>(factory, cfg_.shards, cfg_.traffic);
    router->bind_users(users_);
    rt_ = runtime_over(std::move(router), false);

    oracle_ = std::make_unique<core::ImarsBackend>(
        *ml_.model, arch_, device::DeviceProfile::fefet45(), icfg, calib);
    baseline::GpuBackendConfig gcfg;
    gcfg.candidates = core::kEndToEndCandidates;
    gpu_ = std::make_unique<baseline::GpuModelBackend>(*ml_.model, gpu_model_,
                                                       gcfg);
  }

  serve::LoadGenConfig load(double rate, std::uint64_t seed,
                            std::size_t requests) const override {
    serve::LoadGenConfig lg;
    lg.total_queries = requests;
    lg.num_users = users_.size();
    lg.user_zipf_s = 0.9;
    lg.seed = seed;
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = rate;
    return lg;
  }

  AuditResult audit(const serve::ServeReport& report) override {
    AuditResult r;
    r.paper.paper_latency_x = 16.8;
    r.paper.paper_energy_x = 713.0;
    for (const auto& q : report.queries) {
      if (q.id % kAuditEvery != 0) continue;
      const auto& user = users_.at(q.user);
      recsys::StageStats f, rk, gf, gr;
      auto expected = recsys::recommend(*oracle_, user, cfg_.k, &f, &rk);
      (void)recsys::recommend(*gpu_, user, cfg_.k, &gf, &gr);
      ++r.checked;
      if (!same_results(q.topk, std::move(expected))) ++r.mismatches;
      f.merge(rk);
      gf.merge(gr);
      add_costs(r.paper, f, gf);
    }
    return r;
  }

 private:
  MovieLensSetup ml_;
  std::vector<recsys::UserContext> users_;
  std::unique_ptr<core::ImarsBackend> oracle_;
  baseline::GpuModel gpu_model_;
  std::unique_ptr<baseline::GpuModelBackend> gpu_;
};

// --- the two DLRM workloads -------------------------------------------------

/// Shared by the two DLRM workloads: the model, its impression population,
/// and the serial oracle and paper audit, which both score impressions one
/// at a time on a FeFET-45 ImarsCtrBackend.
class CtrWorkload : public FabricWorkload {
 public:
  AuditResult audit(const serve::ServeReport& report) override {
    AuditResult r;
    r.paper.paper_latency_x = 13.2;
    r.paper.paper_energy_x = 57.8;
    for (const auto& q : report.queries) {
      if (q.id % kAuditEvery != 0) continue;
      const auto& s = samples_.at(q.user);
      recsys::StageStats imars, gpu;
      const float expected = oracle_->score(s.dense, s.sparse, &imars);
      (void)gpu_->score(s.dense, s.sparse, &gpu);
      ++r.checked;
      if (!same_results(q.topk, {{q.user, expected}})) ++r.mismatches;
      add_costs(r.paper, imars, gpu);
    }
    return r;
  }

 protected:
  /// Trains the model and builds the oracle; returns a servable over
  /// `graph` on shard_profiles_ with the population bound.
  std::unique_ptr<serve::CtrServable> setup_model(serve::CtrGraph graph) {
    criteo_ = make_criteo(4000, 2);
    for (std::size_t i = 0; i < criteo_.ds->size(); ++i)
      samples_.push_back(criteo_.ds->sample(i));
    const std::vector<data::CriteoSample> calib(samples_.begin(),
                                                samples_.begin() + 8);
    const auto factory = core::imars_ctr_backend_factory(
        *criteo_.model, arch_, core::TimingMode::kWorstCaseSameArray, calib);
    oracle_ = std::make_unique<core::ImarsCtrBackend>(
        *criteo_.model, arch_, device::DeviceProfile::fefet45(),
        core::TimingMode::kWorstCaseSameArray, calib);
    gpu_ = std::make_unique<baseline::GpuCtrBackend>(*criteo_.model,
                                                     gpu_model_);
    auto servable =
        std::make_unique<serve::CtrServable>(factory, shard_profiles_, graph);
    servable->bind_samples(samples_);
    return servable;
  }

  CriteoSetup criteo_;
  std::vector<data::CriteoSample> samples_;  ///< the impression population
  std::unique_ptr<core::ImarsCtrBackend> oracle_;
  baseline::GpuModel gpu_model_;
  std::unique_ptr<baseline::GpuCtrBackend> gpu_;
};

/// Criteo DLRM through the tower DAG (gather || dense -> interact) on a
/// mixed FeFET-45 / FeFET-22 / 2x ReRAM-45 fabric with capability-weighted
/// placement. The paper's second workload, on a different code path.
class CtrDlrmDag final : public CtrWorkload {
 public:
  CtrDlrmDag() {
    spec_.name = "ctr_dlrm_dag";
    spec_.nominal_qps = 1.3e6;
    spec_.nominal_streams = 4;
    spec_.queries = 10000;
    spec_.ladder_qps = {1.75e6, 1.85e6, 1.95e6};
    spec_.ladder_queries = 10000;
    spec_.warmup_queries = 2000;
    spec_.slo_us = 100.0;
  }

  void setup() override {
    shard_profiles_ = {device::DeviceProfile::fefet45(),
                       device::DeviceProfile::fefet22(),
                       device::DeviceProfile::reram45(),
                       device::DeviceProfile::reram45()};
    auto servable = setup_model(serve::CtrGraph::kTowerDag);
    cfg_.k = 1;
    cfg_.batcher.max_batch = 16;
    cfg_.batcher.max_wait = Ns{500000.0};
    cfg_.cache.capacity_rows = 8192;
    cfg_.shard_map = serve::ShardMap::from_costs(
        servable->probe_score_cost(samples_.front()));
    cfg_.overlap = true;
    rt_ = runtime_over(std::move(servable), false);
  }

  serve::LoadGenConfig load(double rate, std::uint64_t seed,
                            std::size_t requests) const override {
    serve::LoadGenConfig lg;
    lg.total_queries = requests;
    lg.num_users = samples_.size();
    lg.user_zipf_s = 0.9;
    lg.seed = seed;
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = rate;
    return lg;
  }
};

/// The fused DLRM graph on two FeFET-45 shards over a three-tier embedding
/// memory, with 10% embedding-update writes, two QoS classes under gated
/// admission, and a Zipf hot set that rotates halfway through the stream.
class TieredUpdateDrift final : public CtrWorkload {
 public:
  TieredUpdateDrift() {
    spec_.name = "tiered_update_drift";
    spec_.nominal_qps = 250e3;
    spec_.nominal_streams = 4;
    spec_.queries = 10000;
    spec_.ladder_qps = {320e3, 340e3, 360e3};
    spec_.ladder_queries = 12000;
    spec_.warmup_queries = 2000;
    spec_.slo_us = 400.0;
    spec_.slo_class = 0;
  }

  void setup() override {
    shard_profiles_.assign(2, device::DeviceProfile::fefet45());
    auto servable = setup_model(serve::CtrGraph::kFused);
    cfg_.k = 1;
    cfg_.cache.capacity_rows = 256;
    cfg_.cache.warm_capacity_rows = 2048;
    cfg_.cache.cold_block_rows = 8;
    cfg_.cache.migrate = true;
    serve::QosClassConfig interactive;
    interactive.name = "interactive";
    interactive.max_batch = 4;
    interactive.max_wait = Ns{50000.0};
    interactive.deadline = Ns{spec_.slo_us * 1e3};
    interactive.weight = 3.0;
    serve::QosClassConfig bulk;
    bulk.name = "bulk";
    bulk.max_batch = 16;
    bulk.max_wait = Ns{500000.0};
    bulk.weight = 1.0;
    cfg_.qos.classes = {interactive, bulk};
    cfg_.qos.admit_window = Ns{20000.0};
    cfg_.overlap = true;
    rt_ = runtime_over(std::move(servable), false);
  }

  /// Two Poisson phases of equal length at `rate`; the second shifts every
  /// drawn impression by half the population, so the hot rows drift.
  serve::LoadGenConfig load(double rate, std::uint64_t seed,
                            std::size_t requests) const override {
    serve::LoadGenConfig base;
    base.total_queries = requests / 2;
    base.num_users = samples_.size();
    base.user_zipf_s = 1.1;
    base.arrivals = serve::ArrivalProcess::kOpenPoisson;
    base.rate_qps = rate;
    base.class_mix = {0.3, 0.7};
    base.update_fraction = 0.1;
    serve::LoadGenConfig lg = base;
    lg.arrivals = serve::ArrivalProcess::kTrace;
    double t0 = 0.0;
    for (std::uint64_t phase = 0; phase < 2; ++phase) {
      serve::LoadGenConfig pl = base;
      pl.seed = util::hash64(seed, phase);
      serve::LoadGenerator gen(pl);
      double last = t0;
      while (auto r = gen.next_arrival()) {
        serve::Request q = *r;
        if (phase == 1) q.user = (q.user + base.num_users / 2) % base.num_users;
        q.enqueue = Ns{q.enqueue.value + t0};
        q.id = lg.trace.size();
        last = q.enqueue.value;
        lg.trace.push_back(q);
      }
      t0 = last + 1e9 / rate;
    }
    lg.total_queries = lg.trace.size();
    return lg;
  }
};

// --- synth_host_1m ----------------------------------------------------------

/// splitmix64 finalizer: the synthetic servable's item and score hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Single sharded "score" stage over hash-derived candidates: functional
/// work is nearly free, so host time is the serving path itself. Each
/// query's candidate window drifts with its session sequence, and every
/// candidate touches one ET row.
class SynthServable final : public serve::ServableBackend {
 public:
  SynthServable(std::size_t shards, std::size_t candidates,
                std::size_t item_space, recsys::OpCost row_cost,
                recsys::OpCost score_cost)
      : shards_(shards),
        candidates_(candidates),
        item_space_(item_space),
        row_cost_(row_cost),
        score_cost_(score_cost) {
    spec_.stages = {{"score", serve::StageKind::kSharded, {}}};
    spec_.merge_topk = true;
  }

  std::string_view name() const override { return "synth-hash"; }
  const serve::PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return shards_; }

  std::vector<std::size_t> initial_items(
      const serve::Request& req) const override {
    std::vector<std::size_t> items(candidates_);
    const std::uint64_t base =
        req.user * 0x9e3779b97f4a7c15ULL + (req.session_seq / 4u);
    for (std::size_t j = 0; j < candidates_; ++j)
      items[j] = mix(base + j) % item_space_;
    return items;
  }

  std::vector<std::size_t> run_replicated(std::size_t, std::size_t,
                                          const serve::Request&,
                                          recsys::StageStats*) override {
    return {};
  }

  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t, std::size_t, const serve::Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) override {
    const double n = static_cast<double>(slice.size());
    auto& et = stats->at(recsys::OpKind::kEtLookup);
    et.latency.value += row_cost_.latency.value * n;
    et.energy.value += row_cost_.energy.value * n;
    auto& dnn = stats->at(recsys::OpKind::kDnn);
    dnn.latency.value += score_cost_.latency.value * n;
    dnn.energy.value += score_cost_.energy.value * n;
    std::vector<recsys::ScoredItem> out;
    out.reserve(slice.size());
    for (std::size_t item : slice)
      out.push_back(
          {item, static_cast<float>(mix(item ^ (req.user << 1)) >> 40)});
    out = canonical(std::move(out));
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::vector<serve::RowAccess> accesses(
      std::size_t stage, const serve::Request& req,
      std::span<const std::size_t> slice) const override {
    std::vector<serve::RowAccess> out;
    accesses_into(stage, req, slice, out);
    return out;
  }

  void accesses_into(std::size_t, const serve::Request&,
                     std::span<const std::size_t> slice,
                     std::vector<serve::RowAccess>& out) const override {
    for (std::size_t item : slice)
      out.push_back({0, static_cast<std::uint32_t>(item), false, false});
  }

 private:
  std::size_t shards_;
  std::size_t candidates_;
  std::size_t item_space_;
  recsys::OpCost row_cost_;
  recsys::OpCost score_cost_;
  serve::PipelineSpec spec_;
};

/// The million-user, cache-thrashing steady state: 10^6 Zipf users through
/// a 10^5-slot session table, a working set far larger than the cache, and
/// a streaming report. Almost all host time is the serve/ host path.
class SynthHost1m final : public FabricWorkload {
 public:
  SynthHost1m() {
    spec_.name = "synth_host_1m";
    spec_.nominal_qps = 5e6;
    spec_.nominal_streams = 4;
    spec_.queries = 200000;
    spec_.ladder_qps = {5.8e6, 6.0e6, 6.2e6};
    spec_.ladder_queries = 200000;
    spec_.warmup_queries = 50000;
    spec_.slo_us = 20.0;
  }

  void setup() override {
    cfg_.shards = 4;
    cfg_.k = 8;
    cfg_.batcher.max_batch = 32;
    cfg_.cache.capacity_rows = 16384;
    cfg_.overlap = true;
    cfg_.streaming_report = true;
    // Fine enough that the pooled percentiles resolve the differences
    // between seeds instead of snapping to one bucket.
    cfg_.streaming_rel_err = 1e-4;
    const core::PerfModel model(arch_, device::DeviceProfile::fefet45());
    const auto fetch = model.row_fetch();
    rt_ = runtime_over(std::make_unique<SynthServable>(
                           cfg_.shards, kCandidates, kUsers,
                           recsys::OpCost{fetch.latency, fetch.energy},
                           recsys::OpCost{Ns{25.0}, device::Pj{40.0}}),
                       false);
  }

  serve::LoadGenConfig load(double rate, std::uint64_t seed,
                            std::size_t requests) const override {
    serve::LoadGenConfig lg;
    lg.clients = 32;
    lg.total_queries = requests;
    lg.num_users = kUsers;
    lg.user_zipf_s = 0.9;
    lg.seed = seed;
    lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
    lg.rate_qps = rate;
    lg.session_mode = true;
    lg.session_capacity = kUsers / 10;
    lg.session_churn = 0.01;
    return lg;
  }

  /// The streaming report keeps no per-query records: the caller checks
  /// the served count against the issued count instead.
  AuditResult audit(const serve::ServeReport&) override { return {}; }

 private:
  static constexpr std::size_t kUsers = 1000000;
  static constexpr std::size_t kCandidates = 24;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ml_filter_rank", "ctr_dlrm_dag", "synth_host_1m",
      "tiered_update_drift"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "ml_filter_rank") return std::make_unique<MlFilterRank>();
  if (name == "ctr_dlrm_dag") return std::make_unique<CtrDlrmDag>();
  if (name == "synth_host_1m") return std::make_unique<SynthHost1m>();
  if (name == "tiered_update_drift")
    return std::make_unique<TieredUpdateDrift>();
  return nullptr;
}

}  // namespace imars::bench
