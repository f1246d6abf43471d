// The concurrent serving runtime: glue between the load generator (closed-
// loop, open-loop Poisson or trace replay), the class-aware QoS batcher,
// the hot-embedding cache and the staged-pipeline engine over one abstract
// ServableBackend, which every QoS class (tenant) shares.
//
// The event loop advances simulated hardware time deterministically
// (arrivals, batch triggers, admission-gate openings, completions), while
// the functional recommendation work of each dispatched batch executes
// concurrently on the per-shard worker threads. With `overlap` enabled
// under completion-independent arrivals (open loop / trace), up to four
// batches stay in flight: batch b+1's early stages run on the worker
// threads while batch b's late stages finish (batch composition is
// completion-independent there, so the deferred accounting is
// bit-identical to phased execution).
//
// Multi-tenant QoS (PR 3): requests carry a priority class; each class has
// its own batching triggers, an optional end-to-end deadline with
// preemptive close, and a device-time weight. When the QoS config sets a
// positive `admit_window`, closed batches wait in a ready queue and are
// released to the fabric only as the device backlog frontier comes within
// the window — deadline classes are released earliest-deadline-first while
// inside their weight entitlement, everyone else by weighted virtual time,
// so a bulk tenant's flood cannot starve an interactive tenant. Admission
// gating needs completion feedback (the frontier), so it serializes
// collection like the closed loop does; the ungated single-class
// configuration reproduces the PR 2 engine bit-identically. Reported
// QPS / latency percentiles are in the device-model time domain, so they
// compose with every other number the simulator produces.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/backend_factory.hpp"
#include "core/config.hpp"
#include "core/perf_model.hpp"
#include "serve/batcher.hpp"
#include "serve/hot_cache.hpp"
#include "serve/load_gen.hpp"
#include "serve/serve_stats.hpp"
#include "serve/shard_router.hpp"
#include "serve/stage_pipeline.hpp"

namespace imars::serve {

/// Static tier placement: the hottest ET *rows* are pinned warm-resident
/// in the tiered cache before serving, so benches can compare static warm
/// pins against online migration under identical routing. The row profile
/// comes from an offline `warm_histogram` when one is supplied, otherwise
/// from a warmup window — a fresh LoadGenerator over the run's own config
/// (same seed, so the profiled traffic is the served traffic) whose
/// queries' row accesses (ServableBackend::profile_items, then
/// ServableBackend::accesses) are counted on the calling thread before any
/// batch is in flight.
struct PlacementConfig {
  std::size_t warmup_queries = 0;  ///< profile window length
  /// Hottest ET rows pinned warm. Requires a tiering-enabled cache; 0 = no
  /// warm pins.
  std::size_t warm_rows = 0;
  /// Offline row-frequency profile for warm pinning: key =
  /// (table << 32 | row) (overrides the warmup).
  std::vector<HotKey> warm_histogram;
};

struct ServingConfig {
  std::size_t shards = 4;
  std::size_t k = 10;  ///< global top-k per query
  DynamicBatcherConfig batcher;
  /// Multi-tenant class table. Empty classes = single-tenant: one class
  /// derived from `batcher`, ungated — the PR 2 configuration.
  QosBatcherConfig qos;
  HotCacheConfig cache;
  TrafficSpec traffic;  ///< per-stage ET traffic (filter/rank servable)
  /// Explicit item partition (e.g. ShardMap::weighted over capability
  /// weights, or ShardMap::from_costs over probed stage costs); when
  /// empty, the uniform modulo-compatible placement.
  ShardMap shard_map;
  /// Static warm-tier pins (see PlacementConfig).
  PlacementConfig placement;
  /// Async stage overlap: keep up to four batches in flight so a later
  /// batch's early stages overlap an earlier batch's late stages on the
  /// worker threads. Honored under completion-independent arrivals (open
  /// loop / trace) with an ungated QoS config (closed-loop batch
  /// composition and the admission gate both depend on completions, so
  /// those loops stay phased); hardware-time reports are identical either
  /// way.
  bool overlap = false;

  /// Streaming report: drop per-query retention and fill
  /// ServeReport::streaming instead — means exact, percentiles within
  /// `streaming_rel_err` (see StreamingAggregates; at least
  /// StreamingHistogram::kMinRelErr). Aggregate views answer identically
  /// (within resolution); record-only views throw.
  bool streaming_report = false;
  double streaming_rel_err = 0.01;
  /// Wall-clock self-profiling of the simulator's own hot path (batcher
  /// close, submit, collect(), report accumulation), reported through the
  /// attached observer as host spans and summarized into
  /// ServeReport::host_span_us. Host-side telemetry only — simulated time
  /// and reports are unaffected.
  bool self_profile = false;

  /// The effective class table (explicit `qos`, or the single-tenant table
  /// derived from `batcher`).
  QosBatcherConfig effective_qos() const {
    return qos.classes.empty() ? QosBatcherConfig::single(batcher) : qos;
  }
};

class ServingRuntime {
 public:
  /// Filter/rank fabric from a uniform factory (one replica per shard,
  /// built in parallel). `arch`/`profile` parameterize the cache/merge
  /// timing model and should match what the factory's backends use.
  ServingRuntime(const core::BackendFactory& factory,
                 const ServingConfig& cfg, const core::ArchConfig& arch,
                 const device::DeviceProfile& profile);

  /// Generic fabric over any servable (CTR, heterogeneous filter/rank, …).
  /// The shard count comes from the servable; `profile` supplies the
  /// controller-side (merge) timing. On mixed-technology fabrics pass the
  /// per-shard `shard_profiles` so cache hits credit back each shard's own
  /// miss cost (empty means every shard uses `profile`).
  ServingRuntime(std::unique_ptr<ServableBackend> servable,
                 const ServingConfig& cfg, const core::ArchConfig& arch,
                 const device::DeviceProfile& profile,
                 std::span<const device::DeviceProfile> shard_profiles = {});

  const ServingConfig& config() const noexcept { return cfg_; }
  StagePipeline& pipeline() noexcept { return pipeline_; }
  ServableBackend& servable() noexcept { return *servable_; }

  /// Serves the generator's whole stream against the user population
  /// (binds `users` to the filter/rank servable); resets clocks and cache
  /// statistics first.
  ServeReport run(LoadGenerator& gen,
                  std::span<const recsys::UserContext> users);

  /// Serves the generator's whole stream; the servable's population must
  /// already be bound (e.g. CtrServable::bind_samples).
  ServeReport run(LoadGenerator& gen);

  /// Attaches a pure-observer sink (nullptr detaches) for the next run():
  /// batch lifecycle spans, stage/ET spans, cache events, queue-depth and
  /// frontier time series, end-of-run busy totals — and, with
  /// `self_profile`, host wall-clock spans. Observation never feeds back:
  /// every report is bit-identical with the sink attached or not.
  void set_observer(ObserverSink* sink) noexcept { sink_ = sink; }

 private:
  /// The class table a run uses: the effective table with every unset
  /// `service_estimate` of a latency-critical class defaulted from the
  /// servable's probed graph critical path
  /// (StagePipeline::service_estimate). Probes run on the calling thread
  /// before any batch is in flight, so the derived estimates stay static —
  /// batching decisions remain completion-independent and the
  /// overlap-invariant determinism contract holds.
  QosBatcherConfig resolved_qos();

  /// Tier-aware pin resolution: the hottest `placement.warm_rows` ET row
  /// keys, from the offline warm_histogram or a warmup replay profiling
  /// row accesses. Deterministic for a given load config.
  std::vector<std::uint64_t> warm_pin_keys(const LoadGenConfig& load);

  ServingConfig cfg_;
  QosBatcherConfig qos_;              ///< effective class table
  std::vector<CacheTiming> timings_;  ///< one, or one per shard
  /// Declared before pipeline_, which runs it: the pipeline's destructor
  /// drains in-flight worker tasks before the servable is destroyed.
  std::unique_ptr<ServableBackend> servable_;
  std::size_t row_bytes_ = 0;     ///< flush-traffic bytes per ET row
  ObserverSink* sink_ = nullptr;  ///< pure observer; never feeds back
  StagePipeline pipeline_;
};

}  // namespace imars::serve
