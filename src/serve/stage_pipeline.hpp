// Backend-agnostic staged-pipeline serving engine.
//
// PR 1's ShardRouter hard-coded one workload: a two-unit filter/rank
// pipeline over FilterRankBackend replicas with `item % N` placement. This
// engine generalizes all three axes:
//
//   * the *stage graph* is a descriptor (PipelineSpec): a DAG of stages,
//     each either replicated (the whole query runs on its home shard) or
//     sharded (the query's work items are partitioned across shards and
//     the partial results merged). Every stage is named and declares its
//     predecessor stages by name (a stage with none is a source); a
//     stage's task becomes ready when ALL predecessors complete, so
//     independent branches (e.g. DLRM's dense bottom-MLP tower next to the
//     26 embedding gathers) dispatch concurrently and a join waits on its
//     last arriving edge. Each stage owns one event-model unit
//     per shard; every stage with embedding-table traffic contends for its
//     shard's shared ET banks — the same contention rule as
//     core/throughput.hpp — while ET-free stages (pure crossbar towers)
//     overlap freely. Both kinds run as per-shard executions: a
//     replicated stage as one on the query's home shard, whose slice holds
//     its fed items; a sharded stage as one on each shard whose ShardMap
//     slice is non-empty. Dispatch, the worker task and the clock claim
//     in collect() therefore each have one path for both kinds.
//   * the *workload* is an abstract ServableBackend: the two-stage
//     YouTubeDNN flow (serve/shard_router.hpp) and the single-stage
//     DLRM/Criteo CTR flow (serve/servable_ctr.hpp) both serve through the
//     identical batcher/cache/engine/report path.
//   * *placement* routes through a ShardMap (capability-weighted disjoint
//     cover) instead of a modulo, so heterogeneous fabrics get item slices
//     proportional to measured stage throughput.
//
// Execution is split into submit() and collect(). submit() enqueues the
// batch's functional work onto the per-shard worker threads and returns
// immediately: a query's stages chain along the graph edges — when a
// stage's task finishes it decrements each successor's pending-edge count
// and schedules the ones that became ready, with no batch-wide barrier —
// so fan-out branches run concurrently and a later batch's early stages
// overlap an earlier batch's late stages on the host threads (the hardware
// event model already pipelines; PR 1 only phased the host loop).
// collect() then composes hardware time deterministically in submission
// order: cache rewrite of ET costs first, then the per-shard pipeline
// clocks walked in deterministic topological order — a query's completion
// is its critical path through the graph. Because every timing decision
// happens in collect(), overlapped and phased execution produce
// bit-identical reports.
//
// A pipeline serves exactly one servable, the one it is built over: the
// servable fixes the shard count and the stage graph, and every batch of
// every QoS class runs through it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/perf_model.hpp"
#include "device/profile.hpp"
#include "recsys/types.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/hot_cache.hpp"
#include "serve/observe.hpp"
#include "serve/serve_stats.hpp"
#include "serve/shard_map.hpp"

namespace imars::serve {

/// Device-anchored costs the cache substitutes per ET row access.
struct CacheTiming {
  recsys::OpCost hit;          ///< hot-row buffer read
  recsys::OpCost row_miss;     ///< RAM-mode row fetch + RSC transfer
  recsys::OpCost pooled_miss;  ///< per-row in-array accumulate increment
  /// The first row of a table's pooled chain costs only the read (no
  /// write-back + add yet; PerfModel::et_lookup charges read*L +
  /// (write+add)*(L-1)).
  recsys::OpCost pooled_first_miss;
  /// One ET row written to its CMA array + RSC transfer: the update
  /// write-through cost and the dirty-row flush cost (write-back model).
  recsys::OpCost row_write;
  /// One update absorbed into the periphery hot-row buffer (dirty fill).
  recsys::OpCost buffer_fill;
  /// One cold-tier block fault (PerfModel::cold_block_fetch over the
  /// cache's cold_block_rows); zero with tiering disabled.
  recsys::OpCost block_fetch;
  /// Extra stream-out of a dirty row flushed past the warm arrays into
  /// the cold bulk tier (on top of row_write); zero with tiering disabled.
  recsys::OpCost cold_flush;

  static CacheTiming from_model(const core::PerfModel& model,
                                std::size_t cold_block_rows = 0) {
    const auto& read = model.profile().cma_read;
    return CacheTiming{model.cached_row(),
                       model.row_fetch(),
                       model.pooled_row(),
                       recsys::OpCost{read.latency, read.energy},
                       model.row_write(),
                       model.buffer_fill(),
                       model.cold_block_fetch(cold_block_rows),
                       cold_block_rows > 0 ? model.cold_flush_extra()
                                           : recsys::OpCost{}};
  }
};

/// One ET row touched by a query (cache bookkeeping granularity).
struct RowAccess {
  /// ET table index within the servable; the hot cache keys rows by it.
  std::uint32_t table = 0;
  std::uint32_t row = 0;  ///< row index within the ET table
  bool pooled = false;  ///< pooled lookup (vs RAM-mode row fetch)
  bool first_in_table = false;  ///< first row of its table's pooled chain
  /// The row was read by one of several banks operating in parallel (the
  /// stage latency holds the max over banks, not the sum — e.g. DLRM's 26
  /// one-hot lookups). A hit then credits energy per row, but latency only
  /// when EVERY access of the row's `parallel_group` hits (the bank max
  /// vanishes only once no bank reads an array).
  bool parallel_bank = false;
  /// Groups parallel accesses that share one bank-max term (e.g. one
  /// scored impression); meaningful only when `parallel_bank` is set.
  std::uint32_t parallel_group = 0;
};

/// How one pipeline stage spreads over the shard fabric.
enum class StageKind : std::uint8_t {
  kReplicated,  ///< whole query on its home shard (any replica can serve)
  kSharded,     ///< work items partitioned across shards via the ShardMap
};

struct StageSpec {
  std::string name;  ///< unique and non-empty; edges refer to it
  StageKind kind = StageKind::kReplicated;
  /// Names of predecessor stages, exactly the graph's edges; a stage with
  /// an empty list is a source (ready at batch dispatch).
  std::vector<std::string> deps;
  /// Non-zero on a SHARDED stage makes it a *producing* stage: its per-
  /// shard partials are merged (score desc, item asc) into a global
  /// top-`emit_topk` ITEM LIST that downstream stages consume as their
  /// work-item set — the funnel's "retrieval output feeds rank" shape.
  /// The merge is charged like the output merge (RSC ship + tournament)
  /// and the stage needs a successor and may not be the graph's output
  /// stage. Zero (default) = ordinary sharded stage.
  std::size_t emit_topk = 0;
  /// On a REPLICATED stage: the stage consumes the item sets produced by
  /// its predecessors (replicated outputs and/or emitted top-k lists,
  /// declared edge order) instead of deriving work from the request alone;
  /// the engine routes the fed items through run_replicated_fed() and
  /// passes them as the accesses_into() slice. Requires at least one producing
  /// predecessor. Default off.
  bool consume_items = false;

  bool operator==(const StageSpec&) const = default;
};

/// Stage graph of a workload: a DAG of replicated/sharded stages. A
/// sharded stage partitions the work items produced by its producing
/// direct predecessors (replicated or emit_topk stages, concatenated in
/// declared edge order) — or, with none, the servable's initial_items().
struct PipelineSpec {
  static constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);

  std::vector<StageSpec> stages;
  /// The output stage's partials ship to the merge unit for a k-way
  /// tournament (the filter/rank flow); single-shot workloads (CTR) skip it.
  bool merge_topk = false;

  std::size_t stage_count() const noexcept { return stages.size(); }

  /// The resolved, validated dependency structure of a spec.
  struct Graph {
    std::vector<std::vector<std::size_t>> preds;  ///< per stage, resolved
    std::vector<std::vector<std::size_t>> succs;
    /// Deterministic topological order (Kahn's algorithm, lowest stage
    /// index first among ready stages); a chain declared in spec order
    /// yields 0,1,2,...
    std::vector<std::size_t> order;
    /// Per stage: the producing stages whose output items the stage
    /// consumes — for a sharded stage the replicated and emitting
    /// (emit_topk) direct predecessors it partitions (empty =
    /// servable.initial_items); for a consume_items replicated stage the
    /// producing predecessors feeding run_replicated_fed(). Empty for
    /// ordinary replicated stages.
    std::vector<std::vector<std::size_t>> item_sources;
    /// The stage producing the query's scored partials (and feeding the
    /// merge unit): the last sharded stage in topological order, or
    /// kNoStage when the graph has none.
    std::size_t output_stage = kNoStage;

    bool operator==(const Graph&) const = default;
  };

  bool operator==(const PipelineSpec&) const = default;

  /// Resolves and validates the graph. Throws imars::Error on: an empty
  /// graph, duplicate or empty stage names, edges naming unknown stages,
  /// dependency cycles, misplaced emit_topk/consume_items, or `merge_topk`
  /// on a graph with no sharded stage.
  Graph resolve() const;

  /// Longest dispatch-to-done path through the graph under the given
  /// per-stage costs (one entry per stage, spec order; merge excluded).
  /// A chain reduces to the plain stage-cost sum.
  device::Ns critical_path(std::span<const device::Ns> stage_cost) const;
};

/// A workload adapter served by the engine. Implementations own one backend
/// replica per shard; the engine guarantees each replica is only ever
/// touched from its shard's worker thread. All methods must be safe to call
/// concurrently for *distinct* shards.
class ServableBackend {
 public:
  virtual ~ServableBackend() = default;

  virtual std::string_view name() const = 0;
  virtual const PipelineSpec& spec() const = 0;
  virtual std::size_t shards() const = 0;

  /// Work-item keys a sharded stage with no producing predecessor
  /// partitions (derived from the request alone; e.g. the impression
  /// itself for CTR). Not called when no stage needs them.
  virtual std::vector<std::size_t> initial_items(const Request& req) const {
    (void)req;
    return {};
  }

  /// Runs replicated stage `stage` of `req` on shard `shard`'s replica and
  /// returns the work-item keys the following sharded stage partitions
  /// (empty when no sharded stage follows). Appends measured hardware costs
  /// to `stats`.
  virtual std::vector<std::size_t> run_replicated(
      std::size_t stage, std::size_t shard, const Request& req,
      recsys::StageStats* stats) = 0;

  /// Runs replicated stage `stage` of `req` over the item set `fed`
  /// produced by the stage's graph predecessors (StageSpec::consume_items):
  /// the funnel's filter narrowing the retrieval stage's candidates. `fed`
  /// is the stage's slice on its home shard: the producing predecessors'
  /// items, concatenated in declared edge order; accesses_into() receives
  /// the same slice. Only called for stages with resolved item sources; the
  /// default ignores the fed items and delegates to run_replicated().
  virtual std::vector<std::size_t> run_replicated_fed(
      std::size_t stage, std::size_t shard, const Request& req,
      std::span<const std::size_t> fed, recsys::StageStats* stats) {
    (void)fed;
    return run_replicated(stage, shard, req, stats);
  }

  /// Runs sharded stage `stage` over `slice` on shard `shard`'s replica and
  /// returns the slice's scored partial results (best first, at most `k` —
  /// the merge unit builds the global top-k from the per-shard lists).
  virtual std::vector<recsys::ScoredItem> run_sharded(
      std::size_t stage, std::size_t shard, const Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) = 0;

  /// Appends the ET rows stage `stage` of `req` touches (hot-cache
  /// bookkeeping) to `out`. `slice` is the executing shard's slice: a
  /// sharded stage's ShardMap slice, a replicated stage's fed items (empty
  /// unless it consumes items). Called from collect() — single-threaded,
  /// deterministic order — into a reused scratch buffer, so the host hot
  /// path allocates no vector per (stage, shard, query).
  virtual void accesses_into(std::size_t stage, const Request& req,
                             std::span<const std::size_t> slice,
                             std::vector<RowAccess>& out) const = 0;

  /// The rows accesses_into() appends, in a fresh vector.
  virtual std::vector<RowAccess> accesses(
      std::size_t stage, const Request& req,
      std::span<const std::size_t> slice) const {
    std::vector<RowAccess> out;
    accesses_into(stage, req, slice, out);
    return out;
  }

  /// ET rows an embedding-update request (Request::is_update) writes —
  /// e.g. the user's profile rows after an interaction. The runtime routes
  /// them through the write-back cache model instead of dispatching the
  /// request as a query. Default: no update traffic (updates are inert).
  virtual std::vector<RowAccess> update_accesses(const Request& req) const {
    (void)req;
    return {};
  }

  /// Work-item keys `req` would route through the ShardMap, for
  /// frequency-profiling a warm-pin warmup window (e.g. the filter
  /// stage's candidate items). May run replica 0 functionally on the
  /// calling thread, so it must NOT be called while a batch is in flight —
  /// the runtime profiles before serving, like stage_cost_estimate().
  /// Default: the request's initial item set.
  virtual std::vector<std::size_t> profile_items(const Request& req) {
    return initial_items(req);
  }

  /// Per-stage hardware-latency estimate of one query's pass through each
  /// stage (index-aligned with spec().stages) when served at top-`k`,
  /// typically probed on shard 0's replica against the bound population.
  /// Empty = unknown (callers keep their configured constants). Runs the
  /// replica on the calling thread, so it must NOT be called while a batch
  /// is in flight — the runtime probes before serving, which keeps the
  /// derived QoS service estimates completion-independent.
  virtual std::vector<device::Ns> stage_cost_estimate(std::size_t k) {
    (void)k;
    return {};
  }
};

/// The generic engine: per-shard worker threads + per-stage event clocks.
class StagePipeline {
 public:
  /// Per-query outcome of a batch execution. Carries the originating
  /// request and batch coordinates so callers need not retain their own
  /// copy of the submitted batch.
  struct QueryResult {
    Request request;             ///< the request this result answers
    std::size_t batch_id = 0;
    std::size_t batch_size = 0;
    device::Ns dispatch;         ///< batch close/dispatch time
    std::vector<recsys::ScoredItem> topk;  ///< merged, best first, <= k
    std::size_t work_items = 0;  ///< items entering the output sharded stage
    std::size_t home_shard = 0;  ///< shard that ran the replicated stage(s)
    device::Ns complete;  ///< critical path through the graph (merge done)
    /// Per stage (spec order): completion minus graph-ready time — on a
    /// linear chain exactly the stage's serial latency share.
    std::vector<device::Ns> stage_latency;
    std::vector<recsys::StageStats> stage_stats;  ///< cache-adjusted
  };

  /// An in-flight batch: functional work enqueued, accounting pending.
  class BatchHandle {
   public:
    BatchHandle() = default;
    BatchHandle(BatchHandle&&) = default;
    BatchHandle& operator=(BatchHandle&&) = default;
    bool valid() const noexcept { return state_ != nullptr; }
    /// Blocks until the batch's functional work has finished on the shard
    /// executors. collect() waits implicitly; calling this first lets the
    /// driver separate worker-completion wait from host composition time
    /// in its self-profile.
    void wait() const;

   private:
    friend class StagePipeline;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// The engine over `servable`, which must outlive it: the shard count
  /// and the stage graph (validated here) are the servable's. `profile`
  /// supplies the merge-unit / controller timing (stored by value; on
  /// heterogeneous fabrics pass the controller-side technology). An empty
  /// `map` defaults to the uniform (modulo-compatible) placement.
  StagePipeline(ServableBackend& servable,
                const device::DeviceProfile& profile, ShardMap map = {});

  /// Waits out any still-running functional work of uncollected batches
  /// (e.g. handles abandoned by an unwinding caller) before the worker
  /// threads are torn down.
  ~StagePipeline();

  std::size_t shards() const noexcept { return executors_.size(); }
  const PipelineSpec& spec() const noexcept { return spec_; }
  const ShardMap& shard_map() const noexcept { return map_; }

  /// Attaches a pure-observer sink (nullptr detaches): collect() reports
  /// every (stage, shard) execution span with its unit/ET-bank wait
  /// decomposition, charge_write() reports write-back claims, and dirty
  /// flushes surface as cache events. The sink only ever receives copies
  /// of decisions already made — timing is bit-identical with or without
  /// one attached.
  void set_observer(ObserverSink* sink) noexcept { sink_ = sink; }

  /// Charges embedding-update write traffic to shard `shard`'s shared ET
  /// banks, starting no earlier than `at` (the update's arrival): row
  /// writes really occupy the in-memory arrays, so subsequent batches see
  /// the contention. Accounted into ShardUsage::write_busy.
  void charge_write(std::size_t shard, const recsys::OpCost& cost,
                    device::Ns at);

  /// Device backlog frontier: the latest time any stage unit or ET bank is
  /// already committed to. The admission-gated runtime holds ready batches
  /// until the frontier comes within its admit window of simulated now.
  device::Ns frontier() const;

  /// Graph-aware batch service estimate: one query's critical path
  /// through the stage DAG under `stage_cost` (one entry per stage) plus
  /// pipelined occupancy of the bottleneck stage for the remaining
  /// `batch - 1` queries, plus the top-k merge when the graph merges. The
  /// runtime uses this to default an unset
  /// QosClassConfig::service_estimate.
  device::Ns service_estimate(std::span<const device::Ns> stage_cost,
                              std::size_t k, std::size_t batch) const;

  /// Enqueues the batch's functional work; returns immediately. Stages
  /// chain across the shard executors with no inter-stage barrier.
  /// `batch` is taken by value (move it in to skip the request copy —
  /// lvalue callers keep the pre-existing copy semantics).
  BatchHandle submit(Batch batch, std::size_t k);

  /// Waits for the batch's functional work, then runs the deterministic
  /// event-model accounting (cache rewrite, per-stage pipeline clocks with
  /// shared ET-bank contention, top-k merge). Handles MUST be collected in
  /// submission order — the pipeline clocks advance batch by batch.
  /// `timing` holds either one CacheTiming shared by all shards or one per
  /// shard (heterogeneous fabrics: hits must credit back the *owning*
  /// shard's miss cost, not the controller profile's). `results` is resized
  /// to the batch and refilled in place, so a steady-state drain loop
  /// reuses one result buffer (and its per-query vectors) across batches.
  /// Every (stage, shard) execution is claimed on the clocks at one site:
  /// a replicated stage's one execution on the query's home shard and a
  /// sharded stage's execution on each shard with a non-empty slice alike.
  /// Returns the batch's spent request storage, for the caller to hand
  /// back to its producer (e.g. QosBatcher::recycle) instead of freeing it.
  std::vector<Request> collect(BatchHandle handle, HotEmbeddingCache* cache,
                               std::span<const CacheTiming> timing,
                               std::vector<QueryResult>& results);

  /// submit() + collect() in one step (no cross-batch overlap).
  std::vector<QueryResult> execute(const Batch& batch, std::size_t k,
                                   HotEmbeddingCache* cache,
                                   std::span<const CacheTiming> timing);

  /// Convenience for homogeneous fabrics: one CacheTiming for all shards.
  std::vector<QueryResult> execute(const Batch& batch, std::size_t k,
                                   HotEmbeddingCache* cache,
                                   const CacheTiming& timing) {
    return execute(batch, k, cache, std::span<const CacheTiming>(&timing, 1));
  }

  /// Cumulative per-shard, per-stage busy time.
  const std::vector<ShardUsage>& usage() const noexcept { return usage_; }

  /// Resets the event clocks and usage counters (not the replicas).
  void reset_clock();

 private:
  struct ShardClocks {
    std::vector<device::Ns> stage_free;  ///< per-stage unit available
    device::Ns shared_free;              ///< shared ET banks available
  };

  /// Per-shard buffer of (query, stage) tasks deferred during submit() so
  /// each shard receives ONE composite task per batch — one queue lock and
  /// one worker wake — instead of one per query (the dominant host cost of
  /// fine-grained dispatch is the futex wake per enqueue).
  using DeferredTasks = std::vector<std::vector<std::pair<std::size_t,
                                                          std::size_t>>>;

  /// Schedules stage `stage` of query `qi` (all its graph predecessors
  /// have completed); never leaks an exception (a failure marks the batch
  /// failed and structurally completes the stage so every counter still
  /// drains and the done promise fires). With `defer` non-null the task is
  /// buffered per shard instead of enqueued (submit()'s batched initial
  /// dispatch); graph-chained scheduling from finish_stage passes null.
  void schedule_stage(const std::shared_ptr<BatchHandle::State>& st,
                      std::size_t qi, std::size_t stage,
                      DeferredTasks* defer = nullptr);
  void schedule_stage_unchecked(const std::shared_ptr<BatchHandle::State>& st,
                                std::size_t qi, std::size_t stage,
                                DeferredTasks* defer = nullptr);
  /// The functional body of one (query, stage) execution on `shard`'s
  /// worker thread — shared by the per-query and composite dispatch paths.
  /// The last of the stage's executions to finish completes the stage.
  void run_stage_task(const std::shared_ptr<BatchHandle::State>& st,
                      std::size_t qi, std::size_t stage, std::size_t shard);
  /// Marks stage `stage` of query `qi` complete: schedules successors whose
  /// last pending edge this was, and fires the batch's done promise when
  /// the last stage of the last query finishes.
  void finish_stage(const std::shared_ptr<BatchHandle::State>& st,
                    std::size_t qi, std::size_t stage);

  /// Applies the cache to `accesses` and rewrites the stage's ET-lookup
  /// cost; returns the adjusted stats.
  /// `flushed` (optional) receives the dirty-row flush counts (with their
  /// tier split) charged into the stage's kEtWrite cost, for the
  /// observer's cache-flush events. Cold-tier block faults raised by the
  /// accesses are drained here and charged into kEtBlock.
  recsys::StageStats adjust_stage(const recsys::StageStats& measured,
                                  std::span<const RowAccess> accesses,
                                  HotEmbeddingCache* cache,
                                  const CacheTiming& timing,
                                  HotEmbeddingCache::TierFlush* flushed =
                                      nullptr) const;

  /// Acquires a batch State: pooled (structure-preserving reset, steady
  /// state allocates nothing) or fresh while the pool is empty.
  std::shared_ptr<BatchHandle::State> acquire_state(std::size_t queries);

  /// Merge-unit cost: each contributing shard ships its top-k over the RSC
  /// bus, the controller runs the k-way tournament.
  recsys::OpCost merge_cost(std::size_t slices, std::size_t k) const;

  ServableBackend& servable_;  ///< runs every stage; outlives the pipeline
  PipelineSpec spec_;
  PipelineSpec::Graph graph_;  ///< spec_, resolved
  device::DeviceProfile profile_;
  ShardMap map_;
  ObserverSink* sink_ = nullptr;  ///< pure observer; never feeds back
  ExecutorPool executors_;
  std::vector<ShardClocks> clocks_;
  std::vector<ShardUsage> usage_;
  /// In-flight batch scratch, tracked so the destructor can drain tasks
  /// that would otherwise chain onto executors mid-teardown.
  std::mutex pending_mu_;
  std::vector<std::weak_ptr<BatchHandle::State>> pending_;
  /// Submission-order enforcement for collect() (the clocks advance batch
  /// by batch, so out-of-order collection would corrupt them silently).
  std::uint64_t next_submit_seq_ = 0;
  std::uint64_t next_collect_seq_ = 0;
  /// Collected States parked for reuse. Their pending_ entries are erased
  /// at collect, so pooling cannot grow the weak-pointer list.
  std::vector<std::shared_ptr<BatchHandle::State>> state_pool_;
  /// Running maximum over every committed clock value — all clock updates
  /// are monotone non-decreasing, so this equals the full scan frontier()
  /// used to compute, without the O(shards * stages) walk per admission
  /// probe. Reset with the clocks.
  device::Ns frontier_{0.0};
  /// collect()-scope scratch (single-threaded there by the submission-order
  /// contract): per-stage completion times, row-access lists, and the top-k
  /// merge buffer, reused across queries and batches.
  std::vector<device::Ns> stage_end_scratch_;
  std::vector<RowAccess> access_scratch_;
  std::vector<recsys::ScoredItem> topk_scratch_;
  /// adjust_stage() parallel-group tally {group id, accesses, hits} —
  /// groups per stage are few (e.g. DLRM impressions in flight), so a flat
  /// linear-scan vector beats the former per-call std::map.
  mutable std::vector<std::array<std::uint64_t, 3>> group_scratch_;
  /// submit()-scope buffer for the batched initial dispatch (submission is
  /// single-threaded by the collect-order contract).
  DeferredTasks dispatch_scratch_;
};

}  // namespace imars::serve
