#include "serve/stage_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/error.hpp"

namespace imars::serve {

using recsys::OpCost;
using recsys::OpKind;
using recsys::StageStats;

// --- PipelineSpec: graph resolution ----------------------------------------

PipelineSpec::Graph PipelineSpec::resolve() const {
  IMARS_REQUIRE(!stages.empty(), "PipelineSpec: empty stage graph");
  const std::size_t n = stages.size();
  Graph g;
  g.preds.resize(n);
  g.succs.resize(n);
  g.item_sources.resize(n);

  // Edges are declared by name, so names must be unique and non-empty.
  // Every rejection names the offending stage — a spec assembled from
  // config has to be debuggable from the error text alone.
  std::unordered_map<std::string_view, std::size_t> by_name;
  for (std::size_t s = 0; s < n; ++s) {
    IMARS_REQUIRE(!stages[s].name.empty(),
                  "PipelineSpec: stage #" + std::to_string(s) +
                      " must be named");
    IMARS_REQUIRE(by_name.emplace(stages[s].name, s).second,
                  "PipelineSpec: duplicate stage name '" + stages[s].name +
                      "'");
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& dep : stages[s].deps) {
      const auto it = by_name.find(dep);
      IMARS_REQUIRE(it != by_name.end(),
                    "PipelineSpec: stage '" + stages[s].name +
                        "' depends on unknown stage '" + dep + "'");
      IMARS_REQUIRE(it->second != s,
                    "PipelineSpec: stage '" + stages[s].name +
                        "' depends on itself");
      g.preds[s].push_back(it->second);
      g.succs[it->second].push_back(s);
    }
  }

  // Deterministic topological order: Kahn's algorithm, always taking the
  // lowest ready stage index, so a chain declared in spec order yields
  // 0,1,2,... and the event-model accounting walks every graph in a
  // reproducible order.
  std::vector<std::size_t> pending(n);
  for (std::size_t s = 0; s < n; ++s) pending[s] = g.preds[s].size();
  std::vector<bool> placed(n, false);
  g.order.reserve(n);
  while (g.order.size() < n) {
    std::size_t next = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (!placed[s] && pending[s] == 0) {
        next = s;
        break;
      }
    }
    if (next == n) {
      // Name a stage on (or downstream of) the cycle: the lowest-index
      // stage still waiting on a predecessor.
      std::size_t stuck = 0;
      while (placed[stuck]) ++stuck;
      IMARS_REQUIRE(false,
                    "PipelineSpec: dependency cycle in stage graph "
                    "involving stage '" +
                        stages[stuck].name + "'");
    }
    placed[next] = true;
    g.order.push_back(next);
    for (std::size_t succ : g.succs[next]) --pending[succ];
  }

  // Work-item routing: a stage consumes its PRODUCING direct predecessors
  // — replicated stages and emitting (emit_topk) sharded stages — in
  // declared edge order; sharded stages always consume, replicated stages
  // only when consume_items opts in.
  for (std::size_t s = 0; s < n; ++s) {
    IMARS_REQUIRE(stages[s].emit_topk == 0 ||
                      stages[s].kind == StageKind::kSharded,
                  "PipelineSpec: emit_topk on non-sharded stage #" +
                      std::to_string(s));
    IMARS_REQUIRE(!stages[s].consume_items ||
                      stages[s].kind == StageKind::kReplicated,
                  "PipelineSpec: consume_items on non-replicated stage #" +
                      std::to_string(s));
    const bool consumes = stages[s].kind == StageKind::kSharded ||
                          stages[s].consume_items;
    if (!consumes) continue;
    for (std::size_t p : g.preds[s])
      if (stages[p].kind == StageKind::kReplicated || stages[p].emit_topk > 0)
        g.item_sources[s].push_back(p);
    IMARS_REQUIRE(!stages[s].consume_items || !g.item_sources[s].empty(),
                  "PipelineSpec: consume_items stage '" + stages[s].name +
                      "' has no producing predecessor");
  }

  // The output stage: the last sharded stage in topological order produces
  // the query's scored partials (and feeds the merge unit).
  for (std::size_t s : g.order)
    if (stages[s].kind == StageKind::kSharded) g.output_stage = s;
  IMARS_REQUIRE(!merge_topk || g.output_stage != kNoStage,
                "PipelineSpec: merge_topk requires a sharded stage");
  // An emitting stage's merged item list must feed SOMEONE — and the
  // output stage's partials already go to the top-k merge, so emitting
  // there would double-merge the same lists.
  for (std::size_t s = 0; s < n; ++s) {
    if (stages[s].emit_topk == 0) continue;
    IMARS_REQUIRE(!g.succs[s].empty(),
                  "PipelineSpec: emitting stage '" + stages[s].name +
                      "' has no successor to consume its items");
    IMARS_REQUIRE(s != g.output_stage,
                  "PipelineSpec: emitting stage '" + stages[s].name +
                      "' cannot be the output stage");
  }
  return g;
}

device::Ns PipelineSpec::critical_path(
    std::span<const device::Ns> stage_cost) const {
  IMARS_REQUIRE(stage_cost.size() == stages.size(),
                "PipelineSpec::critical_path: one cost per stage");
  const Graph g = resolve();
  std::vector<device::Ns> done(stages.size(), device::Ns{0.0});
  device::Ns longest{0.0};
  for (std::size_t s : g.order) {
    device::Ns ready{0.0};
    for (std::size_t p : g.preds[s]) ready = device::max(ready, done[p]);
    done[s] = ready + stage_cost[s];
    longest = device::max(longest, done[s]);
  }
  return longest;
}

// --- StagePipeline ----------------------------------------------------------

namespace {

/// The engine-wide scored-item order: score desc, item asc — a strict
/// total order over distinct items, so every merge (output top-k and
/// emitting-stage item lists) has exactly one answer regardless of the
/// sorting algorithm or shard arrival order.
bool score_order(const recsys::ScoredItem& a, const recsys::ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// The merge unit's answer over a stage's per-shard partials: their
/// shard-order concatenation's best `keep` in score_order, into `out`.
/// score_order is strict, so partial_sort yields the one answer any full
/// sort would, whatever order the slices finished in.
void merge_partials(std::span<const std::vector<recsys::ScoredItem>> parts,
                    std::size_t keep, std::vector<recsys::ScoredItem>& out) {
  out.clear();
  for (const auto& part : parts)
    out.insert(out.end(), part.begin(), part.end());
  const auto last =
      out.begin() + static_cast<std::ptrdiff_t>(std::min(keep, out.size()));
  std::partial_sort(out.begin(), last, out.end(), score_order);
  out.erase(last, out.end());
}

}  // namespace

/// Functional scratch of one in-flight batch. Tasks on the shard executors
/// fill the per-(query, stage) records; collect() reads them single-threaded
/// after the done promise fires (the promise provides the happens-before).
struct StagePipeline::BatchHandle::State {
  Batch batch;
  std::size_t k = 0;
  std::uint64_t seq = 0;  ///< submission order (collect() enforces it)

  struct StageRec {
    /// The stage's produced item set: a replicated stage's output, or an
    /// emitting sharded stage's merged global top-emit_topk item list.
    std::vector<std::size_t> out_items;
    /// Per shard: the items the stage's execution there works on (a
    /// sharded stage's ShardMap slice; a replicated stage's fed items, on
    /// its home shard only) and that execution's measured costs.
    std::vector<std::vector<std::size_t>> slices;
    std::vector<StageStats> shard_stats;
    /// Emitting (emit_topk) sharded stage: per-shard scored partials held
    /// until the last slice joins, then merged into out_items.
    std::vector<std::vector<recsys::ScoredItem>> emit;
  };

  std::vector<std::size_t> home;                  ///< per query
  std::vector<std::vector<std::size_t>> init_items;  ///< per query
  std::vector<std::vector<StageRec>> rec;         ///< [query][stage]
  /// Partial scored results of the OUTPUT sharded stage, [query][shard].
  std::vector<std::vector<std::vector<recsys::ScoredItem>>> partials;
  /// Per query: the merged global top-k over `partials`, built by the
  /// worker whose output-stage slice finished last (empty when the output
  /// stage had no items or the graph has none).
  std::vector<std::vector<recsys::ScoredItem>> topk;
  std::size_t stages = 0;  ///< stage count of the graph
  /// Per (query, stage), flattened qi * stages + s: executions still
  /// running of a dispatched stage / pending predecessor edges of a
  /// not-yet-ready stage.
  std::unique_ptr<std::atomic<std::size_t>[]> fan_in;
  std::unique_ptr<std::atomic<std::size_t>[]> deps_left;
  std::unique_ptr<std::atomic<std::size_t>[]> stages_left;  ///< per query
  /// Allocated extents of the atomic arrays — a pooled State reallocates
  /// them only when a later batch outgrows what it already holds.
  std::size_t atomic_cap = 0;  ///< fan_in / deps_left entries
  std::size_t query_cap = 0;   ///< stages_left entries

  std::atomic<std::size_t> outstanding{0};
  std::atomic<bool> failed{false};
  std::promise<void> done;
  std::shared_future<void> done_future;
  std::mutex err_mu;
  std::exception_ptr error;

  std::atomic<std::size_t>& fan(std::size_t qi, std::size_t s) {
    return fan_in[qi * stages + s];
  }
  std::atomic<std::size_t>& deps(std::size_t qi, std::size_t s) {
    return deps_left[qi * stages + s];
  }
  /// Whether stage `s` of query `qi` executes on `shard`: a replicated
  /// stage on the query's home shard only, a sharded stage wherever its
  /// slice is non-empty.
  bool runs_on(std::size_t qi, std::size_t s, bool replicated,
               std::size_t shard) const {
    return replicated ? shard == home[qi] : !rec[qi][s].slices[shard].empty();
  }

  void fail(std::exception_ptr e) {
    std::lock_guard lock(err_mu);
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_release);
  }
};

StagePipeline::StagePipeline(ServableBackend& servable,
                             const device::DeviceProfile& profile,
                             ShardMap map)
    : servable_(servable),
      spec_(servable.spec()),
      graph_(spec_.resolve()),  // validates the stage graph
      profile_(profile),
      map_(map.empty() ? ShardMap::uniform(servable.shards())
                       : std::move(map)),
      executors_(servable.shards()),
      clocks_(servable.shards()),
      usage_(servable.shards()) {
  IMARS_REQUIRE(shards() >= 1, "StagePipeline: need at least one shard");
  IMARS_REQUIRE(map_.shards() == shards(),
                "StagePipeline: ShardMap covers a different shard count");
  for (auto& c : clocks_) c.stage_free.resize(spec_.stage_count());
  for (auto& u : usage_) u.stage_busy.resize(spec_.stage_count());
}

StagePipeline::~StagePipeline() {
  // A caller unwinding past uncollected handles (e.g. one overlapped batch
  // of several threw) leaves their stage-chaining tasks running; those
  // tasks submit follow-up work to the executors, so the executors must
  // outlive them. done fires once every query of a batch has finished
  // chaining, after which no further submissions can occur.
  std::vector<std::shared_ptr<BatchHandle::State>> live;
  {
    std::lock_guard lock(pending_mu_);
    for (auto& wp : pending_)
      if (auto sp = wp.lock()) live.push_back(std::move(sp));
  }
  for (const auto& st : live) st->done_future.wait();
}

void StagePipeline::BatchHandle::wait() const {
  if (state_ != nullptr) state_->done_future.wait();
}

void StagePipeline::reset_clock() {
  for (auto& c : clocks_) {
    c.stage_free.assign(spec_.stage_count(), device::Ns{0.0});
    c.shared_free = device::Ns{0.0};
  }
  for (auto& u : usage_) {
    u.stage_busy.assign(spec_.stage_count(), device::Ns{0.0});
    u.write_busy = device::Ns{0.0};
  }
  frontier_ = device::Ns{0.0};
  // Handles abandoned before collection (e.g. a caller unwound past them
  // after another batch's error) left their sequence numbers unconsumed;
  // realign so the next run starts clean — stale handles then fail
  // collect()'s order check instead of corrupting the fresh clocks.
  next_collect_seq_ = next_submit_seq_;
}

void StagePipeline::charge_write(std::size_t shard,
                                 const recsys::OpCost& cost, device::Ns at) {
  IMARS_REQUIRE(shard < shards(),
                "StagePipeline::charge_write: shard out of range");
  ShardClocks& c = clocks_[shard];
  const device::Ns start = device::max(at, c.shared_free);
  c.shared_free = start + cost.latency;
  frontier_ = device::max(frontier_, c.shared_free);
  usage_[shard].write_busy += cost.latency;
  if (sink_ != nullptr && cost.latency.value > 0.0)
    sink_->on_write(shard, start, start + cost.latency);
}

device::Ns StagePipeline::frontier() const {
  // Every clock commit (collect's stage/ET claims, charge_write) only moves
  // a clock forward, so the running maximum maintained at each commit
  // equals the full O(shards * stages) scan this used to perform — and the
  // admission-gated runtime probes the frontier per pump iteration.
  return frontier_;
}

device::Ns StagePipeline::service_estimate(
    std::span<const device::Ns> stage_cost, std::size_t k,
    std::size_t batch) const {
  device::Ns est = spec_.critical_path(stage_cost);
  // The remaining batch pipelines behind the first query, paced by the
  // slowest stage unit.
  device::Ns bottleneck{0.0};
  for (const auto& c : stage_cost) bottleneck = device::max(bottleneck, c);
  if (batch > 1) est += bottleneck * static_cast<double>(batch - 1);
  if (spec_.merge_topk) est += merge_cost(shards(), k).latency;
  return est;
}

std::shared_ptr<StagePipeline::BatchHandle::State>
StagePipeline::acquire_state(std::size_t queries) {
  const std::size_t ns = shards();
  const std::size_t stages = spec_.stage_count();
  std::shared_ptr<BatchHandle::State> st;
  if (!state_pool_.empty()) {
    st = std::move(state_pool_.back());
    state_pool_.pop_back();
  } else {
    st = std::make_shared<BatchHandle::State>();
  }
  st->stages = stages;
  // Structure-preserving reset: every inner vector of a pooled State keeps
  // its capacity (StageStats is a plain array, so the assigns below
  // allocate nothing), which makes the steady-state submit path
  // allocation-free. A fresh State allocates exactly what the former
  // assign-based setup did.
  st->home.resize(queries);
  st->init_items.resize(queries);
  for (auto& items : st->init_items) items.clear();
  st->rec.resize(queries);
  for (auto& query_rec : st->rec) {
    query_rec.resize(stages);
    for (std::size_t s = 0; s < stages; ++s) {
      auto& r = query_rec[s];
      r.out_items.clear();
      r.shard_stats.assign(ns, StageStats{});
      r.slices.resize(ns);
      for (auto& slice : r.slices) slice.clear();
      if (spec_.stages[s].emit_topk > 0) {
        r.emit.resize(ns);
        for (auto& e : r.emit) e.clear();
      } else {
        r.emit.clear();
      }
    }
  }
  st->partials.resize(queries);
  for (auto& per_shard : st->partials) {
    per_shard.resize(ns);
    for (auto& partial : per_shard) partial.clear();
  }
  st->topk.resize(queries);
  for (auto& merged : st->topk) merged.clear();
  if (st->atomic_cap < queries * stages) {
    st->fan_in =
        std::make_unique<std::atomic<std::size_t>[]>(queries * stages);
    st->deps_left =
        std::make_unique<std::atomic<std::size_t>[]>(queries * stages);
    st->atomic_cap = queries * stages;
  }
  if (st->query_cap < queries) {
    st->stages_left = std::make_unique<std::atomic<std::size_t>[]>(queries);
    st->query_cap = queries;
  }
  // A pooled State's promise has already fired; re-arm it for this batch.
  st->done = std::promise<void>();
  st->done_future = st->done.get_future().share();
  st->failed.store(false);
  {
    std::lock_guard lock(st->err_mu);
    st->error = nullptr;
  }
  return st;
}

StagePipeline::BatchHandle StagePipeline::submit(Batch batch,
                                                 std::size_t k) {
  const std::size_t n = batch.size();
  const std::size_t ns = shards();
  IMARS_REQUIRE(n >= 1, "StagePipeline::submit: empty batch");
  IMARS_REQUIRE(k >= 1, "StagePipeline::submit: k must be >= 1");

  const std::size_t stages = spec_.stage_count();
  auto st = acquire_state(n);
  st->batch = std::move(batch);
  st->k = k;
  st->seq = next_submit_seq_++;
  for (std::size_t qi = 0; qi < n; ++qi) {
    st->stages_left[qi].store(stages);
    for (std::size_t s = 0; s < stages; ++s)
      st->deps(qi, s).store(graph_.preds[s].size());
  }
  st->outstanding.store(n);
  {
    std::lock_guard lock(pending_mu_);
    std::erase_if(pending_, [](const auto& wp) { return wp.expired(); });
    pending_.push_back(st);
  }

  // Does any sharded stage partition the request's own item set?
  const bool needs_initial = [&] {
    for (std::size_t s = 0; s < stages; ++s)
      if (spec_.stages[s].kind == StageKind::kSharded &&
          graph_.item_sources[s].empty())
        return true;
    return false;
  }();

  // Dispatch buffers the batch's source-stage tasks per shard and hands
  // each shard ONE composite task — one queue lock and worker wake per
  // shard per batch instead of per query (the futex wake is the dominant
  // host cost of fine-grained dispatch). Host-side granularity only: tasks
  // run in the same per-shard order, and every timing decision is composed
  // later in collect().
  dispatch_scratch_.resize(ns);
  for (auto& tasks : dispatch_scratch_) tasks.clear();

  for (std::size_t qi = 0; qi < n; ++qi) {
    const Request& req = st->batch.requests[qi];
    // All placement routes through the ShardMap: queries spread over the
    // replicated stage's replicas by id, proportionally to capability.
    st->home[qi] = map_.shard_of(req.id);
    if (needs_initial) st->init_items[qi] = servable_.initial_items(req);
    // Kick off every source stage; the rest chain along the graph edges.
    for (std::size_t s = 0; s < stages; ++s)
      if (graph_.preds[s].empty())
        schedule_stage(st, qi, s, &dispatch_scratch_);
  }

  for (std::size_t shard = 0; shard < ns; ++shard) {
    if (dispatch_scratch_[shard].empty()) continue;
    executors_.at(shard).submit(
        [this, st, shard, tasks = std::move(dispatch_scratch_[shard])] {
          for (const auto& [qi, stage] : tasks)
            run_stage_task(st, qi, stage, shard);
        });
  }

  BatchHandle handle;
  handle.state_ = std::move(st);
  return handle;
}

void StagePipeline::schedule_stage(
    const std::shared_ptr<BatchHandle::State>& st, std::size_t qi,
    std::size_t stage, DeferredTasks* defer) {
  // Nothing in the chain may leak an exception: a throw between the
  // counter updates (e.g. bad_alloc in partition or task submission)
  // would leave the batch's counters above zero and hang collect()
  // forever, so any such failure marks the batch failed and structurally
  // completes the stage instead.
  try {
    schedule_stage_unchecked(st, qi, stage, defer);
  } catch (...) {
    st->fail(std::current_exception());
    finish_stage(st, qi, stage);
  }
}

void StagePipeline::run_stage_task(
    const std::shared_ptr<BatchHandle::State>& st, std::size_t qi,
    std::size_t stage, std::size_t shard) {
  const std::size_t emit_k = spec_.stages[stage].emit_topk;
  const Request& req = st->batch.requests[qi];
  auto& r = st->rec[qi][stage];
  try {
    if (spec_.stages[stage].kind == StageKind::kReplicated) {
      // consume_items: the predecessors' produced items are the slice.
      r.out_items =
          graph_.item_sources[stage].empty()
              ? servable_.run_replicated(stage, shard, req,
                                         &r.shard_stats[shard])
              : servable_.run_replicated_fed(stage, shard, req,
                                             r.slices[shard],
                                             &r.shard_stats[shard]);
    } else {
      auto partial = servable_.run_sharded(
          stage, shard, req, r.slices[shard], emit_k > 0 ? emit_k : st->k,
          &r.shard_stats[shard]);
      // Only the output stage's partials reach the top-k merge; an
      // emitting interior stage holds them per shard for the item-list
      // merge below; any other interior sharded stage (e.g. an
      // embedding-gather tower) feeds timing and successors, not results.
      if (stage == graph_.output_stage)
        st->partials[qi][shard] = std::move(partial);
      else if (emit_k > 0)
        r.emit[shard] = std::move(partial);
    }
  } catch (...) {
    st->fail(std::current_exception());
  }
  if (st->fan(qi, stage).fetch_sub(1) != 1) return;
  // Last slice joined, so this worker merges the stage's partials: the
  // output stage's into the query's global top-k (collect() only copies
  // it), an emitting stage's into the item list its successors partition.
  // The merge is the same whatever order the slices finished in, so
  // overlap changes neither results nor downstream routing.
  if ((stage == graph_.output_stage || emit_k > 0) &&
      !st->failed.load(std::memory_order_acquire)) {
    try {
      if (stage == graph_.output_stage) {
        merge_partials(st->partials[qi], st->k, st->topk[qi]);
      } else {
        std::vector<recsys::ScoredItem> merged;
        merge_partials(r.emit, emit_k, merged);
        r.out_items.clear();
        r.out_items.reserve(merged.size());
        for (const auto& si : merged) r.out_items.push_back(si.item);
      }
    } catch (...) {
      st->fail(std::current_exception());
    }
  }
  finish_stage(st, qi, stage);
}

void StagePipeline::schedule_stage_unchecked(
    const std::shared_ptr<BatchHandle::State>& st, std::size_t qi,
    std::size_t stage, DeferredTasks* defer) {
  // A failed batch skips its remaining functional work; stages still
  // complete structurally so the done promise fires (collect() rethrows).
  if (st->failed.load(std::memory_order_acquire)) {
    finish_stage(st, qi, stage);
    return;
  }

  // The stage's input items: its one producing source's output, the
  // concatenation of several in declared edge order (deterministic), or
  // with none the request's own item set for a sharded stage.
  const bool replicated = spec_.stages[stage].kind == StageKind::kReplicated;
  const auto& sources = graph_.item_sources[stage];
  std::span<const std::size_t> items;
  std::vector<std::size_t> joined;
  if (sources.size() == 1) {
    items = st->rec[qi][sources.front()].out_items;
  } else if (sources.size() > 1) {
    for (std::size_t src : sources) {
      const auto& out = st->rec[qi][src].out_items;
      joined.insert(joined.end(), out.begin(), out.end());
    }
    items = joined;
  } else if (!replicated) {
    items = st->init_items[qi];
  }
  // A replicated stage runs once, on the query's home shard, over its fed
  // items; a sharded stage runs on every shard its slice is non-empty on
  // and joins on the last slice.
  auto& slices = st->rec[qi][stage].slices;
  if (replicated)
    slices[st->home[qi]].assign(items.begin(), items.end());
  else
    map_.partition_into(items, slices);
  std::size_t fan_in = 0;
  for (std::size_t shard = 0; shard < slices.size(); ++shard)
    if (st->runs_on(qi, stage, replicated, shard)) ++fan_in;
  if (fan_in == 0) {
    finish_stage(st, qi, stage);
    return;
  }
  st->fan(qi, stage).store(fan_in);
  for (std::size_t shard = 0; shard < slices.size(); ++shard) {
    if (!st->runs_on(qi, stage, replicated, shard)) continue;
    if (defer != nullptr) {
      (*defer)[shard].emplace_back(qi, stage);
      continue;
    }
    executors_.at(shard).submit([this, st, qi, stage, shard] {
      run_stage_task(st, qi, stage, shard);
    });
  }
}

void StagePipeline::finish_stage(
    const std::shared_ptr<BatchHandle::State>& st, std::size_t qi,
    std::size_t stage) {
  for (std::size_t succ : graph_.succs[stage])
    if (st->deps(qi, succ).fetch_sub(1) == 1) schedule_stage(st, qi, succ);
  if (st->stages_left[qi].fetch_sub(1) == 1)
    if (st->outstanding.fetch_sub(1) == 1) st->done.set_value();
}

StageStats StagePipeline::adjust_stage(
    const StageStats& measured, std::span<const RowAccess> accesses,
    HotEmbeddingCache* cache, const CacheTiming& timing,
    HotEmbeddingCache::TierFlush* flushed_out) const {
  if (flushed_out != nullptr) *flushed_out = {};
  if (cache == nullptr) return measured;

  std::size_t pooled_hits = 0, pooled_first_hits = 0, row_hits = 0;
  std::size_t parallel_hits = 0;
  // Per parallel group: {id, accesses, hits} — a group's bank-max latency
  // term vanishes only when every one of its banks hits. Groups per stage
  // are few (scored impressions in flight), so a reused flat tally with a
  // linear scan replaces the former per-call std::map (node allocation per
  // group per stage per query); only the full-group COUNT feeds the
  // adjustment, so the tally order cannot affect results.
  group_scratch_.clear();
  for (const auto& a : accesses) {
    const bool hit = cache->access(a.table, a.row);
    if (a.parallel_bank) {
      auto it = std::find_if(
          group_scratch_.begin(), group_scratch_.end(),
          [&](const auto& g) { return g[0] == a.parallel_group; });
      if (it == group_scratch_.end()) {
        group_scratch_.push_back({a.parallel_group, 0, 0});
        it = group_scratch_.end() - 1;
      }
      ++(*it)[1];
      if (hit) {
        ++(*it)[2];
        ++parallel_hits;
      }
      continue;
    }
    if (hit) {
      if (!a.pooled)
        ++row_hits;
      else if (a.first_in_table)
        ++pooled_first_hits;
      else
        ++pooled_hits;
    }
  }
  std::size_t full_groups = 0;
  for (const auto& g : group_scratch_)
    if (g[1] > 0 && g[2] == g[1]) ++full_groups;
  // Tiered memory: misses whose block was not warm-resident faulted whole
  // cold-tier blocks in — charge each at the block-fetch cost, in the new
  // ET-block category so the flat store's accounting is untouched.
  const std::uint64_t block_faults = cache->take_block_faults();
  // Write-back model: a miss admission above may have evicted a dirty row,
  // whose deferred array write happens NOW — charge the flush into this
  // stage's ET-write cost so it lands in hardware time. Read-only streams
  // never dirty a row, so flushed stays 0 and the accounting is untouched.
  const HotEmbeddingCache::TierFlush tier_flush = cache->take_flushed_tiers();
  if (flushed_out != nullptr) *flushed_out = tier_flush;
  const double flushed = static_cast<double>(tier_flush.rows);
  if (pooled_hits == 0 && pooled_first_hits == 0 && row_hits == 0 &&
      parallel_hits == 0 && flushed == 0.0 && block_faults == 0)
    return measured;

  // Replace each hit's CMA+bus cost with the hot-buffer cost, clamped so an
  // adjustment can never drive the measured ET cost negative (the CPU
  // oracle charges no hardware cost at all).
  const double ph = static_cast<double>(pooled_hits);
  const double pfh = static_cast<double>(pooled_first_hits);
  const double rh = static_cast<double>(row_hits);
  StageStats adjusted = measured;
  OpCost& et = adjusted.at(OpKind::kEtLookup);
  const device::Ns lat_removed = timing.pooled_miss.latency * ph +
                                 timing.pooled_first_miss.latency * pfh +
                                 timing.row_miss.latency * rh;
  const device::Pj pj_removed = timing.pooled_miss.energy * ph +
                                timing.pooled_first_miss.energy * pfh +
                                timing.row_miss.energy * rh;
  const double hits = ph + pfh + rh;
  // Parallel-bank hits (RowAccess::parallel_bank): the stage's measured
  // latency holds one bank-max term per group, so latency is credited
  // only for groups whose EVERY bank hit — that group's array read
  // vanishes and the buffer reads that replace it stay parallel (one
  // hit-latency term per group). Energy is credited per hit (banks are
  // summed there).
  const device::Ns parallel_lat_removed =
      timing.row_miss.latency * static_cast<double>(full_groups);
  const device::Ns parallel_lat_added =
      timing.hit.latency * static_cast<double>(full_groups);
  et.latency = device::max(et.latency - lat_removed - parallel_lat_removed,
                           device::Ns{0.0}) +
               timing.hit.latency * hits + parallel_lat_added;
  const double pll = static_cast<double>(parallel_hits);
  et.energy = device::Pj{std::max(
                  0.0, (et.energy - pj_removed -
                        timing.row_miss.energy * pll)
                           .value)} +
              timing.hit.energy * (hits + pll);
  if (flushed > 0.0) {
    OpCost& wr = adjusted.at(OpKind::kEtWrite);
    wr.latency += timing.row_write.latency * flushed;
    wr.energy += timing.row_write.energy * flushed;
    if (tier_flush.cold > 0) {
      // Flushes landing in the cold tier stream past the warm arrays.
      const double cold = static_cast<double>(tier_flush.cold);
      wr.latency += timing.cold_flush.latency * cold;
      wr.energy += timing.cold_flush.energy * cold;
    }
  }
  if (block_faults > 0) {
    OpCost& bf = adjusted.at(OpKind::kEtBlock);
    const double f = static_cast<double>(block_faults);
    bf.latency += timing.block_fetch.latency * f;
    bf.energy += timing.block_fetch.energy * f;
  }
  return adjusted;
}

OpCost StagePipeline::merge_cost(std::size_t slices, std::size_t k) const {
  // Each contributing shard ships k (id, score) pairs (8 bytes each) over
  // the RSC bus; the controller then runs a k-way tournament across slices.
  const std::size_t bytes = 8 * std::max<std::size_t>(k, 1);
  const std::size_t cycles_per_shard =
      (bytes * 8 + profile_.rsc_bus_bits - 1) / profile_.rsc_bus_bits;
  const double transfers =
      static_cast<double>(cycles_per_shard) * static_cast<double>(slices);
  // ceil(log2(slices)) tournament rounds; a single slice needs no merge.
  double rounds = 0.0;
  for (std::size_t span = 1; span < slices; span *= 2) rounds += 1.0;
  const double selects = static_cast<double>(k) * rounds;
  OpCost cost;
  cost.latency = profile_.rsc_cycle * transfers +
                 profile_.controller_cycle * selects;
  cost.energy = profile_.rsc_energy * transfers +
                profile_.controller_energy * selects;
  return cost;
}

std::vector<Request> StagePipeline::collect(
    BatchHandle handle, HotEmbeddingCache* cache,
    std::span<const CacheTiming> timing, std::vector<QueryResult>& results) {
  IMARS_REQUIRE(handle.valid(), "StagePipeline::collect: invalid handle");
  IMARS_REQUIRE(handle.state_->seq == next_collect_seq_,
                "StagePipeline::collect: handles must be collected in "
                "submission order");
  ++next_collect_seq_;
  IMARS_REQUIRE(timing.size() == 1 || timing.size() == shards(),
                "StagePipeline::collect: one CacheTiming, or one per shard");
  const auto timing_of = [&](std::size_t shard) -> const CacheTiming& {
    return timing.size() == 1 ? timing.front() : timing[shard];
  };
  auto st = std::move(handle.state_);
  st->done_future.wait();
  {
    std::lock_guard lock(st->err_mu);
    if (st->error) std::rethrow_exception(st->error);
  }

  const std::size_t n = st->batch.size();
  const std::size_t ns = shards();
  const std::size_t stages = spec_.stage_count();

  // Deterministic accounting in batch order: cache rewrite of ET costs,
  // then the event model (per-shard multi-stage pipeline with shared
  // ET-bank contention, as in core/throughput.hpp) composes hardware time.
  // Each query's stages are walked in topological order; a stage becomes
  // ready when its last predecessor ends, so the query's completion is its
  // critical path through the graph (on a chain, ready is simply the
  // previous stage's end).
  results.resize(n);
  stage_end_scratch_.resize(stages);
  auto& stage_end = stage_end_scratch_;
  for (std::size_t qi = 0; qi < n; ++qi) {
    const Request& req = st->batch.requests[qi];
    QueryResult& out = results[qi];
    // Reused QueryResult slots carry the previous batch's values; every
    // field is either assigned below or reset here (the per-shard walk
    // ACCUMULATES into stage_stats, so those must start from zero).
    out.request = req;
    out.batch_id = st->batch.id;
    out.batch_size = n;
    out.dispatch = st->batch.dispatch;
    out.home_shard = st->home[qi];
    out.stage_latency.resize(stages);
    out.stage_stats.assign(stages, StageStats{});
    out.work_items = 0;

    device::Ns complete = st->batch.dispatch;
    for (std::size_t s : graph_.order) {
      const auto& rec = st->rec[qi][s];
      device::Ns ready = st->batch.dispatch;
      for (std::size_t p : graph_.preds[s])
        ready = device::max(ready, stage_end[p]);

      // Each execution occupies its shard's stage unit and, with ET
      // traffic, the shard's shared ET banks; the stage ends with its last
      // execution. A replicated stage runs once, on the query's home shard.
      const bool replicated = spec_.stages[s].kind == StageKind::kReplicated;
      device::Ns end = ready;
      std::size_t contributing = 0;
      for (std::size_t shard = 0; shard < ns; ++shard) {
        if (!st->runs_on(qi, s, replicated, shard)) continue;
        ++contributing;
        // Row-access lists exist only to feed the cache; skip them when no
        // cache is configured. They append into a reused scratch buffer.
        std::span<const RowAccess> accesses;
        if (cache != nullptr) {
          access_scratch_.clear();
          servable_.accesses_into(s, req, rec.slices[shard], access_scratch_);
          accesses = access_scratch_;
        }
        HotEmbeddingCache::TierFlush flushed;
        const StageStats adj = adjust_stage(rec.shard_stats[shard], accesses,
                                            cache, timing_of(shard), &flushed);
        out.stage_stats[s].merge(adj);
        const device::Ns t = adj.total().latency;
        // Flush write-backs (kEtWrite) occupy the same in-memory arrays as
        // the lookups, so they extend the shared ET-bank claim — as do
        // cold-tier block fetches (kEtBlock), which stream through the
        // same banks; both are zero outside their features.
        const device::Ns et = adj.at(OpKind::kEtLookup).latency +
                              adj.at(OpKind::kEtWrite).latency +
                              adj.at(OpKind::kEtBlock).latency;
        ShardClocks& c = clocks_[shard];
        const device::Ns unit_free = c.stage_free[s];
        const device::Ns shared_free = c.shared_free;
        // A stage with no ET traffic (e.g. a pure crossbar tower) neither
        // waits on nor claims the shard's shared ET banks — that is what
        // lets parallel feature towers genuinely overlap.
        const device::Ns start =
            et.value > 0.0 ? std::max({ready, unit_free, shared_free})
                           : std::max(ready, unit_free);
        const device::Ns exec_end = start + t;
        c.stage_free[s] = exec_end;
        if (et.value > 0.0) c.shared_free = start + et;
        // et <= t, so `exec_end` dominates both commits.
        frontier_ = device::max(frontier_, exec_end);
        usage_[shard].stage_busy[s] += t;
        end = device::max(end, exec_end);
        if (sink_ != nullptr) {
          if (flushed.rows > 0)
            sink_->on_cache_flush(shard, start, flushed.rows, flushed.warm,
                                  flushed.cold);
          StageSpan span;
          span.stage = s;
          span.name = spec_.stages[s].name;
          span.shard = shard;
          span.query = req.id;
          span.batch = st->batch.id;
          span.ready = ready;
          span.start = start;
          span.end = exec_end;
          span.unit_wait = device::max(unit_free - ready, device::Ns{0.0});
          span.et_wait =
              et.value > 0.0
                  ? device::max(shared_free - device::max(ready, unit_free),
                                device::Ns{0.0})
                  : device::Ns{0.0};
          span.et_busy = et;
          sink_->on_stage(span);
        }
      }
      if (spec_.stages[s].emit_topk > 0) {
        // Emitting stage: the per-shard partials ship to the controller
        // and merge into the global top-emit_topk item list BEFORE any
        // successor can start — the merge latency is on the produced item
        // set's critical path, so it lands in stage_end[s].
        const OpCost merge = merge_cost(
            std::max<std::size_t>(contributing, 1), spec_.stages[s].emit_topk);
        out.stage_stats[s].at(OpKind::kComm) += merge;
        const device::Ns merge_start = end;
        end = end + merge.latency;
        if (sink_ != nullptr)
          sink_->on_stage_merge(s, spec_.stages[s].name, req.id, st->batch.id,
                                merge_start, end);
      }
      if (s == graph_.output_stage) {
        out.work_items = 0;
        for (const auto& slice : rec.slices) out.work_items += slice.size();
        if (spec_.merge_topk) {
          // Merge unit: global top-k from the per-shard top-k lists.
          const OpCost merge =
              merge_cost(std::max<std::size_t>(contributing, 1), st->k);
          out.stage_stats[s].at(OpKind::kComm) += merge;
          end = end + merge.latency;
        }
      }
      out.stage_latency[s] = end - ready;
      stage_end[s] = end;
      complete = device::max(complete, end);
    }
    out.complete = complete;
    // Graphs without a sharded stage report the last replicated stage's
    // item output (the pre-DAG "current item set" semantics).
    if (graph_.output_stage == PipelineSpec::kNoStage) {
      for (std::size_t s : graph_.order)
        if (spec_.stages[s].kind == StageKind::kReplicated)
          out.work_items = st->rec[qi][s].out_items.size();
    }
    out.topk.assign(st->topk[qi].begin(), st->topk[qi].end());
  }

  // Close the allocate/free cycle: the batch's request storage goes back
  // to the caller (for its producer to reuse), and the State — with all
  // its per-query buffers — parks in the pool for the next submit. Its
  // pending_ entry is erased NOW: a pooled State never expires, so
  // leaving the weak pointer behind would grow the list without bound.
  std::vector<Request> spent = std::move(st->batch.requests);
  st->batch.requests.clear();
  {
    std::lock_guard lock(pending_mu_);
    std::erase_if(pending_, [&](const auto& wp) {
      return wp.expired() || wp.lock() == st;
    });
  }
  state_pool_.push_back(std::move(st));
  return spent;
}

std::vector<StagePipeline::QueryResult> StagePipeline::execute(
    const Batch& batch, std::size_t k, HotEmbeddingCache* cache,
    std::span<const CacheTiming> timing) {
  std::vector<QueryResult> results;
  collect(submit(batch, k), cache, timing, results);
  return results;
}

}  // namespace imars::serve
