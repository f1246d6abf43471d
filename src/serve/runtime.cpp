#include "serve/runtime.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/servable_funnel.hpp"
#include "util/error.hpp"

namespace imars::serve {

namespace {

/// The runtime's servable, refused when null before the pipeline is built
/// over it.
ServableBackend& non_null(const std::unique_ptr<ServableBackend>& servable) {
  IMARS_REQUIRE(servable != nullptr, "ServingRuntime: null servable");
  return *servable;
}

}  // namespace

ServingRuntime::ServingRuntime(const core::BackendFactory& factory,
                               const ServingConfig& cfg,
                               const core::ArchConfig& arch,
                               const device::DeviceProfile& profile)
    : ServingRuntime(std::make_unique<ShardRouter>(factory, cfg.shards,
                                                   cfg.traffic),
                     cfg, arch, profile) {}

ServingRuntime::ServingRuntime(std::unique_ptr<ServableBackend> servable,
                               const ServingConfig& cfg,
                               const core::ArchConfig& arch,
                               const device::DeviceProfile& profile,
                               std::span<const device::DeviceProfile>
                                   shard_profiles)
    : cfg_(cfg),
      qos_(cfg.effective_qos()),
      servable_(std::move(servable)),
      pipeline_(non_null(servable_), profile, cfg.shard_map) {
  IMARS_REQUIRE(cfg_.k >= 1, "ServingRuntime: k must be >= 1");
  // Heterogeneous fabrics: a cache hit must credit back the *owning*
  // shard's miss cost, so the timing is derived per shard profile. With
  // tiering enabled the timings also carry the cold-tier block-fetch cost
  // (zero otherwise, so the flat store's timings are unchanged).
  const std::size_t block_rows =
      cfg_.cache.tiering_enabled() ? cfg_.cache.cold_block_rows : 0;
  if (shard_profiles.empty()) {
    timings_ = {
        CacheTiming::from_model(core::PerfModel(arch, profile), block_rows)};
  } else {
    IMARS_REQUIRE(shard_profiles.size() == servable_->shards(),
                  "ServingRuntime: one shard profile per shard");
    for (const auto& p : shard_profiles)
      timings_.push_back(
          CacheTiming::from_model(core::PerfModel(arch, p), block_rows));
  }
  // The config's shard count reflects the fabric actually built.
  cfg_.shards = servable_->shards();
  row_bytes_ = arch.emb_dim;  // int8 lanes: one byte per lane per row
  if (cfg_.placement.warm_rows > 0) {
    IMARS_REQUIRE(cfg_.cache.tiering_enabled(),
                  "ServingRuntime: warm_rows needs a tiering-enabled cache");
    IMARS_REQUIRE(!cfg_.placement.warm_histogram.empty() ||
                      cfg_.placement.warmup_queries >= 1,
                  "ServingRuntime: warm pinning needs an offline histogram "
                  "or a warmup window");
  }
}

namespace {

/// Deferred collection's in-flight depth: submission waits for the oldest
/// batch once this many are in flight. Host scheduling only — reports are
/// identical at any depth.
constexpr std::size_t kMaxInflight = 4;

struct ArrivalLater {
  bool operator()(const Request& a, const Request& b) const {
    if (a.enqueue.value != b.enqueue.value)
      return a.enqueue.value > b.enqueue.value;
    return a.id > b.id;  // deterministic tie-break
  }
};

}  // namespace

ServeReport ServingRuntime::run(LoadGenerator& gen,
                                std::span<const recsys::UserContext> users) {
  IMARS_REQUIRE(!users.empty(), "ServingRuntime::run: empty user population");
  if (auto* r = dynamic_cast<ShardRouter*>(servable_.get())) {
    r->bind_users(users);
  } else {
    auto* f = dynamic_cast<FunnelServable*>(servable_.get());
    IMARS_REQUIRE(f != nullptr, "ServingRuntime::run: no filter/rank servable");
    f->bind_users(users);
  }
  return run(gen);
}

QosBatcherConfig ServingRuntime::resolved_qos() {
  QosBatcherConfig qos = qos_;
  for (auto& cls : qos.classes) {
    if (cls.deadline.value <= 0.0 || cls.service_estimate.value > 0.0)
      continue;
    const auto costs = servable_->stage_cost_estimate(cfg_.k);
    if (costs.empty()) continue;
    cls.service_estimate =
        pipeline_.service_estimate(costs, cfg_.k, cls.max_batch);
  }
  return qos;
}

std::vector<std::uint64_t> ServingRuntime::warm_pin_keys(
    const LoadGenConfig& load) {
  const PlacementConfig& pc = cfg_.placement;
  std::vector<HotKey> hot;
  if (!pc.warm_histogram.empty()) {
    hot = PlacementPolicy::top_keys(pc.warm_histogram, pc.warm_rows);
  } else {
    // Warmup window: replay the run's own arrival stream (fresh generator,
    // same seed) and histogram the ET *row* keys (the cache's key space)
    // each query touches. Stage 0 is the gather/entry stage of every
    // built-in graph, so its accesses over the profile items are the
    // request's ET row footprint. Runs replica 0 on the calling thread —
    // no batch is in flight yet, exactly like the QoS estimate probes.
    std::unordered_map<std::size_t, std::uint64_t> counts;
    LoadGenerator warm(load);
    ServableBackend& sv = *servable_;
    std::size_t profiled = 0;
    for (std::size_t i = 0; profiled < pc.warmup_queries; ++i) {
      const std::optional<Request> r =
          load.arrivals == ArrivalProcess::kClosedLoop
              ? warm.next(i % load.clients, device::Ns{0.0})
              : warm.next_arrival();
      if (!r) break;
      // Updates are applied as writes, not served as queries, so the
      // window counts QUERIES.
      if (r->is_update) continue;
      ++profiled;
      for (const auto& a : sv.accesses(0, *r, sv.profile_items(*r)))
        ++counts[(static_cast<std::uint64_t>(a.table) << 32) | a.row];
    }
    hot = PlacementPolicy::top_keys(counts, pc.warm_rows);
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(hot.size());
  for (const auto& hk : hot) keys.push_back(hk.key);
  return keys;
}

ServeReport ServingRuntime::run(LoadGenerator& gen) {
  pipeline_.reset_clock();
  // Observation is attached for this run only; the sink is a pure observer
  // (see ObserverSink), so every path below is bit-identical with or
  // without it.
  pipeline_.set_observer(sink_);
  // Latency-critical classes without a hand-tuned service_estimate get a
  // graph-aware default (critical path through the servable's stage DAG,
  // probed before serving) for the preemptive-close slack computation.
  const QosBatcherConfig qos = resolved_qos();
  HotEmbeddingCache cache(cfg_.cache);
  cache.set_observer(sink_);
  // Tier-aware pin resolution: static warm pins resolve before serving,
  // from the offline row histogram or the warmup replay (deterministic for
  // this run's load config).
  if (cfg_.placement.warm_rows > 0 && cache.tiering_enabled())
    cache.pin_warm(warm_pin_keys(gen.config()));
  // A tiering-enabled cache participates in collection even with a
  // zero-row hot buffer (pure warm/cold hierarchy).
  HotEmbeddingCache* cache_ptr =
      cfg_.cache.capacity_rows > 0 || cache.tiering_enabled() ? &cache
                                                              : nullptr;
  QosBatcher batcher(qos);
  // Wall-clock self-profiling of the event-model hot path; host-side
  // telemetry only, exempt from the simulated-time determinism contract.
  HostProfiler prof;
  if (cfg_.self_profile) prof.enable(sink_);

  const bool open = gen.config().arrivals != ArrivalProcess::kClosedLoop;
  const bool gated = qos.gated();
  // Deferred collection (cross-batch stage overlap) requires batch release
  // to be completion-independent — true unconditionally only for
  // open-loop/trace arrivals with an ungated admission queue (the gate
  // reads the device frontier, which completions advance). The phased loop
  // still overlaps query stages *within* a batch (the engine chains stages
  // with no barrier), but collects batch by batch.
  const bool defer = cfg_.overlap && open && !gated;
  const device::Ns window = qos.admit_window;

  // Closed loop: completions enqueue out-of-order arrivals, so a heap is
  // needed. Open loop / trace: next_arrival() already yields sorted
  // arrivals and completions enqueue nothing, so a one-request lookahead
  // suffices.
  std::priority_queue<Request, std::vector<Request>, ArrivalLater> arrivals;
  std::optional<Request> lookahead;
  if (open) {
    lookahead = gen.next_arrival();
  } else {
    for (std::size_t c = 0; c < gen.config().clients; ++c)
      if (auto r = gen.next(c, device::Ns{0.0})) arrivals.push(*r);
  }
  auto arrivals_empty = [&] {
    return open ? !lookahead.has_value() : arrivals.empty();
  };
  auto peek_arrival = [&]() -> const Request& {
    return open ? *lookahead : arrivals.top();
  };
  auto pop_arrival = [&] {
    const Request r = peek_arrival();
    if (open)
      lookahead = gen.next_arrival();
    else
      arrivals.pop();
    return r;
  };

  ServeReport report;
  if (cfg_.streaming_report) {
    report.streaming = StreamingAggregates(cfg_.streaming_rel_err);
    report.streaming.enabled = true;
  }
  for (const auto& cls : qos.classes) {
    ClassReport cr;
    cr.name = cls.name;
    cr.weight = cls.weight;
    cr.deadline = cls.deadline;
    report.classes.push_back(std::move(cr));
  }
  const double weight_sum = [&] {
    double sum = 0.0;
    for (const auto& cls : qos.classes) sum += cls.weight;
    return sum;
  }();

  struct InflightBatch {
    StagePipeline::BatchHandle handle;
    std::size_t qos_class = 0;
    std::size_t id = 0;        ///< batch id (observer span key)
    device::Ns first_enqueue;  ///< oldest member's arrival
    device::Ns dispatch;  ///< batch close time (update-ordering fence)
    device::Ns release;   ///< admission-gate release (== dispatch ungated)
    CloseTrigger trigger = CloseTrigger::kSize;
  };
  std::deque<InflightBatch> inflight;

  // Embedding-update requests awaiting application, in arrival order.
  // Updates bypass the batcher entirely; their write traffic is applied in
  // TIMESTAMP order relative to batch dispatches — every update with
  // enqueue <= a batch's dispatch applies before that batch's collection.
  // Both phased and deferred collection walk batches in dispatch order, so
  // the cache/clock mutation sequence is identical under overlap on/off
  // (the write-back analogue of the bit-identical-reports contract).
  std::deque<Request> pending_updates;
  auto apply_update = [&](const Request& r) {
    // A single-class table is class-blind, like QosBatcher::add.
    IMARS_REQUIRE(qos.classes.size() == 1 || r.qos_class < qos.classes.size(),
                  "ServingRuntime: update routed to a missing class");
    // The update's home shard, keyed by request id like a query's home.
    const std::size_t home = pipeline_.shard_map().shard_of(r.id);
    const CacheTiming& timing =
        timings_.size() == 1 ? timings_.front() : timings_[home];
    recsys::OpCost cost;
    // The cache object is used even when the read path runs cache-less
    // (capacity 0): update() then degrades to counted write-through, which
    // is exactly the telemetry a buffer-less fabric should report.
    for (const auto& a : servable_->update_accesses(r)) {
      const bool absorbed = cache.update(a.table, a.row);
      const recsys::OpCost& c =
          absorbed ? timing.buffer_fill : timing.row_write;
      cost.latency += c.latency;
      cost.energy += c.energy;
    }
    pipeline_.charge_write(home, cost, r.enqueue);
    ++report.updates;
    report.update_cost += cost;
  };
  auto apply_updates_until = [&](device::Ns t) {
    while (!pending_updates.empty() &&
           pending_updates.front().enqueue.value <= t.value) {
      apply_update(pending_updates.front());
      pending_updates.pop_front();
    }
  };
  // Closed-but-unadmitted batches. Ungated configs release a batch the
  // instant it closes (the deque never survives an event), which is
  // exactly the PR 2 dispatch behavior.
  std::deque<Batch> ready;

  // Deterministic accounting of the oldest in-flight batch (collection
  // happens in dispatch order, so overlapped and phased execution yield
  // bit-identical reports). One result buffer is reused across every
  // drained batch.
  std::vector<StagePipeline::QueryResult> results;
  auto drain_one = [&] {
    InflightBatch entry = std::move(inflight.front());
    inflight.pop_front();
    // Updates that arrived up to this batch's close apply first (timestamp
    // order — see pending_updates above).
    apply_updates_until(entry.dispatch);
    // Tier migrations commit at the same batch-dispatch fence — never at
    // completion — so the demotion sequence depends only on the
    // submission order and is bit-identical under overlap on/off.
    cache.commit_migrations(entry.dispatch);
    {
      // Worker-completion wait is simulated-work execution time, not host
      // bookkeeping: profile it separately so host.collect measures the
      // composition loop itself.
      HostProfiler::Scope host(prof, "host.wait");
      entry.handle.wait();
    }
    {
      HostProfiler::Scope host(prof, "host.collect");
      // Collected request storage flows back to the batcher's spare pool
      // instead of being freed.
      batcher.recycle(pipeline_.collect(std::move(entry.handle), cache_ptr,
                                        timings_, results));
    }
    HostProfiler::Scope host(prof, "host.report");
    ++report.batches;
    ClassReport& cr = report.classes[entry.qos_class];
    ++cr.batches;
    const device::Ns slo = qos.classes[entry.qos_class].deadline;
    device::Ns batch_complete = entry.dispatch;
    for (const auto& res : results) {
      const Request& req = res.request;
      // Whole-run telemetry (class accounting, stage stats, makespan) is
      // identical in record and streaming mode; only the per-query record
      // retention differs.
      device::Ns device_time;
      device::Pj energy;
      for (const auto& s : res.stage_stats) {
        energy += s.total().energy;
        device_time += s.total().latency;
      }
      ++cr.queries;
      cr.device_time += device_time;
      if (slo.value > 0.0 && (res.complete - req.enqueue) > slo)
        ++cr.slo_violations;
      if (report.streaming.enabled) {
        report.streaming.note(req.qos_class,
                              (res.complete - req.enqueue).value,
                              energy.value, device_time.value);
      } else {
        ServedQuery& q = report.queries.emplace_back();
        q.id = req.id;
        q.user = req.user;
        q.client = req.client;
        q.qos_class = req.qos_class;
        q.batch = res.batch_id;
        q.batch_size = res.batch_size;
        q.home_shard = res.home_shard;
        q.candidates = res.work_items;
        q.enqueue = req.enqueue;
        q.dispatch = res.dispatch;
        q.complete = res.complete;
        // Every stage before the last aggregates as "filter", the last as
        // "rank" (scoring), so the split reconciles with per-query energy
        // for any stage count.
        for (std::size_t s = 0; s + 1 < res.stage_latency.size(); ++s)
          q.filter_latency += res.stage_latency[s];
        q.rank_latency = res.stage_latency.back();
        q.energy = energy;
        q.device_time = device_time;
        q.topk = res.topk;
      }
      for (std::size_t s = 0; s + 1 < res.stage_stats.size(); ++s)
        report.filter_stats.merge(res.stage_stats[s]);
      report.rank_stats.merge(res.stage_stats.back());
      report.makespan = device::max(report.makespan, res.complete);
      batch_complete = device::max(batch_complete, res.complete);

      // Closed loop: the client issues its next query on completion.
      if (!open)
        if (auto next = gen.next(req.client, res.complete))
          arrivals.push(*next);
    }
    if (sink_ != nullptr) {
      BatchSpan bs;
      bs.id = entry.id;
      bs.qos_class = entry.qos_class;
      bs.class_name = qos.classes[entry.qos_class].name;
      bs.size = results.size();
      bs.trigger = entry.trigger;
      bs.first_enqueue = entry.first_enqueue;
      bs.close = entry.dispatch;
      bs.release = entry.release;
      bs.complete = batch_complete;
      sink_->on_batch(bs);
    }
  };

  auto submit_batch = [&](Batch batch, device::Ns release) {
    // Batch coordinates are captured BEFORE submit consumes the batch
    // (its request storage moves into the engine).
    InflightBatch entry;
    entry.qos_class = batch.qos_class;
    entry.id = batch.id;
    entry.first_enqueue = batch.requests.empty()
                              ? batch.dispatch
                              : batch.requests.front().enqueue;
    entry.dispatch = batch.dispatch;
    entry.release = release;
    entry.trigger = batch.trigger;
    {
      HostProfiler::Scope host(prof, "host.submit");
      entry.handle = pipeline_.submit(std::move(batch), cfg_.k);
    }
    inflight.push_back(std::move(entry));
    if (!defer) {
      drain_one();
    } else {
      while (inflight.size() > kMaxInflight) drain_one();
    }
  };

  // Admission order over the GATED ready queue: deadline classes running
  // inside their weight entitlement release earliest-deadline-first (so a
  // bulk backlog cannot sit in front of an interactive batch), everyone
  // else by measured weighted virtual time (consumed device time /
  // weight) — weight-0 scavengers only when nothing else is ready. Index 0
  // wins ties (FIFO: ready is close-ordered). Only consulted while gated:
  // gating forces immediate collection, so the per-class device-time
  // totals it reads are always complete. (Ungated mode releases in close
  // order — under deferred collection the totals lag by the in-flight
  // batches, and a policy read there would let the overlap flag change
  // release order, breaking the bit-identical-reports contract.)
  auto pick_ready = [&]() -> std::size_t {
    double total_device = 0.0;
    for (const auto& cr : report.classes) total_device += cr.device_time.value;
    std::optional<std::size_t> best_edf;
    double best_edf_key = 0.0;
    std::optional<std::size_t> best_vt;
    double best_vt_key = 0.0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const std::size_t cls = ready[i].qos_class;
      const QosClassConfig& ccfg = qos.classes[cls];
      if (ccfg.deadline.value > 0.0 && ccfg.weight > 0.0 &&
          weight_sum > 0.0) {
        const double share =
            total_device > 0.0
                ? report.classes[cls].device_time.value / total_device
                : 0.0;
        if (share <= ccfg.weight / weight_sum) {
          const double key =
              ready[i].requests.front().enqueue.value + ccfg.deadline.value;
          if (!best_edf || key < best_edf_key) {
            best_edf = i;
            best_edf_key = key;
          }
          continue;
        }
      }
      const double key =
          ccfg.weight > 0.0
              ? report.classes[cls].device_time.value / ccfg.weight
              : std::numeric_limits<double>::infinity();
      if (!best_vt || key < best_vt_key) {
        best_vt = i;
        best_vt_key = key;
      }
    }
    if (best_edf) return *best_edf;
    return best_vt.value_or(0);
  };

  // Releases ready batches while the admission gate is open at `now` (the
  // device backlog frontier within admit_window). Ungated: releases
  // everything immediately. The comparison uses the same
  // `frontier - window` expression as the gate-opening event time below —
  // mixing `now + window` here would round differently and the gate could
  // stay shut at its own opening instant.
  auto pump = [&](device::Ns now) {
    while (!ready.empty()) {
      if (gated && (pipeline_.frontier() - window).value > now.value) break;
      const std::size_t idx = gated ? pick_ready() : 0;
      Batch batch = std::move(ready[idx]);
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(idx));
      submit_batch(std::move(batch), now);
      // Time series at every release: gated-queue depth, in-flight depth,
      // and how far the device backlog frontier runs ahead of "now".
      if (sink_ != nullptr) {
        sink_->on_counter("queue.ready", now,
                          static_cast<double>(ready.size()));
        sink_->on_counter("queue.inflight", now,
                          static_cast<double>(inflight.size()));
        sink_->on_counter("frontier.lag_ns", now,
                          std::max(0.0, (pipeline_.frontier() - now).value));
      }
    }
  };

  auto close_fired = [&](device::Ns now) {
    HostProfiler::Scope host(prof, "host.batcher");
    bool closed = false;
    while (auto batch = batcher.poll(now)) {
      ready.push_back(std::move(*batch));
      closed = true;
    }
    if (closed && sink_ != nullptr)
      sink_->on_counter("queue.ready", now,
                        static_cast<double>(ready.size()));
    return closed;
  };

  device::Ns last_enqueue{0.0};
  while (!arrivals_empty() || !batcher.empty() || !ready.empty() ||
         !inflight.empty()) {
    if (!arrivals_empty()) {
      const device::Ns next_arrival = peek_arrival().enqueue;
      const auto trigger = batcher.deadline();
      std::optional<device::Ns> gate;
      if (gated && !ready.empty()) gate = pipeline_.frontier() - window;
      // Earliest actionable event wins; the arrival wins ties (matching
      // the PR 2 loop), and a due batcher trigger precedes a gate opening
      // at the same instant (close before release). The close time is
      // clamped to the newest arrival: a scavenger class can surface a
      // trigger that went stale while it was suppressed behind other
      // traffic, and its batch must not be stamped before its own
      // members' enqueues. (For admissible classes the trigger always
      // fires before any later arrival is added, so the clamp is a no-op
      // — single-class runs stay bit-identical to PR 2.)
      if (trigger && *trigger < next_arrival &&
          (!gate || *trigger <= *gate)) {
        const device::Ns when = device::max(*trigger, last_enqueue);
        IMARS_REQUIRE(close_fired(when),
                      "ServingRuntime: spurious batcher trigger");
        pump(when);
        continue;
      }
      if (gate && *gate < next_arrival) {
        pump(device::max(*gate, last_enqueue));
        continue;
      }
      // The arrival is the earliest actionable event. last_enqueue stays
      // monotone: gated closed loops can spawn an arrival slightly in the
      // past (a held batch completing early), and the flush/clamp
      // timestamps below must never move backwards for it.
      const Request r = pop_arrival();
      last_enqueue = device::max(last_enqueue, r.enqueue);
      if (r.is_update) {
        // Embedding-update writes never enter the batcher: their traffic
        // is applied in timestamp order against the write-back cache. Like
        // QosBatcher::add, a slightly out-of-order arrival (a gated closed
        // loop completing a held batch early) is inserted in enqueue
        // order, after any equal timestamps — apply_updates_until's fence
        // walks the deque front-to-back by timestamp.
        auto pos = pending_updates.end();
        while (pos != pending_updates.begin() &&
               std::prev(pos)->enqueue.value > r.enqueue.value)
          --pos;
        pending_updates.insert(pos, r);
        if (!open)
          if (auto next = gen.next(r.client, r.enqueue))
            arrivals.push(*next);
        continue;
      }
      batcher.add(r);
      close_fired(r.enqueue);  // size trigger fires as the queue fills
      pump(r.enqueue);
      continue;
    }
    if (!batcher.empty()) {
      // No arrival can occur before a completion (closed loop, nothing
      // pending; open loop, stream exhausted): waiting out the deadline
      // would be pure simulation artifact, so drain the partial batches at
      // the newest request's arrival time.
      auto batch = batcher.flush(last_enqueue);
      IMARS_REQUIRE(batch.has_value(), "ServingRuntime: spurious flush");
      ready.push_back(std::move(*batch));
      pump(last_enqueue);
      continue;
    }
    if (!ready.empty()) {
      // Only the gated backlog remains: open the gate at its own time.
      pump(device::max(pipeline_.frontier() - window, last_enqueue));
      continue;
    }
    // Only in-flight batches remain (deferred collection).
    drain_one();
  }
  // Updates trailing the last batch dispatch (or an update-only stream).
  apply_updates_until(device::Ns{std::numeric_limits<double>::infinity()});

  report.shards.assign(pipeline_.usage().begin(), pipeline_.usage().end());
  // Graph-node keys into the per-shard stage_busy layout.
  for (const auto& stage : pipeline_.spec().stages)
    report.stage_names.push_back(stage.name);
  report.cache = cache.stats();
  report.flush_bytes =
      static_cast<std::size_t>(cache.stats().flushes) * row_bytes_;
  // Host wall-clock totals (name order — total_us() is an ordered map);
  // telemetry only, outside the parity contract.
  if (cfg_.self_profile)
    for (const auto& [name, us] : prof.total_us())
      report.host_span_us.emplace_back(name, us);
  // End-of-run whole-shard occupancy, stamped at the makespan: total_busy
  // (every stage unit plus the write path — the one view that counts
  // ShardUsage::write_busy) and the write path alone.
  if (sink_ != nullptr) {
    for (std::size_t s = 0; s < report.shards.size(); ++s) {
      const std::string prefix = "shard." + std::to_string(s);
      sink_->on_counter(prefix + ".total_busy_ns", report.makespan,
                        report.shards[s].total_busy().value);
      sink_->on_counter(prefix + ".write_busy_ns", report.makespan,
                        report.shards[s].write_busy.value);
    }
  }
  return report;
}

}  // namespace imars::serve
