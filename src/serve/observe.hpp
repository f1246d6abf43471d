// Serving observability: streaming metrics and a pure-observer sink.
//
// Five PRs of serving features are validated through end-of-run aggregates;
// this layer opens the run up without perturbing it. Three pieces live here:
//
//   * StreamingHistogram — log-bucketed latency histogram with incremental
//     percentiles. Memory is O(pages of buckets touched) instead of
//     O(queries), and the incremental p50/p95/p99 match the exact
//     sorted-sample percentiles (util::percentile semantics: rank =
//     p/100 * (n-1), linear interpolation) within the bucket's
//     relative-error bound. The ROADMAP's million-user steady state cannot
//     retain every ServedQuery; this is the replacement accounting.
//   * MetricsRegistry — named counters / gauges / histograms, the
//     aggregation side of the observer events below.
//   * ObserverSink — the instrumentation interface. QosBatcher,
//     StagePipeline, ServingRuntime and HotEmbeddingCache report
//     simulated-time spans and events through it. Every method is a no-op
//     by default and every call site is guarded by a null check, so an
//     unobserved run compiles to the exact pre-observability code path.
//     Sinks are OBSERVERS ONLY: they receive copies of timing decisions
//     already made and can never feed anything back, which is what makes
//     the bit-identical-reports contract hold with observation on or off.
//   * HostProfiler — wall-clock (std::chrono) self-profiling scopes around
//     the event-model hot path (batcher close, collect(), report
//     accumulation). The simulator's own speed is a ROADMAP item; these
//     spans land in the same trace file as the simulated-time spans, on a
//     separate process track.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "device/units.hpp"

namespace imars::serve {

/// Why a batch closed. Carried on every Batch the policies emit, so batch
/// spans can attribute tail latency to the close decision (a deadline-fired
/// singleton batch and a size-fired full batch have very different stories).
enum class CloseTrigger : std::uint8_t {
  kSize,        ///< max_batch requests were pending
  kDeadline,    ///< the oldest request exhausted max_wait
  kPreemptive,  ///< closed early to protect an end-to-end deadline
  kFlush,       ///< end-of-stream drain
};

constexpr std::string_view to_string(CloseTrigger t) {
  switch (t) {
    case CloseTrigger::kSize: return "size";
    case CloseTrigger::kDeadline: return "deadline";
    case CloseTrigger::kPreemptive: return "preemptive";
    case CloseTrigger::kFlush: return "flush";
  }
  return "unknown";
}

/// Log-bucketed streaming histogram. Bucket i spans [base^i, base^(i+1))
/// with base = (1 + rel_err)^2, so the geometric-mean representative
/// base^(i+0.5) is within rel_err of every sample in the bucket. Exact
/// min/max/sum are tracked on the side: the mean is exact, the extreme
/// ranks (first and last sample) are exact — which makes n = 1 and n = 2
/// percentiles exact, matching the pinned ServeReport tiny-n semantics —
/// and interior ranks are within the bucket bound. Non-positive samples
/// (latency 0 exists: a closed-loop client's enqueue can equal its
/// dispatch) collect in a dedicated zero bucket.
///
/// Bucket counts live in pages of kPageBuckets consecutive buckets, each
/// allocated when one of its buckets is first touched and kept in a
/// directory ordered by first bucket. Memory follows the pages touched,
/// never the distance between the smallest and largest sample: a latency
/// stream clustered over ~15,000 buckets at rel_err 1e-4 fills about one
/// page per kPageBuckets buckets of its span, and two samples 7e8 buckets
/// apart hold two pages. record() finds a sample's page by binary search
/// of the directory.
class StreamingHistogram {
 public:
  /// Finest accepted resolution. Bucket indices are int32 and every finite
  /// positive double has |ln x| <= 744.5, so ln(base) must exceed
  /// 744.5 / 2^31, i.e. rel_err above ~1.74e-7; the floor leaves margin.
  static constexpr double kMinRelErr = 1e-6;
  /// Buckets per page of counts; a page starts at a multiple of it.
  static constexpr std::int32_t kPageBuckets = 256;

  /// `rel_err` in [kMinRelErr, 1); anything else throws.
  explicit StreamingHistogram(double rel_err = 0.01);

  /// Adds one sample; a NaN or infinite `x` throws.
  void record(double x);

  std::size_t count() const noexcept { return n_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }
  double rel_err() const noexcept { return rel_err_; }

  /// Incremental percentile, `p` in [0, 100]. Matches
  /// util::percentile(sample, p) — rank p/100 * (n-1), linear interpolation
  /// — within the bucket's relative error; 0.0 on an empty histogram (the
  /// pinned ServeReport empty-set convention). `p` outside [0, 100] is
  /// clamped; a NaN `p` throws.
  double percentile(double p) const;

  /// Folds `other` in (same rel_err required).
  void merge(const StreamingHistogram& other);

  /// Distinct non-empty buckets, the zero bucket included.
  std::size_t bucket_count() const noexcept {
    return buckets_ + (zero_ > 0 ? 1 : 0);
  }

 private:
  struct Page {
    std::int32_t first;                 ///< first bucket index
    std::vector<std::uint64_t> counts;  ///< kPageBuckets per-bucket counts
  };

  /// Approximate value of the i-th smallest sample (0-based): exact at the
  /// ends, the bucket representative in between.
  double value_at(std::size_t i) const;
  /// The page holding bucket `idx`, allocated if no bucket of it was
  /// touched yet.
  Page& page_of(std::int32_t idx);

  double rel_err_;
  double base_;      ///< (1 + rel_err)^2
  double log_base_;
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t zero_ = 0;   ///< samples <= 0
  std::size_t buckets_ = 0;  ///< buckets with a non-zero count
  std::vector<Page> pages_;  ///< ordered by first bucket
};

/// Named metrics: monotone counters, last-value gauges, histograms. The
/// trace writer serializes the whole registry into the trace footer so one
/// file carries both the span timeline and the aggregate view.
class MetricsRegistry {
 public:
  void add_counter(std::string_view name, std::uint64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  /// Returns (creating on first use) the named histogram, at the default
  /// resolution (rel_err 0.01).
  StreamingHistogram& histogram(std::string_view name);

  std::uint64_t counter(std::string_view name) const;

  const std::map<std::string, std::uint64_t, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, StreamingHistogram, std::less<>>& histograms()
      const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, StreamingHistogram, std::less<>> histograms_;
};

/// Embedding-memory tier a row lands in when it leaves the hot periphery
/// buffer. kArray is the flat (tiering-disabled) store.
enum class Tier : std::uint8_t { kArray = 0, kWarm = 1, kCold = 2 };

/// One (stage, shard) execution span, emitted by StagePipeline::collect()
/// as the event model walks a query's graph. All times are simulated
/// hardware time. start - ready decomposes into unit_wait (the stage unit
/// was still busy with earlier work) then et_wait (the shard's shared ET
/// banks were still claimed) — the contention anatomy of a tail latency.
struct StageSpan {
  std::size_t stage = 0;      ///< stage index within the servable's graph
  std::string_view name;      ///< graph-node name
  std::size_t shard = 0;
  std::size_t query = 0;      ///< request id
  std::size_t batch = 0;      ///< batch id
  device::Ns ready;           ///< graph predecessors complete
  device::Ns start;           ///< stage unit begins
  device::Ns end;             ///< stage unit done (merge excluded)
  device::Ns unit_wait;       ///< waited on the stage unit itself
  device::Ns et_wait;         ///< additionally waited on the shared ET banks
  device::Ns et_busy;         ///< shared ET-bank claim length (0 = ET-free)
};

/// One batch's lifecycle, emitted by the runtime when the batch is drained.
struct BatchSpan {
  std::size_t id = 0;
  std::size_t qos_class = 0;
  std::string_view class_name;
  std::size_t size = 0;
  CloseTrigger trigger = CloseTrigger::kSize;
  device::Ns first_enqueue;  ///< oldest member's arrival
  device::Ns close;          ///< batcher close (dispatch stamp)
  device::Ns release;        ///< admission-gate release (== close ungated)
  device::Ns complete;       ///< last member's merged top-k
};

/// The instrumentation interface. Every method has a no-op default, so a
/// sink implements only what it wants; every caller holds a nullable
/// pointer and skips the call entirely when unobserved. Sinks must treat
/// all arguments as read-only telemetry — nothing they do can flow back
/// into scheduling, batching or timing.
class ObserverSink {
 public:
  virtual ~ObserverSink() = default;

  virtual void on_stage(const StageSpan&) {}
  /// An emitting (StageSpec::emit_topk) stage's produced-item merge: the
  /// per-shard partials ship to the controller and the global item list is
  /// built over [start, end) before any successor can begin. Distinct from
  /// the output top-k merge, which is folded into its batch span.
  virtual void on_stage_merge(std::size_t stage, std::string_view name,
                              std::size_t query, std::size_t batch,
                              device::Ns start, device::Ns end) {
    (void)stage, (void)name, (void)query, (void)batch, (void)start,
        (void)end;
  }
  virtual void on_batch(const BatchSpan&) {}
  /// Embedding-update write traffic occupying shard `shard`'s ET banks.
  virtual void on_write(std::size_t shard, device::Ns start, device::Ns end) {
    (void)shard, (void)start, (void)end;
  }
  /// `rows` dirty rows flushed (deferred array writes) during a stage
  /// executing on `shard` around simulated time `at`; `rows_warm` /
  /// `rows_cold` split the total by destination tier (both 0 with tiering
  /// disabled).
  virtual void on_cache_flush(std::size_t shard, device::Ns at,
                              std::uint64_t rows, std::uint64_t rows_warm,
                              std::uint64_t rows_cold) {
    (void)shard, (void)at, (void)rows, (void)rows_warm, (void)rows_cold;
  }
  /// A row left the hot periphery buffer for `dest` (kArray when tiering
  /// is disabled).
  virtual void on_cache_evict(std::uint32_t table, std::uint32_t row,
                              bool dirty, Tier dest) {
    (void)table, (void)row, (void)dirty, (void)dest;
  }
  /// A batch-dispatch migration commit at simulated time `at`: `to_warm`
  /// cold blocks were admitted warm since the previous commit, `to_cold`
  /// warm blocks were demoted at this one.
  virtual void on_cache_migrate(device::Ns at, std::uint64_t to_warm,
                                std::uint64_t to_cold) {
    (void)at, (void)to_warm, (void)to_cold;
  }
  /// An embedding update hit the periphery buffer (absorbed) or wrote
  /// through to the array.
  virtual void on_cache_update(bool absorbed) { (void)absorbed; }
  /// Time-series sample (queue depths, backlog frontier lag, end-of-run
  /// busy totals) at simulated time `at`.
  virtual void on_counter(std::string_view name, device::Ns at, double value) {
    (void)name, (void)at, (void)value;
  }
  /// Host wall-clock self-profiling span (microseconds since the
  /// profiler's epoch) — the simulator profiling itself, not the model.
  virtual void on_host_span(std::string_view name, double start_us,
                            double dur_us) {
    (void)name, (void)start_us, (void)dur_us;
  }
};

/// Wall-clock self-profiling of the simulator's own hot path. Scopes are
/// RAII over std::chrono::steady_clock; while the profiler is disabled
/// (never enable()d) a Scope construction is two pointer reads and no
/// clock call. Spans report microseconds relative to the enable() epoch
/// so traces start near zero. Host spans are telemetry about the HOST, so
/// they are exempt from (and cannot perturb) the simulated-time
/// determinism contract.
class HostProfiler {
 public:
  /// Starts collecting per-span totals (total_us()), streaming each span
  /// to `sink` as well when one is attached — a null sink keeps the
  /// totals, which is all ServeReport::host_span_us needs. Resets the
  /// epoch and the accumulated totals.
  void enable(ObserverSink* sink);
  bool enabled() const noexcept { return collecting_; }

  /// Cumulative wall time per scope name since enable().
  const std::map<std::string, double, std::less<>>& total_us() const noexcept {
    return totals_;
  }

  class Scope {
   public:
    Scope(HostProfiler& prof, std::string_view name)
        : prof_(prof.enabled() ? &prof : nullptr), name_(name) {
      if (prof_ != nullptr) start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (prof_ != nullptr) prof_->finish(name_, start_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostProfiler* prof_;
    std::string_view name_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  friend class Scope;
  void finish(std::string_view name,
              std::chrono::steady_clock::time_point start);

  ObserverSink* sink_ = nullptr;
  bool collecting_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::map<std::string, double, std::less<>> totals_;
};

}  // namespace imars::serve
