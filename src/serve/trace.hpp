// Structured span tracing over simulated time, exported as Chrome
// trace-event JSON (chrome://tracing, Perfetto UI, speedscope).
//
// TraceLog is an ObserverSink that turns the runtime's observer events into
// a span timeline:
//
//   pid 1          "serve-runtime"  — per-batch async spans (queue wait,
//                                     admission-gate wait, execution; one
//                                     thread track per QoS class) and the
//                                     queue-depth / frontier counter series;
//   pid 10 + s     "shard s"        — tid 0 is the shard's shared ET-bank
//                                     track (ET claims and write-back
//                                     traffic), tid 1 + stage is one
//                                     stage unit's execution track;
//   pid 99         "host-profile"   — wall-clock self-profiling spans of
//                                     the simulator itself (HostProfiler).
//
// Simulated-time spans use the simulated nanosecond clock expressed in
// microseconds (the trace format's unit); host spans use wall microseconds
// since the profiler epoch. They never share a track, so mixing the two
// time domains in one file is safe and deliberate — one artifact answers
// both "where did the modeled time go" and "where did the simulator's
// time go".
//
// Stage-unit and ET-bank spans carry cat "unit": the event model promises
// a unit serves one span at a time, so check_trace() verifies per-track
// non-overlap — a failed check means the simulator's clock walk is broken,
// which is why CI validates every uploaded trace. Batch lifecycles are
// async spans (consecutive batches of one class overlap arbitrarily), and
// each close carries its CloseTrigger so trigger-reason counts can be
// audited against the total batch count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/observe.hpp"

namespace imars::serve {

/// One trace event (the JSON object, pre-serialization).
struct TraceEvent {
  enum class Phase : std::uint8_t {
    kComplete,    ///< 'X': ts + dur
    kAsyncBegin,  ///< 'b': paired by (pid, cat, id)
    kAsyncEnd,    ///< 'e'
    kCounter,     ///< 'C'
    kInstant,     ///< 'i'
    kMeta,        ///< 'M': process/thread names
  };

  Phase phase = Phase::kComplete;
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< complete events only
  int pid = 0;
  int tid = 0;
  std::uint64_t id = 0;  ///< async pairing key
  std::vector<std::pair<std::string, std::string>> str_args;
  std::vector<std::pair<std::string, double>> num_args;
};

char phase_char(TraceEvent::Phase p);

/// ObserverSink that records every event into an in-memory timeline and a
/// MetricsRegistry, then writes Chrome trace-event JSON. Attach with
/// ServingRuntime::set_observer (or to a pipeline directly), run, write().
class TraceLog final : public ObserverSink {
 public:
  void on_stage(const StageSpan& s) override;
  void on_stage_merge(std::size_t stage, std::string_view name,
                      std::size_t query, std::size_t batch, device::Ns start,
                      device::Ns end) override;
  void on_batch(const BatchSpan& b) override;
  void on_write(std::size_t shard, device::Ns start, device::Ns end) override;
  void on_cache_flush(std::size_t shard, device::Ns at, std::uint64_t rows,
                      std::uint64_t rows_warm,
                      std::uint64_t rows_cold) override;
  void on_cache_evict(std::uint32_t table, std::uint32_t row, bool dirty,
                      Tier dest) override;
  void on_cache_migrate(device::Ns at, std::uint64_t to_warm,
                        std::uint64_t to_cold) override;
  void on_cache_update(bool absorbed) override;
  void on_counter(std::string_view name, device::Ns at, double value) override;
  void on_host_span(std::string_view name, double start_us,
                    double dur_us) override;

  /// Appends the track-name metadata and the "serve.summary" instant
  /// (total batches + every registry counter/gauge). Idempotent; write()
  /// calls it.
  void finalize();

  /// Writes the whole timeline as Chrome trace-event JSON. Throws
  /// imars::Error when the file cannot be written.
  void write(const std::string& path);

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const MetricsRegistry& registry() const noexcept { return registry_; }
  MetricsRegistry& registry() noexcept { return registry_; }
  std::size_t batches() const noexcept { return batches_; }

 private:
  void name_process(int pid, std::string_view name);
  void name_thread(int pid, int tid, std::string_view name);

  std::vector<TraceEvent> events_;
  MetricsRegistry registry_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;
  std::size_t batches_ = 0;
  bool finalized_ = false;
};

/// Well-formedness verdict of a trace (see check_trace).
struct TraceCheck {
  bool ok = true;
  std::vector<std::string> problems;
  std::size_t events = 0;
  std::size_t unit_spans = 0;   ///< cat "unit" complete spans
  std::size_t batch_spans = 0;  ///< "batch.queue" async begins
  /// "stage.merge" async begins (produced-item merges of emitting stages).
  std::size_t merge_spans = 0;
  /// Batch count per close-trigger reason (from the span args).
  std::map<std::string, std::size_t> trigger_counts;
};

/// Validates a span timeline: complete spans have finite, non-negative
/// extents and nest properly per (pid, tid) track; cat "unit" spans (stage
/// units, ET banks) additionally never overlap on one track — the event
/// model's one-span-at-a-time promise; async begins/ends pair up by
/// (pid, cat, id); a batch's lifecycle phases chain in order per batch id
/// (queue close <= gate open, gate release <= exec begin); every batch
/// span carries a known close trigger and the per-trigger counts sum to
/// the total batch count (cross-checked against the "serve.summary"
/// batches figure when present, as is the produced-item merge-span count
/// against the summary's "spans.stage_merge").
TraceCheck check_trace(std::span<const TraceEvent> events);

/// Aggregate view for the CLI: total/self time per (cat, name).
struct SpanTotal {
  std::string cat;
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

/// Complete-span totals grouped by (cat, name), longest total first.
/// `top_n` = 0 returns everything.
std::vector<SpanTotal> summarize_trace(std::span<const TraceEvent> events,
                                       std::size_t top_n = 0);

}  // namespace imars::serve
