#include "serve/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <tuple>

#include "util/error.hpp"

namespace imars::serve {

namespace {

constexpr int kRuntimePid = 1;
constexpr int kHostPid = 99;
int shard_pid(std::size_t shard) { return 10 + static_cast<int>(shard); }

/// Stage-unit thread id inside a shard's process track: tid 0 is the ET
/// bank, stage units follow.
int stage_tid(std::size_t stage) { return 1 + static_cast<int>(stage); }

}  // namespace

char phase_char(TraceEvent::Phase p) {
  switch (p) {
    case TraceEvent::Phase::kComplete: return 'X';
    case TraceEvent::Phase::kAsyncBegin: return 'b';
    case TraceEvent::Phase::kAsyncEnd: return 'e';
    case TraceEvent::Phase::kCounter: return 'C';
    case TraceEvent::Phase::kInstant: return 'i';
    case TraceEvent::Phase::kMeta: return 'M';
  }
  return '?';
}

void TraceLog::name_process(int pid, std::string_view name) {
  process_names_.emplace(pid, std::string(name));
}

void TraceLog::name_thread(int pid, int tid, std::string_view name) {
  thread_names_.emplace(std::make_pair(pid, tid), std::string(name));
}

void TraceLog::on_stage(const StageSpan& s) {
  const std::string stage_name(s.name);
  name_process(shard_pid(s.shard), "shard " + std::to_string(s.shard));
  name_thread(shard_pid(s.shard), stage_tid(s.stage), stage_name);

  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = stage_name;
  ev.cat = "unit";
  ev.ts_us = s.start.us();
  ev.dur_us = (s.end - s.start).us();
  ev.pid = shard_pid(s.shard);
  ev.tid = stage_tid(s.stage);
  ev.num_args = {{"query", static_cast<double>(s.query)},
                 {"batch", static_cast<double>(s.batch)},
                 {"unit_wait_us", s.unit_wait.us()},
                 {"et_wait_us", s.et_wait.us()}};
  events_.push_back(std::move(ev));

  // The stage's claim on the shard's shared ET banks, on the ET track —
  // the contention the graph's ET-free towers are exempt from.
  if (s.et_busy.value > 0.0) {
    name_thread(shard_pid(s.shard), 0, "et-banks");
    TraceEvent et;
    et.phase = TraceEvent::Phase::kComplete;
    et.name = stage_name + ".et";
    et.cat = "unit";
    et.ts_us = s.start.us();
    et.dur_us = s.et_busy.us();
    et.pid = shard_pid(s.shard);
    et.tid = 0;
    et.num_args = {{"query", static_cast<double>(s.query)}};
    events_.push_back(std::move(et));
  }

  registry_.add_counter("spans.stage");
  registry_.histogram("stage.unit_wait_ns").record(s.unit_wait.value);
  registry_.histogram("stage.et_wait_ns").record(s.et_wait.value);
  registry_.histogram("stage.busy_ns").record((s.end - s.start).value);
}

void TraceLog::on_stage_merge(std::size_t stage, std::string_view name,
                              std::size_t query, std::size_t batch,
                              device::Ns start, device::Ns end) {
  const std::string merge_name = std::string(name) + ".merge";
  name_process(kRuntimePid, "serve-runtime");
  const int tid = 60;  // one merge track, clear of the per-class tracks
  name_thread(kRuntimePid, tid, "merge");
  // Produced-item merges belong to individual QUERIES, and different
  // queries' merge windows of one batch interleave arbitrarily in
  // simulated time — async spans (paired by query id), like the batch
  // lifecycle, not complete spans on one track (which must nest).
  TraceEvent begin;
  begin.phase = TraceEvent::Phase::kAsyncBegin;
  begin.name = merge_name;
  begin.cat = "stage.merge";
  begin.ts_us = start.us();
  begin.pid = kRuntimePid;
  begin.tid = tid;
  begin.id = query;
  begin.num_args = {{"batch", static_cast<double>(batch)},
                    {"stage", static_cast<double>(stage)}};
  TraceEvent fin = begin;
  fin.phase = TraceEvent::Phase::kAsyncEnd;
  fin.ts_us = end.us();
  fin.num_args.clear();
  events_.push_back(std::move(begin));
  events_.push_back(std::move(fin));
  registry_.add_counter("spans.stage_merge");
  registry_.histogram("stage.merge_ns").record((end - start).value);
}

void TraceLog::on_batch(const BatchSpan& b) {
  ++batches_;
  const std::string cls =
      b.class_name.empty() ? "class " + std::to_string(b.qos_class)
                           : std::string(b.class_name);
  name_process(kRuntimePid, "serve-runtime");
  name_thread(kRuntimePid, static_cast<int>(b.qos_class), cls);

  // Batch lifecycles are async spans: consecutive batches of one class
  // overlap arbitrarily (batch N+1's oldest request can predate batch N's
  // close), which complete events on one track cannot represent.
  const auto pair = [&](const char* cat, device::Ns from, device::Ns to,
                        bool with_args) {
    TraceEvent begin;
    begin.phase = TraceEvent::Phase::kAsyncBegin;
    begin.name = cls;
    begin.cat = cat;
    begin.ts_us = from.us();
    begin.pid = kRuntimePid;
    begin.tid = static_cast<int>(b.qos_class);
    begin.id = b.id;
    if (with_args) {
      begin.str_args = {{"trigger", std::string(to_string(b.trigger))}};
      begin.num_args = {{"size", static_cast<double>(b.size)}};
    }
    TraceEvent end = begin;
    end.phase = TraceEvent::Phase::kAsyncEnd;
    end.ts_us = to.us();
    end.str_args.clear();
    end.num_args.clear();
    events_.push_back(std::move(begin));
    events_.push_back(std::move(end));
  };
  pair("batch.queue", b.first_enqueue, b.close, /*with_args=*/true);
  pair("batch.gate", b.close, b.release, /*with_args=*/false);
  pair("batch.exec", b.release, b.complete, /*with_args=*/false);

  registry_.add_counter("batches.total");
  registry_.add_counter("batches.trigger." +
                        std::string(to_string(b.trigger)));
  registry_.histogram("batch.queue_wait_ns")
      .record((b.close - b.first_enqueue).value);
  registry_.histogram("batch.gate_wait_ns").record((b.release - b.close).value);
  registry_.histogram("batch.exec_ns").record((b.complete - b.release).value);
}

void TraceLog::on_write(std::size_t shard, device::Ns start, device::Ns end) {
  name_process(shard_pid(shard), "shard " + std::to_string(shard));
  name_thread(shard_pid(shard), 0, "et-banks");
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = "write-back";
  ev.cat = "unit";
  ev.ts_us = start.us();
  ev.dur_us = (end - start).us();
  ev.pid = shard_pid(shard);
  ev.tid = 0;
  events_.push_back(std::move(ev));
  registry_.add_counter("spans.write");
  registry_.histogram("write.busy_ns").record((end - start).value);
}

namespace {

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kWarm: return "warm";
    case Tier::kCold: return "cold";
    case Tier::kArray: break;
  }
  return "array";
}

}  // namespace

void TraceLog::on_cache_flush(std::size_t shard, device::Ns at,
                              std::uint64_t rows, std::uint64_t rows_warm,
                              std::uint64_t rows_cold) {
  name_process(shard_pid(shard), "shard " + std::to_string(shard));
  name_thread(shard_pid(shard), 0, "et-banks");
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.name = "flush";
  ev.cat = "cache";
  ev.ts_us = at.us();
  ev.pid = shard_pid(shard);
  ev.tid = 0;
  ev.num_args = {{"rows", static_cast<double>(rows)}};
  if (rows_warm + rows_cold > 0) {
    // Destination-tier split (tiered runs only, so flat-store traces are
    // byte-identical to the pre-tier format).
    ev.num_args.emplace_back("rows_warm", static_cast<double>(rows_warm));
    ev.num_args.emplace_back("rows_cold", static_cast<double>(rows_cold));
  }
  events_.push_back(std::move(ev));
  registry_.add_counter("cache.flush_events");
  registry_.add_counter("cache.flush_rows", rows);
  if (rows_warm > 0) registry_.add_counter("cache.flush_rows.warm", rows_warm);
  if (rows_cold > 0) registry_.add_counter("cache.flush_rows.cold", rows_cold);
}

void TraceLog::on_cache_evict(std::uint32_t table, std::uint32_t row,
                              bool dirty, Tier dest) {
  (void)table, (void)row;
  registry_.add_counter("cache.evictions");
  if (dirty) registry_.add_counter("cache.evictions.dirty");
  if (dest != Tier::kArray)
    registry_.add_counter(std::string("cache.evictions.to_") +
                          tier_name(dest));
}

void TraceLog::on_cache_migrate(device::Ns at, std::uint64_t to_warm,
                                std::uint64_t to_cold) {
  name_process(kRuntimePid, "serve-runtime");
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.name = "migrate";
  ev.cat = "cache";
  ev.ts_us = at.us();
  ev.pid = kRuntimePid;
  ev.tid = 0;
  ev.num_args = {{"to_warm", static_cast<double>(to_warm)},
                 {"to_cold", static_cast<double>(to_cold)}};
  events_.push_back(std::move(ev));
  registry_.add_counter("cache.migrate_commits");
  registry_.add_counter("cache.migrate.to_warm", to_warm);
  registry_.add_counter("cache.migrate.to_cold", to_cold);
}

void TraceLog::on_cache_update(bool absorbed) {
  registry_.add_counter(absorbed ? "cache.update.absorbed"
                                 : "cache.update.writethrough");
}

void TraceLog::on_counter(std::string_view name, device::Ns at, double value) {
  name_process(kRuntimePid, "serve-runtime");
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kCounter;
  ev.name = std::string(name);
  ev.ts_us = at.us();
  ev.pid = kRuntimePid;
  ev.tid = 0;
  ev.num_args = {{"value", value}};
  events_.push_back(std::move(ev));
  registry_.set_gauge(name, value);
}

void TraceLog::on_host_span(std::string_view name, double start_us,
                            double dur_us) {
  name_process(kHostPid, "host-profile");
  name_thread(kHostPid, 0, "event-loop");
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = std::string(name);
  ev.cat = "host";
  ev.ts_us = start_us;
  ev.dur_us = dur_us;
  ev.pid = kHostPid;
  ev.tid = 0;
  events_.push_back(std::move(ev));
}

void TraceLog::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // Place the summary at the end of *simulated* time only: host-profile
  // spans carry wall-clock timestamps, and letting them push the summary
  // around would make the one simulated-time artifact nondeterministic.
  double last_ts = 0.0;
  for (const auto& e : events_)
    if (e.pid != kHostPid) last_ts = std::max(last_ts, e.ts_us + e.dur_us);

  for (const auto& [pid, pname] : process_names_) {
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kMeta;
    ev.name = "process_name";
    ev.pid = pid;
    ev.str_args = {{"name", pname}};
    events_.push_back(std::move(ev));
  }
  for (const auto& [key, tname] : thread_names_) {
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kMeta;
    ev.name = "thread_name";
    ev.pid = key.first;
    ev.tid = key.second;
    ev.str_args = {{"name", tname}};
    events_.push_back(std::move(ev));
  }

  // The summary instant carries the whole registry, so the aggregate view
  // ships inside the same artifact as the timeline (and check_trace can
  // audit the span counts against it).
  TraceEvent summary;
  summary.phase = TraceEvent::Phase::kInstant;
  summary.name = "serve.summary";
  summary.cat = "summary";
  summary.ts_us = last_ts;
  summary.pid = kRuntimePid;
  summary.tid = 0;
  summary.num_args.emplace_back("batches", static_cast<double>(batches_));
  for (const auto& [name, v] : registry_.counters())
    summary.num_args.emplace_back(name, static_cast<double>(v));
  for (const auto& [name, v] : registry_.gauges())
    summary.num_args.emplace_back(name, v);
  for (const auto& [name, h] : registry_.histograms()) {
    summary.num_args.emplace_back(name + ".count",
                                  static_cast<double>(h.count()));
    summary.num_args.emplace_back(name + ".p50", h.percentile(50.0));
    summary.num_args.emplace_back(name + ".p95", h.percentile(95.0));
    summary.num_args.emplace_back(name + ".p99", h.percentile(99.0));
  }
  events_.push_back(std::move(summary));
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  out += buf;
}

}  // namespace

void TraceLog::write(const std::string& path) {
  finalize();
  std::string out;
  out.reserve(events_.size() * 128 + 64);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":";
    append_json_string(out, e.name);
    out += ",\"ph\":\"";
    out.push_back(phase_char(e.phase));
    out += "\"";
    if (!e.cat.empty()) {
      out += ",\"cat\":";
      append_json_string(out, e.cat);
    }
    if (e.phase != TraceEvent::Phase::kMeta) {
      out += ",\"ts\":";
      append_json_number(out, e.ts_us);
    }
    if (e.phase == TraceEvent::Phase::kComplete) {
      out += ",\"dur\":";
      append_json_number(out, e.dur_us);
    }
    out += ",\"pid\":" + std::to_string(e.pid);
    out += ",\"tid\":" + std::to_string(e.tid);
    if (e.phase == TraceEvent::Phase::kAsyncBegin ||
        e.phase == TraceEvent::Phase::kAsyncEnd)
      out += ",\"id\":" + std::to_string(e.id);
    if (e.phase == TraceEvent::Phase::kInstant) out += ",\"s\":\"t\"";
    if (!e.str_args.empty() || !e.num_args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : e.str_args) {
        if (!first_arg) out += ",";
        first_arg = false;
        append_json_string(out, k);
        out += ":";
        append_json_string(out, v);
      }
      for (const auto& [k, v] : e.num_args) {
        if (!first_arg) out += ",";
        first_arg = false;
        append_json_string(out, k);
        out += ":";
        append_json_number(out, v);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";

  std::ofstream f(path, std::ios::binary);
  IMARS_REQUIRE(f.good(), "TraceLog::write: cannot open '" + path + "'");
  f << out;
  IMARS_REQUIRE(f.good(), "TraceLog::write: write failed for '" + path + "'");
}

// --- validation -------------------------------------------------------------

TraceCheck check_trace(std::span<const TraceEvent> events) {
  TraceCheck out;
  out.events = events.size();
  const auto fail = [&](std::string msg) {
    out.ok = false;
    if (out.problems.size() < 32) out.problems.push_back(std::move(msg));
  };
  constexpr double eps = 1e-6;  // us; span endpoints share exact doubles

  std::map<std::pair<int, int>, std::vector<const TraceEvent*>> tracks;
  // (pid, cat, id) -> stack of open async begin timestamps.
  std::map<std::tuple<int, std::string, std::uint64_t>, std::vector<double>>
      open_async;
  std::optional<double> summary_batches;
  std::optional<double> summary_merges;
  // Per (pid, batch id): the lifecycle phase boundaries, for the chaining
  // audit below (queue close <= gate open, gate release <= exec begin).
  struct BatchPhases {
    std::optional<double> queue_end, gate_begin, gate_end, exec_begin;
  };
  std::map<std::pair<int, std::uint64_t>, BatchPhases> batch_phases;

  for (const auto& e : events) {
    switch (e.phase) {
      case TraceEvent::Phase::kComplete:
        if (!std::isfinite(e.ts_us) || !std::isfinite(e.dur_us) ||
            e.dur_us < 0.0) {
          fail("span '" + e.name + "' has a non-finite or negative extent");
          break;
        }
        tracks[{e.pid, e.tid}].push_back(&e);
        break;
      case TraceEvent::Phase::kAsyncBegin: {
        open_async[{e.pid, e.cat, e.id}].push_back(e.ts_us);
        if (e.cat == "batch.queue") {
          ++out.batch_spans;
          std::string trigger;
          for (const auto& [k, v] : e.str_args)
            if (k == "trigger") trigger = v;
          if (trigger == "size" || trigger == "deadline" ||
              trigger == "preemptive" || trigger == "flush")
            ++out.trigger_counts[trigger];
          else
            fail("batch span id " + std::to_string(e.id) +
                 " has unknown close trigger '" + trigger + "'");
        } else if (e.cat == "batch.gate") {
          batch_phases[{e.pid, e.id}].gate_begin = e.ts_us;
        } else if (e.cat == "batch.exec") {
          batch_phases[{e.pid, e.id}].exec_begin = e.ts_us;
        } else if (e.cat == "stage.merge") {
          ++out.merge_spans;
        }
        break;
      }
      case TraceEvent::Phase::kAsyncEnd: {
        const auto it = open_async.find({e.pid, e.cat, e.id});
        if (it == open_async.end() || it->second.empty()) {
          fail("async end '" + e.cat + "' id " + std::to_string(e.id) +
               " without a matching begin");
          break;
        }
        if (e.ts_us + eps < it->second.back())
          fail("async span '" + e.cat + "' id " + std::to_string(e.id) +
               " ends before it begins");
        it->second.pop_back();
        if (e.cat == "batch.queue")
          batch_phases[{e.pid, e.id}].queue_end = e.ts_us;
        else if (e.cat == "batch.gate")
          batch_phases[{e.pid, e.id}].gate_end = e.ts_us;
        break;
      }
      case TraceEvent::Phase::kInstant:
        if (e.name == "serve.summary")
          for (const auto& [k, v] : e.num_args) {
            if (k == "batches") summary_batches = v;
            if (k == "spans.stage_merge") summary_merges = v;
          }
        break;
      default:
        break;
    }
  }

  // A batch's lifecycle phases must chain: the queue span closes when the
  // gate span opens (the batcher's close IS the gate's arrival) and the
  // gate releases no later than execution begins. Out-of-order phases mean
  // the runtime stamped a batch's timeline inconsistently — exactly the
  // kind of bookkeeping slip produced item sets could introduce (a
  // successor reading its feeder's items before the feeder's merge).
  for (const auto& [key, p] : batch_phases) {
    if (p.queue_end && p.gate_begin && *p.gate_begin + eps < *p.queue_end)
      fail("batch id " + std::to_string(key.second) +
           " opens its admission gate before its queue span closes");
    if (p.gate_end && p.exec_begin && *p.exec_begin + eps < *p.gate_end)
      fail("batch id " + std::to_string(key.second) +
           " begins execution before its admission gate releases");
  }

  for (const auto& [key, stack] : open_async)
    if (!stack.empty())
      fail("async span '" + std::get<1>(key) + "' id " +
           std::to_string(std::get<2>(key)) + " never ends");

  for (auto& [track, spans] : tracks) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                       return a->dur_us > b->dur_us;  // parent before child
                     });
    double unit_free = -std::numeric_limits<double>::infinity();
    std::vector<double> stack_ends;
    for (const TraceEvent* s : spans) {
      if (s->cat == "unit") {
        ++out.unit_spans;
        // One span at a time per stage unit / ET bank: the event model's
        // serialization promise.
        if (s->ts_us + eps < unit_free)
          fail("overlapping unit spans on pid " +
               std::to_string(track.first) + " tid " +
               std::to_string(track.second) + " near ts " +
               std::to_string(s->ts_us) + "us ('" + s->name + "')");
        unit_free = std::max(unit_free, s->ts_us + s->dur_us);
      }
      while (!stack_ends.empty() && stack_ends.back() <= s->ts_us + eps)
        stack_ends.pop_back();
      if (!stack_ends.empty() &&
          s->ts_us + s->dur_us > stack_ends.back() + eps)
        fail("span '" + s->name + "' on pid " + std::to_string(track.first) +
             " tid " + std::to_string(track.second) +
             " overlaps its enclosing span without nesting");
      stack_ends.push_back(s->ts_us + s->dur_us);
    }
  }

  std::size_t trigger_sum = 0;
  for (const auto& [trigger, n] : out.trigger_counts) trigger_sum += n;
  if (trigger_sum != out.batch_spans)
    fail("close-trigger counts (" + std::to_string(trigger_sum) +
         ") do not sum to the batch-span total (" +
         std::to_string(out.batch_spans) + ")");
  if (summary_batches &&
      static_cast<std::size_t>(*summary_batches) != out.batch_spans)
    fail("serve.summary reports " +
         std::to_string(static_cast<std::size_t>(*summary_batches)) +
         " batches but the trace holds " + std::to_string(out.batch_spans) +
         " batch spans");
  if (summary_merges &&
      static_cast<std::size_t>(*summary_merges) != out.merge_spans)
    fail("serve.summary reports " +
         std::to_string(static_cast<std::size_t>(*summary_merges)) +
         " produced-item merges but the trace holds " +
         std::to_string(out.merge_spans) + " merge spans");
  return out;
}

std::vector<SpanTotal> summarize_trace(std::span<const TraceEvent> events,
                                       std::size_t top_n) {
  std::map<std::pair<std::string, std::string>, SpanTotal> agg;
  for (const auto& e : events) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    auto& t = agg[{e.cat, e.name}];
    t.cat = e.cat;
    t.name = e.name;
    ++t.count;
    t.total_us += e.dur_us;
    t.max_us = std::max(t.max_us, e.dur_us);
  }
  std::vector<SpanTotal> out;
  out.reserve(agg.size());
  for (auto& [key, t] : agg) out.push_back(std::move(t));
  std::sort(out.begin(), out.end(), [](const SpanTotal& a, const SpanTotal& b) {
    if (a.total_us != b.total_us) return a.total_us > b.total_us;
    return a.name < b.name;
  });
  if (top_n > 0 && out.size() > top_n) out.resize(top_n);
  return out;
}

}  // namespace imars::serve
