// Tests for multi-tenant QoS serving: the class-aware QosBatcher edge
// cases (deadline exactly at the close tick, empty class queues, all
// classes starved, single-class bit-equivalence with the single-tenant
// DynamicBatcher reference below, weight-0 scavenger gating, preemptive
// close), weighted admission ordering, and the runtime-level determinism
// grid (overlap on/off x open/closed loop x 1/3 classes).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend_factory.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/batcher.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"
#include "serve_test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::ArrivalProcess;
using serve::Batch;
using serve::CloseTrigger;
using serve::DynamicBatcherConfig;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::QosBatcher;
using serve::QosBatcherConfig;
using serve::QosClassConfig;
using serve::Request;
using serve::ServingConfig;
using serve::ServingRuntime;

// The single-tenant policy a single-class QosBatcher must reproduce bit
// for bit: one FIFO, closed when max_batch requests are pending (size
// trigger) or the oldest has waited max_wait (deadline trigger).
class DynamicBatcher {
 public:
  explicit DynamicBatcher(const DynamicBatcherConfig& cfg) : cfg_(cfg) {}

  /// Adds a request (arrival order must be non-decreasing in enqueue time).
  void add(const Request& r) {
    IMARS_REQUIRE(pending_.empty() || pending_.back().enqueue <= r.enqueue,
                  "DynamicBatcher::add: arrivals must be time-ordered");
    pending_.push_back(r);
  }

  /// Simulated time at which the deadline trigger fires for the current
  /// oldest request; nullopt when nothing is pending.
  std::optional<Ns> deadline() const {
    if (pending_.empty()) return std::nullopt;
    return pending_.front().enqueue + cfg_.max_wait;
  }

  /// Closes and returns a batch if either trigger has fired by `now`.
  std::optional<Batch> poll(Ns now) {
    if (pending_.empty()) return std::nullopt;
    if (pending_.size() >= cfg_.max_batch)
      return close_batch(now, cfg_.max_batch, CloseTrigger::kSize);
    if (now >= *deadline())
      return close_batch(now, pending_.size(), CloseTrigger::kDeadline);
    return std::nullopt;
  }

  /// Unconditionally closes the remaining requests (end-of-stream drain).
  std::optional<Batch> flush(Ns now) {
    if (pending_.empty()) return std::nullopt;
    return close_batch(now, std::min(pending_.size(), cfg_.max_batch),
                       CloseTrigger::kFlush);
  }

 private:
  Batch close_batch(Ns now, std::size_t count, CloseTrigger trigger) {
    Batch b;
    b.id = next_batch_id_++;
    // Class-blind: the batch may mix labels, so it carries class 0 — the
    // same value a single-class QosBatcher emits for the identical stream.
    b.qos_class = 0;
    b.dispatch = now;
    b.trigger = trigger;
    b.requests.assign(pending_.begin(),
                      pending_.begin() + static_cast<std::ptrdiff_t>(count));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(count));
    return b;
  }

  DynamicBatcherConfig cfg_;
  std::deque<Request> pending_;
  std::size_t next_batch_id_ = 0;
};

Request make_request(std::size_t id, double t, std::size_t cls = 0) {
  Request r;
  r.id = id;
  r.user = id;
  r.client = id;
  r.qos_class = cls;
  r.enqueue = Ns{t};
  return r;
}

QosClassConfig make_class(const std::string& name, std::size_t max_batch,
                          double max_wait, double weight) {
  QosClassConfig c;
  c.name = name;
  c.max_batch = max_batch;
  c.max_wait = Ns{max_wait};
  c.weight = weight;
  return c;
}

// --- QosBatcher edge cases --------------------------------------------------

TEST(QosBatcher, DeadlineExactlyAtBatchCloseTick) {
  QosBatcherConfig cfg;
  cfg.classes = {make_class("a", 8, 100.0, 1.0)};
  QosBatcher b(cfg);
  b.add(make_request(0, 50.0));
  // One tick before the deadline: nothing fires; exactly at it: the batch
  // closes (>= semantics, same as DynamicBatcher).
  EXPECT_FALSE(b.poll(Ns{149.999}).has_value());
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 150.0);
  auto batch = b.poll(Ns{150.0});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 1u);
  EXPECT_DOUBLE_EQ(batch->dispatch.value, 150.0);
}

TEST(QosBatcher, PreemptiveCloseFiresAtDeadlineMinusServiceEstimate) {
  QosBatcherConfig cfg;
  auto cls = make_class("interactive", 8, 1e9, 1.0);
  cls.deadline = Ns{100.0};
  cls.service_estimate = Ns{30.0};
  cfg.classes = {cls};
  QosBatcher b(cfg);
  b.add(make_request(0, 1000.0));
  // max_wait is effectively off; the preemptive trigger closes at
  // enqueue + (deadline - service_estimate) = 1070, exactly at the tick.
  EXPECT_FALSE(b.poll(Ns{1069.0}).has_value());
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 1070.0);
  EXPECT_TRUE(b.poll(Ns{1070.0}).has_value());

  // An estimate >= the deadline leaves zero slack: the batch closes at the
  // next poll after arrival.
  auto hopeless = cls;
  hopeless.service_estimate = Ns{500.0};
  QosBatcherConfig cfg2;
  cfg2.classes = {hopeless};
  QosBatcher b2(cfg2);
  b2.add(make_request(0, 42.0));
  EXPECT_DOUBLE_EQ(b2.deadline()->value, 42.0);
  EXPECT_TRUE(b2.poll(Ns{42.0}).has_value());
}

TEST(QosBatcher, ExactSlackEqualToMaxWaitClassifiesAsDeadline) {
  // Boundary pin for poll_trigger: when deadline - service_estimate equals
  // max_wait EXACTLY, the SLO clamp did not move the close — it fires at
  // enqueue + max_wait, the same instant the plain deadline trigger would
  // have — so the trigger must read kDeadline. kPreemptive is reserved for
  // closes the clamp actually pulled earlier (strict slack < max_wait).
  auto exact = make_class("exact", 8, 100.0, 1.0);
  exact.deadline = Ns{130.0};
  exact.service_estimate = Ns{30.0};  // slack = 100 == max_wait
  QosBatcherConfig cfg;
  cfg.classes = {exact};
  QosBatcher b(cfg);
  b.add(make_request(0, 10.0));
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 110.0);
  auto batch = b.poll(Ns{110.0});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->trigger, serve::CloseTrigger::kDeadline);

  // One tick more of estimate and the clamp genuinely moves the close
  // earlier: the same stream now classifies as preemptive.
  auto clamped = exact;
  clamped.service_estimate = Ns{30.5};  // slack = 99.5 < max_wait
  QosBatcherConfig cfg2;
  cfg2.classes = {clamped};
  QosBatcher b2(cfg2);
  b2.add(make_request(0, 10.0));
  ASSERT_TRUE(b2.deadline().has_value());
  EXPECT_DOUBLE_EQ(b2.deadline()->value, 109.5);
  auto early = b2.poll(Ns{109.5});
  ASSERT_TRUE(early.has_value());
  EXPECT_EQ(early->trigger, serve::CloseTrigger::kPreemptive);
}

TEST(QosBatcher, EmptyClassQueuesAreIgnored) {
  QosBatcherConfig cfg;
  cfg.classes = {make_class("a", 4, 100.0, 1.0),
                 make_class("b", 4, 50.0, 1.0),
                 make_class("c", 4, 200.0, 1.0)};
  QosBatcher b(cfg);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.deadline().has_value());
  EXPECT_FALSE(b.poll(Ns{1e9}).has_value());
  EXPECT_FALSE(b.flush(Ns{1e9}).has_value());

  // Only class 1 has traffic: its trigger is the only one visible.
  b.add(make_request(0, 10.0, 1));
  EXPECT_EQ(b.pending(), 1u);
  EXPECT_EQ(b.pending(0), 0u);
  EXPECT_EQ(b.pending(1), 1u);
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 60.0);
  auto batch = b.poll(Ns{60.0});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->qos_class, 1u);
  EXPECT_TRUE(b.empty());
}

TEST(QosBatcher, AllClassesStarvedUntilTriggersFire) {
  QosBatcherConfig cfg;
  cfg.classes = {make_class("a", 4, 100.0, 1.0),
                 make_class("b", 4, 70.0, 1.0)};
  QosBatcher b(cfg);
  b.add(make_request(0, 0.0, 0));
  b.add(make_request(1, 10.0, 1));
  // Both below their size triggers and before their deadlines: starved.
  EXPECT_FALSE(b.poll(Ns{79.0}).has_value());
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 80.0);  // class b: 10 + 70
  // Triggers then fire in time order.
  auto first = b.poll(Ns{80.0});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->qos_class, 1u);
  EXPECT_FALSE(b.poll(Ns{80.0}).has_value());
  auto second = b.poll(Ns{100.0});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->qos_class, 0u);
}

TEST(QosBatcher, SingleClassMatchesDynamicBatcherBitIdentically) {
  DynamicBatcherConfig dcfg;
  dcfg.max_batch = 3;
  dcfg.max_wait = Ns{120.0};
  DynamicBatcher ref(dcfg);
  QosBatcher qos(QosBatcherConfig::single(dcfg));

  // A seeded random stream driven through both policies with identical
  // poll times must produce bit-identical batch streams; labels on the
  // requests exercise the class-blind single-class path.
  util::Xoshiro256 rng(2024);
  double t = 0.0;
  std::vector<Batch> got_ref, got_qos;
  auto drain = [&](auto& batcher, std::vector<Batch>& out, Ns now) {
    while (auto batch = batcher.poll(now)) out.push_back(*batch);
  };
  for (std::size_t id = 0; id < 200; ++id) {
    t += rng.uniform(0.0, 90.0);
    const auto r = make_request(id, t, id % 5);
    const Ns now{t};
    // Fire any due deadline triggers first, as the runtime's loop does.
    while (true) {
      const auto da = ref.deadline();
      if (!da.has_value() || *da >= now) break;
      drain(ref, got_ref, *da);
      drain(qos, got_qos, *da);
    }
    ref.add(r);
    qos.add(r);
    drain(ref, got_ref, now);
    drain(qos, got_qos, now);
  }
  while (auto batch = ref.flush(Ns{t})) got_ref.push_back(*batch);
  while (auto batch = qos.flush(Ns{t})) got_qos.push_back(*batch);

  ASSERT_EQ(got_ref.size(), got_qos.size());
  for (std::size_t i = 0; i < got_ref.size(); ++i) {
    EXPECT_EQ(got_ref[i].id, got_qos[i].id);
    EXPECT_DOUBLE_EQ(got_ref[i].dispatch.value, got_qos[i].dispatch.value);
    ASSERT_EQ(got_ref[i].size(), got_qos[i].size()) << "batch " << i;
    for (std::size_t j = 0; j < got_ref[i].size(); ++j) {
      EXPECT_EQ(got_ref[i].requests[j].id, got_qos[i].requests[j].id);
      EXPECT_DOUBLE_EQ(got_ref[i].requests[j].enqueue.value,
                       got_qos[i].requests[j].enqueue.value);
    }
  }
}

TEST(QosBatcher, ZeroWeightClassNeverAdmittedWhileOthersPending) {
  QosBatcherConfig cfg;
  cfg.classes = {make_class("scavenger", 2, 10.0, 0.0),
                 make_class("paying", 4, 500.0, 1.0)};
  QosBatcher b(cfg);
  // The scavenger fires its size AND deadline triggers long before the
  // paying class; with the paying class pending it must still wait.
  b.add(make_request(0, 0.0, 0));
  b.add(make_request(1, 1.0, 0));
  b.add(make_request(2, 2.0, 1));
  EXPECT_FALSE(b.poll(Ns{400.0}).has_value());  // scavenger gated
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 502.0);  // the paying trigger
  // flush() also serves the paying class first.
  auto first = b.flush(Ns{502.0});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->qos_class, 1u);
  // Alone at last, the scavenger is admitted (size trigger long fired).
  auto second = b.poll(Ns{502.0});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->qos_class, 0u);
  EXPECT_EQ(second->size(), 2u);
}

TEST(QosBatcher, WeightedAdmissionSplitsSimultaneousFires) {
  QosBatcherConfig cfg;
  cfg.classes = {make_class("light", 1, 1e9, 1.0),
                 make_class("heavy", 1, 1e9, 3.0)};
  QosBatcher b(cfg);
  // Both classes perpetually size-fired (max_batch 1): admission must
  // interleave closes proportionally to weight via virtual time.
  std::size_t closed[2] = {0, 0};
  for (std::size_t i = 0; i < 40; ++i) {
    b.add(make_request(2 * i, static_cast<double>(i), 0));
    b.add(make_request(2 * i + 1, static_cast<double>(i), 1));
    auto first = b.poll(Ns{static_cast<double>(i)});
    auto second = b.poll(Ns{static_cast<double>(i)});
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    ++closed[first->qos_class];
    ++closed[second->qos_class];
    // Virtual time is exactly the class's closed requests over its weight
    // (every batch here holds one request)...
    EXPECT_EQ(b.virtual_time(0), static_cast<double>(closed[0]) / 1.0);
    EXPECT_EQ(b.virtual_time(1), static_cast<double>(closed[1]) / 3.0);
    // ...and must favor the heavy class 3:1 in the long run.
    EXPECT_LE(b.virtual_time(1), b.virtual_time(0) + 1.0);
  }
  EXPECT_EQ(closed[0] + closed[1], 80u);
}

TEST(QosBatcher, OutOfOrderArrivalsInsertSorted) {
  QosBatcherConfig cfg;
  cfg.classes = {make_class("a", 8, 100.0, 1.0)};
  QosBatcher b(cfg);
  // A gated closed loop can hand the batcher an arrival slightly in the
  // past; it must slot in by enqueue time, not throw.
  b.add(make_request(0, 100.0));
  b.add(make_request(1, 50.0));
  b.add(make_request(2, 100.0));
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 150.0);  // oldest is now t=50
  auto batch = b.poll(Ns{150.0});
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_EQ(batch->requests[0].id, 1u);  // sorted by enqueue...
  EXPECT_EQ(batch->requests[1].id, 0u);  // ...stable after equal times
  EXPECT_EQ(batch->requests[2].id, 2u);
}

TEST(QosBatcher, ScavengersNeverBlockEachOther) {
  QosBatcherConfig cfg;
  cfg.classes = {make_class("scav-a", 4, 10.0, 0.0),
                 make_class("scav-b", 4, 10.0, 0.0)};
  QosBatcher b(cfg);
  b.add(make_request(0, 0.0, 0));
  b.add(make_request(1, 1.0, 1));
  // Both scavengers pending: neither gates the other (two weight-0
  // classes must not deadlock the batcher), ties go to the lower index.
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_DOUBLE_EQ(b.deadline()->value, 10.0);
  auto first = b.flush(Ns{20.0});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->qos_class, 0u);
  auto second = b.flush(Ns{20.0});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->qos_class, 1u);
  EXPECT_TRUE(b.empty());
}

TEST(QosBatcher, RejectsBadConfigsAndLabels) {
  QosBatcherConfig empty;
  EXPECT_THROW(QosBatcher b(empty), std::runtime_error);

  QosBatcherConfig bad;
  bad.classes = {make_class("a", 0, 10.0, 1.0)};
  EXPECT_THROW(QosBatcher b(bad), std::runtime_error);

  QosBatcherConfig two;
  two.classes = {make_class("a", 4, 10.0, 1.0),
                 make_class("b", 4, 10.0, 1.0)};
  QosBatcher b(two);
  EXPECT_THROW(b.add(make_request(0, 0.0, 2)), std::runtime_error);
  EXPECT_THROW((void)b.pending(7), std::runtime_error);

  // Time knobs. A non-positive deadline or admission window still means
  // "none", but a NaN one used to switch the SLO or the gate off without
  // a word, so a non-finite value is a named error; so is a negative or
  // non-finite service estimate.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto error_with = [&](auto&& tweak) -> std::string {
    QosBatcherConfig cfg = two;
    tweak(cfg);
    try {
      QosBatcher rejected(cfg);
    } catch (const Error& e) {
      return e.what();
    }
    return {};
  };
  for (const double v : {nan, inf, -inf}) {
    EXPECT_NE(error_with([&](QosBatcherConfig& c) {
                c.classes[1].deadline = Ns{v};
              }).find("deadline must be finite"),
              std::string::npos)
        << v;
    EXPECT_NE(error_with([&](QosBatcherConfig& c) {
                c.admit_window = Ns{v};
              }).find("admit_window must be finite"),
              std::string::npos)
        << v;
  }
  for (const double v : {nan, inf, -1.0}) {
    EXPECT_NE(error_with([&](QosBatcherConfig& c) {
                c.classes[0].service_estimate = Ns{v};
              }).find("service_estimate must be finite and non-negative"),
              std::string::npos)
        << v;
  }
  // A non-finite weight is a named error too: +inf used to pass, making
  // that class's fair share inf/inf = NaN and every other class's zero.
  for (const double v : {nan, inf}) {
    EXPECT_NE(error_with([&](QosBatcherConfig& c) {
                c.classes[1].weight = v;
              }).find("weight must be finite"),
              std::string::npos)
        << v;
  }
  EXPECT_EQ(error_with([](QosBatcherConfig& c) {
              c.classes[0].deadline = Ns{-1.0};
              c.classes[0].service_estimate = Ns{0.0};
              c.admit_window = Ns{-1.0};
            }),
            "");
}

// --- Runtime determinism grid ----------------------------------------------

struct QosServeFixture {
  QosServeFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 60;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 141;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 143;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(147);
    model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < ds->num_users(); ++u)
      users.push_back(model->make_context(*ds, u));

    cpu_cfg.candidates = 40;
    factory = core::cpu_backend_factory(*model, cpu_cfg);
  }

  /// One cell of the (classes, open, overlap, gated) grid; `think_ns` is
  /// the closed-loop client think time.
  serve::ServeReport run(std::size_t classes, bool open, bool overlap,
                         bool gated = false, double think_ns = 0.0) {
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache.capacity_rows = 1024;
    cfg.overlap = overlap;
    if (classes > 1) {
      auto interactive = make_class("interactive", 2, 300000.0, 2.0);
      interactive.deadline = Ns{150000.0};
      interactive.service_estimate = Ns{20000.0};
      cfg.qos.classes = {interactive, make_class("bulk", 4, 300000.0, 4.0),
                         make_class("scavenger", 4, 300000.0, 0.0)};
      if (gated) cfg.qos.admit_window = Ns{50000.0};
    }
    ServingRuntime rt(factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 40;
    lg.num_users = users.size();
    lg.seed = 171;
    lg.think = Ns{think_ns};
    if (classes > 1) lg.class_mix = {0.2, 0.7, 0.1};
    if (open) {
      lg.arrivals = ArrivalProcess::kOpenPoisson;
      lg.rate_qps = 2.0e5;
    }
    LoadGenerator gen(lg);
    return rt.run(gen, users);
  }

  std::unique_ptr<data::MovieLensSynth> ds;
  std::unique_ptr<recsys::YoutubeDnn> model;
  std::vector<recsys::UserContext> users;
  baseline::CpuBackendConfig cpu_cfg;
  core::BackendFactory factory;
};

TEST(QosRuntime, SingleClassConfigMatchesExplicitSingleTable) {
  QosServeFixture fx;
  for (const bool open : {false, true}) {
    ServingConfig implicit;
    implicit.shards = 2;
    implicit.k = 5;
    implicit.batcher.max_batch = 4;
    implicit.batcher.max_wait = Ns{300000.0};
    implicit.cache.capacity_rows = 512;
    ServingConfig explicit_cfg = implicit;
    explicit_cfg.qos = QosBatcherConfig::single(implicit.batcher);

    auto run_with = [&](const ServingConfig& cfg) {
      ServingRuntime rt(fx.factory, cfg, core::ArchConfig{},
                        device::DeviceProfile::fefet45());
      LoadGenConfig lg;
      lg.clients = 6;
      lg.total_queries = 30;
      lg.num_users = fx.users.size();
      lg.seed = 201;
      if (open) {
        lg.arrivals = ArrivalProcess::kOpenPoisson;
        lg.rate_qps = 1.5e5;
      }
      LoadGenerator gen(lg);
      return rt.run(gen, fx.users);
    };
    serve_test::expect_reports_identical(run_with(implicit),
                                         run_with(explicit_cfg));
  }
}

TEST(QosRuntime, SeedDeterminismAcrossOverlapLoopAndClassGrid) {
  QosServeFixture fx;
  for (const std::size_t classes : {std::size_t{1}, std::size_t{3}}) {
    for (const bool open : {false, true}) {
      // Same seed, same config => bit-identical reports, and the overlap
      // flag must never change hardware-time accounting.
      const auto phased = fx.run(classes, open, /*overlap=*/false);
      const auto phased_again = fx.run(classes, open, /*overlap=*/false);
      const auto overlapped = fx.run(classes, open, /*overlap=*/true);
      serve_test::expect_reports_identical(phased, phased_again);
      serve_test::expect_reports_identical(phased, overlapped);
      ASSERT_EQ(phased.size(), 40u)
          << "classes=" << classes << " open=" << open;
    }
  }
}

TEST(QosRuntime, GatedAdmissionIsSeedDeterministic) {
  QosServeFixture fx;
  for (const bool open : {false, true}) {
    const auto a = fx.run(3, open, /*overlap=*/true, /*gated=*/true);
    const auto b = fx.run(3, open, /*overlap=*/true, /*gated=*/true);
    serve_test::expect_reports_identical(a, b);
    ASSERT_EQ(a.size(), 40u);
    // Per-class accounting covers the whole stream.
    std::size_t class_queries = 0;
    for (const auto& c : a.classes) class_queries += c.queries;
    EXPECT_EQ(class_queries, a.size());
    EXPECT_GT(a.classes[0].device_time.value, 0.0);
    EXPECT_GE(a.fairness_error(), 0.0);
    EXPECT_LE(a.fairness_error(), 1.0);
  }
}

// --- Overlap invariance -----------------------------------------------------

TEST(QosRuntime, OverlapMatchesPhasedAcrossRegimeGrid) {
  QosServeFixture fx;
  // Overlap defers collection only in the completion-independent regime
  // (open loop, ungated); the closed loop and gated admission fall back to
  // phased collection. Reports must stay bit-identical to phased execution
  // across the whole grid — overlap moves host-side waits, never simulated
  // numbers. Think time exercises the closed-loop re-issue delay.
  for (const std::size_t classes : {std::size_t{1}, std::size_t{3}}) {
    for (const bool open : {false, true}) {
      for (const bool gated : {false, true}) {
        if (gated && classes == 1) continue;  // gating needs a class table
        const double think_ns = open ? 0.0 : 40000.0;
        const auto phased = fx.run(classes, open, /*overlap=*/false, gated,
                                   think_ns);
        const auto overlapped = fx.run(classes, open, /*overlap=*/true,
                                       gated, think_ns);
        serve_test::expect_reports_identical(phased, overlapped);
        ASSERT_EQ(overlapped.size(), 40u)
            << "classes=" << classes << " open=" << open
            << " gated=" << gated;
      }
    }
  }
}

TEST(QosRuntime, StaleScavengerTriggerNeverBackdatesDispatch) {
  QosServeFixture fx;
  ServingConfig cfg;
  cfg.shards = 2;
  cfg.k = 5;
  auto paying = make_class("paying", 2, 100000.0, 1.0);
  auto scavenger = make_class("scavenger", 2, 10000.0, 0.0);
  cfg.qos.classes = {paying, scavenger};
  ServingRuntime rt(fx.factory, cfg, core::ArchConfig{},
                    device::DeviceProfile::fefet45());

  // The scavenger's deadline trigger fires at 20 us but stays suppressed
  // behind paying traffic until 250 us; by then its queue holds requests
  // enqueued long after the stale trigger time. The close must be stamped
  // at the newest arrival, never back at the stale trigger.
  std::vector<Request> trace;
  std::size_t id = 0;
  auto at = [&](double us, std::size_t cls) {
    Request r = make_request(id, us * 1000.0, cls);
    r.user = id % fx.users.size();
    ++id;
    trace.push_back(r);
  };
  at(10.0, 1);
  at(30.0, 0);
  at(50.0, 0);  // paying batch closes (size trigger)
  at(100.0, 1);
  at(150.0, 0);
  at(200.0, 1);
  at(250.0, 0);  // paying batch closes; queue drained
  at(1000.0, 0);  // keeps an arrival pending when the stale trigger fires

  LoadGenConfig lg;
  lg.num_users = fx.users.size();
  lg.arrivals = ArrivalProcess::kTrace;
  lg.trace = trace;
  LoadGenerator gen(lg);
  const auto report = rt.run(gen, fx.users);
  ASSERT_EQ(report.size(), trace.size());
  EXPECT_EQ(report.classes[1].queries, 3u);
  for (const auto& q : report.queries) {
    EXPECT_LE(q.enqueue.value, q.dispatch.value) << "query " << q.id;
    EXPECT_LT(q.dispatch.value, q.complete.value);
  }
}

TEST(QosRuntime, PerClassReportAccountingIsConsistent) {
  QosServeFixture fx;
  const auto report = fx.run(3, /*open=*/true, /*overlap=*/false);
  ASSERT_EQ(report.classes.size(), 3u);
  std::size_t queries = 0, batches = 0;
  double device = 0.0, share = 0.0;
  for (std::size_t c = 0; c < report.classes.size(); ++c) {
    queries += report.classes[c].queries;
    batches += report.classes[c].batches;
    device += report.classes[c].device_time.value;
    share += report.device_share(c);
    // Percentiles filter by label and never throw, even on a class that
    // received little or no traffic.
    EXPECT_GE(report.class_p99_latency_ns(c),
              report.class_p50_latency_ns(c));
  }
  EXPECT_EQ(queries, report.size());
  EXPECT_EQ(batches, report.batches);
  EXPECT_GT(device, 0.0);
  EXPECT_NEAR(share, 1.0, 1e-9);
  // Every query's label is a configured class and batches are class-pure.
  for (const auto& q : report.queries) EXPECT_LT(q.qos_class, 3u);
}

}  // namespace
}  // namespace imars
