#include "serve/load_gen.hpp"

#include <cmath>

#include "util/error.hpp"

namespace imars::serve {

LoadGenerator::LoadGenerator(const LoadGenConfig& cfg)
    : cfg_(cfg),
      users_(cfg.num_users, cfg.user_zipf_s),
      rng_(cfg.seed),
      gap_rng_(util::hash64(cfg.seed, 0x6170736f6e6e6fULL)),
      class_rng_(util::hash64(cfg.seed, 0x716f73636c617373ULL)),
      update_rng_(util::hash64(cfg.seed, 0x757064617465ULL)),
      churn_rng_(util::hash64(cfg.seed, 0x636875726eULL)) {
  IMARS_REQUIRE(cfg_.clients >= 1, "LoadGenerator: need at least one client");
  IMARS_REQUIRE(cfg_.num_users >= 1, "LoadGenerator: empty user population");
  IMARS_REQUIRE(std::isfinite(cfg_.think.value) && cfg_.think.value >= 0.0,
                "LoadGenerator: think must be finite and non-negative");
  if (cfg_.session_mode) {
    IMARS_REQUIRE(cfg_.session_churn >= 0.0 && cfg_.session_churn <= 1.0,
                  "LoadGenerator: session_churn must be in [0, 1]");
    SessionTableConfig scfg;
    scfg.capacity = cfg_.session_capacity;
    scfg.max_kicks = cfg_.session_max_kicks;
    scfg.seed = cfg_.seed;
    sessions_ = std::make_unique<SessionTable>(scfg);
  }
  if (cfg_.arrivals == ArrivalProcess::kOpenPoisson)
    IMARS_REQUIRE(cfg_.rate_qps > 0.0,
                  "LoadGenerator: open-loop mode needs a positive rate");
  if (cfg_.arrivals == ArrivalProcess::kTrace) {
    IMARS_REQUIRE(!cfg_.trace.empty(), "LoadGenerator: empty trace");
    for (const Request& r : cfg_.trace)
      IMARS_REQUIRE(std::isfinite(r.enqueue.value),
                    "LoadGenerator: trace arrivals must be finite");
    for (std::size_t i = 1; i < cfg_.trace.size(); ++i)
      IMARS_REQUIRE(cfg_.trace[i - 1].enqueue <= cfg_.trace[i].enqueue,
                    "LoadGenerator: trace arrivals must be time-ordered");
  }
  for (double share : cfg_.class_mix) {
    IMARS_REQUIRE(std::isfinite(share),
                  "LoadGenerator: class_mix shares must be finite");
    IMARS_REQUIRE(share >= 0.0,
                  "LoadGenerator: class_mix shares must be non-negative");
    mix_total_ += share;
  }
  if (!cfg_.class_mix.empty()) {
    IMARS_REQUIRE(std::isfinite(mix_total_),
                  "LoadGenerator: class_mix total must be finite");
    IMARS_REQUIRE(mix_total_ > 0.0,
                  "LoadGenerator: class_mix must have a positive share");
  }
  IMARS_REQUIRE(cfg_.update_fraction >= 0.0 && cfg_.update_fraction <= 1.0,
                "LoadGenerator: update_fraction must be in [0, 1]");
}

bool LoadGenerator::draw_update() {
  // Zero fraction performs no draw at all: read-only streams consume
  // nothing from the update stream and stay bit-identical.
  if (cfg_.update_fraction <= 0.0) return false;
  return update_rng_.uniform() < cfg_.update_fraction;
}

void LoadGenerator::stamp_session(Request& r) {
  if (sessions_ == nullptr) return;
  // Churn first, then the touch: a departing session can be the drawn
  // user's own, making the next touch a re-arrival. Zero churn performs no
  // draw at all, so churn-free session streams consume nothing extra.
  if (cfg_.session_churn > 0.0 &&
      churn_rng_.uniform() < cfg_.session_churn)
    sessions_->evict_random(churn_rng_);
  const SessionState s = sessions_->touch(r.user);
  r.session_seq = s.sequence;
  r.session_fresh = s.sequence == 1;
}

std::size_t LoadGenerator::draw_class() {
  if (cfg_.class_mix.empty()) return 0;
  // Inverse-CDF draw from the normalized mix, on the dedicated stream.
  double u = class_rng_.uniform() * mix_total_;
  for (std::size_t cls = 0; cls + 1 < cfg_.class_mix.size(); ++cls) {
    if (u < cfg_.class_mix[cls]) return cls;
    u -= cfg_.class_mix[cls];
  }
  return cfg_.class_mix.size() - 1;
}

std::optional<Request> LoadGenerator::next(std::size_t client,
                                           device::Ns ready) {
  IMARS_REQUIRE(cfg_.arrivals == ArrivalProcess::kClosedLoop,
                "LoadGenerator: next() is the closed-loop entry point");
  IMARS_REQUIRE(client < cfg_.clients, "LoadGenerator: client out of range");
  if (issued_ >= cfg_.total_queries) return std::nullopt;
  Request r;
  r.id = issued_++;
  r.client = client;
  r.user = users_.sample(rng_);
  r.qos_class = draw_class();
  r.is_update = draw_update();
  r.enqueue = ready + cfg_.think;
  stamp_session(r);
  return r;
}

std::optional<Request> LoadGenerator::next_arrival() {
  IMARS_REQUIRE(cfg_.arrivals != ArrivalProcess::kClosedLoop,
                "LoadGenerator: next_arrival() is the open-loop entry point");
  if (cfg_.arrivals == ArrivalProcess::kTrace) {
    if (issued_ >= cfg_.trace.size()) return std::nullopt;
    return cfg_.trace[issued_++];
  }
  if (issued_ >= cfg_.total_queries) return std::nullopt;
  // Exponential inter-arrival gap with mean 1/rate, in device nanoseconds
  // (log1p(-u) with u in [0,1) avoids log(0)). Gaps come from their own
  // stream so user draws stay seed-comparable between the open and closed
  // regimes.
  const double u = gap_rng_.uniform();
  const double gap_s = -std::log1p(-u) / cfg_.rate_qps;
  open_clock_ += device::Ns{gap_s * 1e9};
  Request r;
  r.id = issued_++;
  r.client = r.id % cfg_.clients;  // labeling only; arrivals are global
  r.user = users_.sample(rng_);
  r.qos_class = draw_class();
  r.is_update = draw_update();
  r.enqueue = open_clock_;
  stamp_session(r);
  return r;
}

}  // namespace imars::serve
