// Load generation in three arrival regimes:
//
//   * closed loop — C concurrent clients, each issuing its next query the
//     moment its previous one completes (plus optional think time). The
//     offered load self-throttles to the fabric's capacity, so the closed
//     loop can never overload it.
//   * open loop  — Poisson arrivals at a fixed mean rate in the
//     device-time domain, independent of completions. This is the regime
//     that exposes saturation and tail-latency knees: past the capacity
//     rate, queues grow without bound and p99 explodes.
//   * trace     — a scripted arrival stream replayed verbatim (completion-
//     independent, like the open loop). The property tests use it to build
//     adversarial multi-tenant schedules (e.g. a bulk flood around a sparse
//     interactive stream) with exact control of every arrival.
//
// Users are drawn from a Zipf(s) popularity distribution over the
// population (data/zipf.*), reproducing the skewed traffic that makes the
// hot-embedding cache effective. Multi-tenant streams label each request
// with a QoS class drawn from `class_mix`; the draw uses its own RNG
// stream, so adding classes never perturbs the user sequence (and an empty
// mix performs no draw at all — bit-identical to the single-tenant
// stream). All randomness is seeded (util/rng.hpp), so a given
// configuration reproduces its arrival stream bit-for-bit.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "data/zipf.hpp"
#include "device/units.hpp"
#include "serve/batcher.hpp"
#include "serve/session_table.hpp"
#include "util/rng.hpp"

namespace imars::serve {

enum class ArrivalProcess : std::uint8_t {
  kClosedLoop,   ///< completions trigger the next query per client
  kOpenPoisson,  ///< exponential inter-arrival gaps at `rate_qps`
  kTrace,        ///< replay `trace` verbatim (open-loop-like)
};

struct LoadGenConfig {
  std::size_t clients = 16;        ///< closed-loop concurrency
  std::size_t total_queries = 256; ///< stream length
  std::size_t num_users = 1;       ///< user-context population size
  double user_zipf_s = 0.9;        ///< popularity skew over users
  device::Ns think{0.0};           ///< closed-loop think time (finite, >= 0)
  std::uint64_t seed = 7;
  ArrivalProcess arrivals = ArrivalProcess::kClosedLoop;
  double rate_qps = 0.0;           ///< open-loop mean arrival rate (device s)
  /// Per-class arrival shares (normalized internally): request
  /// `qos_class` labels are drawn i.i.d. from this distribution. Empty =
  /// every request is class 0 and no class RNG draw happens.
  std::vector<double> class_mix;
  /// Scripted arrivals for ArrivalProcess::kTrace (enqueue must be
  /// non-decreasing); replayed verbatim, `total_queries`/`class_mix` are
  /// ignored.
  std::vector<Request> trace;
  /// Fraction of the stream issued as embedding-update writes
  /// (Request::is_update) rather than queries, drawn i.i.d. per request
  /// from a dedicated RNG stream — 0 performs no draw at all, so read-only
  /// streams stay bit-identical to pre-write-back runs. Must be in [0, 1].
  double update_fraction = 0.0;
  /// Session mode (serve/session_table.*): every drawn user is routed
  /// through a cuckoo-hashed live-session table — a hit bumps the
  /// session's query sequence, a miss is a session arrival, and
  /// `session_churn` is the per-request probability of one random live
  /// session departing (drawn on a dedicated RNG stream). The user draw
  /// itself is untouched: with churn 0 the emitted request stream is
  /// bit-identical to the non-session stream except for the inert
  /// session_seq/session_fresh fields (tested).
  bool session_mode = false;
  std::size_t session_capacity = 1 << 16;  ///< live-session table target
  std::size_t session_max_kicks = 32;      ///< cuckoo kick bound
  double session_churn = 0.0;              ///< per-request departure prob.
};

class LoadGenerator {
 public:
  explicit LoadGenerator(const LoadGenConfig& cfg);

  const LoadGenConfig& config() const noexcept { return cfg_; }
  std::size_t issued() const noexcept { return issued_; }

  /// Closed loop: the next request of `client`, arriving at `ready` (the
  /// completion time of its previous query, or the stagger offset for the
  /// first one). Returns nullopt once the stream budget is exhausted.
  std::optional<Request> next(std::size_t client, device::Ns ready);

  /// Open loop / trace: the next arrival (non-decreasing in time; Poisson
  /// clients labeled round-robin). Returns nullopt once the budget is
  /// exhausted.
  std::optional<Request> next_arrival();

  /// The live-session table (nullptr unless session_mode) — read-only
  /// access for benches reporting session hit rates and churn stats.
  const SessionTable* sessions() const noexcept { return sessions_.get(); }

 private:
  std::size_t draw_class();
  bool draw_update();
  /// Session-mode bookkeeping for a freshly drawn request: churn draw,
  /// table touch, session fields. No-op unless session_mode.
  void stamp_session(Request& r);

  LoadGenConfig cfg_;
  data::ZipfSampler users_;
  util::Xoshiro256 rng_;      ///< user draws (shared by both regimes, so a
                              ///< seed fixes the impression sequence
                              ///< regardless of arrival process)
  util::Xoshiro256 gap_rng_;  ///< open-loop inter-arrival draws
  util::Xoshiro256 class_rng_;  ///< QoS-class draws (own stream: adding
                                ///< classes never shifts user draws)
  util::Xoshiro256 update_rng_;  ///< update-mix draws (own stream: enabling
                                 ///< updates never shifts user/class draws)
  util::Xoshiro256 churn_rng_;  ///< session churn draws (own stream: session
                                ///< mode never shifts user/class draws)
  std::unique_ptr<SessionTable> sessions_;  ///< live sessions (session mode)
  double mix_total_ = 0.0;      ///< sum of class_mix shares
  std::size_t issued_ = 0;
  device::Ns open_clock_{0.0};  ///< last open-loop arrival time
};

}  // namespace imars::serve
