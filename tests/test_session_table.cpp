// Tests for the cuckoo-hashed session layer (serve/session_table.*) and
// its load-generator integration (LoadGenConfig::session_mode): seeded
// churn determinism, the bounded-kick O(1) insert guarantee under fill
// pressure, and the churn-0 parity contract — session mode must emit a
// request stream bit-identical to the plain per-user draw stream except
// for the inert session_seq / session_fresh fields.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/load_gen.hpp"
#include "serve/session_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using serve::ArrivalProcess;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::Request;
using serve::SessionState;
using serve::SessionTable;
using serve::SessionTableConfig;

TEST(SessionTable, TouchCreatesThenBumpsSequence) {
  SessionTableConfig cfg;
  cfg.capacity = 64;
  SessionTable table(cfg);

  const SessionState first = table.touch(42);
  EXPECT_EQ(first.user, 42u);
  EXPECT_EQ(first.sequence, 1u);  // arrival: first query of the session
  EXPECT_TRUE(table.contains(42));
  EXPECT_EQ(table.occupancy(), 1u);

  const SessionState second = table.touch(42);
  EXPECT_EQ(second.sequence, 2u);
  EXPECT_EQ(table.occupancy(), 1u);

  EXPECT_EQ(table.stats().lookups, 2u);
  EXPECT_EQ(table.stats().hits, 1u);
  EXPECT_EQ(table.stats().arrivals, 1u);
}

TEST(SessionTable, EvictRandomRetiresLiveSessions) {
  SessionTableConfig cfg;
  cfg.capacity = 64;
  SessionTable table(cfg);
  for (std::uint64_t u = 0; u < 16; ++u) table.touch(u);
  ASSERT_EQ(table.occupancy(), 16u);

  util::Xoshiro256 rng(99);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_TRUE(table.evict_random(rng));
  EXPECT_EQ(table.occupancy(), 0u);
  EXPECT_EQ(table.stats().departures, 16u);
  EXPECT_FALSE(table.evict_random(rng));  // empty table: nothing to retire
}

// The O(1) guarantee: no insert ever walks a kick chain longer than
// max_kicks, even when the population dwarfs the table and every insert
// lands in a full neighborhood. Overflow is absorbed by forced evictions
// (a departed session), never by unbounded probing.
TEST(SessionTable, KickChainsStayBoundedUnderFillPressure) {
  SessionTableConfig cfg;
  cfg.capacity = 256;
  cfg.max_kicks = 8;
  cfg.seed = 5;
  SessionTable table(cfg);

  const std::size_t population = 10000;
  for (std::uint64_t u = 0; u < population; ++u) table.touch(u);

  EXPECT_LE(table.max_kick_chain(), cfg.max_kicks);
  EXPECT_LE(table.occupancy(), table.capacity());
  // 10k distinct arrivals through <=256 slots: the table must have been
  // driven into forced evictions, and near-full occupancy must survive.
  EXPECT_GT(table.stats().forced_evictions, 0u);
  EXPECT_GT(table.load_factor(), 0.5);
  const auto& s = table.stats();
  EXPECT_EQ(s.arrivals, population);
  EXPECT_EQ(s.arrivals - s.departures, table.occupancy());
}

// A (capacity, seed) pair fully determines placement, kicks and
// evictions: replaying the identical touch sequence reproduces identical
// statistics, occupancy and per-user residency.
TEST(SessionTable, SeededChurnIsDeterministic) {
  SessionTableConfig cfg;
  cfg.capacity = 128;
  cfg.max_kicks = 6;
  cfg.seed = 11;
  SessionTable a(cfg);
  SessionTable b(cfg);

  util::Xoshiro256 users(21);
  util::Xoshiro256 churn_a(31);
  util::Xoshiro256 churn_b(31);
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::uint64_t u = users() % 1000;
    const SessionState sa = a.touch(u);
    const SessionState sb = b.touch(u);
    EXPECT_EQ(sa.sequence, sb.sequence);
    if (i % 7 == 0) {
      EXPECT_EQ(a.evict_random(churn_a), b.evict_random(churn_b));
    }
  }
  EXPECT_EQ(a.occupancy(), b.occupancy());
  EXPECT_EQ(a.max_kick_chain(), b.max_kick_chain());
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().arrivals, b.stats().arrivals);
  EXPECT_EQ(a.stats().departures, b.stats().departures);
  EXPECT_EQ(a.stats().forced_evictions, b.stats().forced_evictions);
  EXPECT_EQ(a.stats().kicks, b.stats().kicks);
  for (std::uint64_t u = 0; u < 1000; ++u)
    EXPECT_EQ(a.contains(u), b.contains(u));
}

// Session sequence numbers must agree with a plain per-user count while
// the session stays live (no churn: sessions never depart).
TEST(SessionTable, SequenceMatchesPerUserCountWithoutChurn) {
  SessionTableConfig cfg;
  cfg.capacity = 4096;
  SessionTable table(cfg);
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  util::Xoshiro256 users(3);
  for (std::size_t i = 0; i < 8000; ++i) {
    const std::uint64_t u = users() % 512;  // fits: nothing departs
    const SessionState s = table.touch(u);
    EXPECT_EQ(s.sequence, ++counts[u]);
  }
  EXPECT_EQ(table.stats().forced_evictions, 0u);
  EXPECT_EQ(table.occupancy(), counts.size());
}

LoadGenConfig session_gen_config(double churn) {
  LoadGenConfig lg;
  lg.clients = 8;
  lg.total_queries = 4000;
  lg.num_users = 50000;
  lg.user_zipf_s = 0.9;
  lg.seed = 17;
  lg.arrivals = ArrivalProcess::kOpenPoisson;
  lg.rate_qps = 1e6;
  lg.class_mix = {0.7, 0.3};
  lg.update_fraction = 0.1;
  lg.session_mode = true;
  // Room for every distinct user the 4000-query stream can touch: with
  // churn off nothing may depart, so the table must never be driven into
  // forced (fill-pressure) evictions.
  lg.session_capacity = 16384;
  lg.session_churn = churn;
  return lg;
}

// A capacity above 2^32 slots is refused by name. At SIZE_MAX the bucket
// rounding (capacity + 3) / 4 used to wrap to a one-bucket table whose
// alternate bucket lay past the slots, so the first touch read out of
// bounds. The load generator's session_capacity reaches the same check.
TEST(SessionTable, RejectsCapacityAbove2To32Slots) {
  const auto error_with = [](std::size_t capacity, bool via_load_gen) {
    try {
      if (via_load_gen) {
        LoadGenConfig lg = session_gen_config(0.0);
        lg.session_capacity = capacity;
        LoadGenerator gen(lg);
      } else {
        SessionTableConfig cfg;
        cfg.capacity = capacity;
        SessionTable table(cfg);
      }
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const std::size_t capacity :
       {kMax, kMax - 2, SessionTable::kMaxCapacity + 1})
    for (const bool via_load_gen : {false, true})
      EXPECT_NE(error_with(capacity, via_load_gen)
                    .find("SessionTable: capacity exceeds 2^32 slots"),
                std::string::npos)
          << capacity << (via_load_gen ? " via LoadGenConfig" : "");
}

// Churn-0 parity: enabling session mode must not shift ANY draw — the
// emitted stream is bit-identical to the session-off stream except for
// the session_seq / session_fresh fields it adds, and those must mirror
// a plain per-user occurrence count (nothing ever departs).
TEST(SessionLoadGen, ChurnZeroMatchesPlainStream) {
  LoadGenConfig with = session_gen_config(0.0);
  LoadGenConfig without = with;
  without.session_mode = false;

  LoadGenerator gs(with);
  LoadGenerator gp(without);
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  while (true) {
    const std::optional<Request> rs = gs.next_arrival();
    const std::optional<Request> rp = gp.next_arrival();
    ASSERT_EQ(rs.has_value(), rp.has_value());
    if (!rs) break;
    EXPECT_EQ(rs->id, rp->id);
    EXPECT_EQ(rs->user, rp->user);
    EXPECT_EQ(rs->client, rp->client);
    EXPECT_EQ(rs->qos_class, rp->qos_class);
    EXPECT_EQ(rs->is_update, rp->is_update);
    EXPECT_EQ(rs->enqueue.value, rp->enqueue.value);
    // The added personalization fields mirror a per-user running count.
    const std::uint32_t seq = ++counts[rs->user];
    EXPECT_EQ(rs->session_seq, seq);
    EXPECT_EQ(rs->session_fresh, seq == 1);
    // Plain stream leaves them inert.
    EXPECT_EQ(rp->session_seq, 0u);
    EXPECT_FALSE(rp->session_fresh);
  }
  ASSERT_NE(gs.sessions(), nullptr);
  EXPECT_EQ(gs.sessions()->stats().departures, 0u);
  EXPECT_EQ(gp.sessions(), nullptr);
}

// Churn draws ride a dedicated RNG stream: turning churn on retires
// sessions (fresh arrivals reappear) but must never shift the user /
// class / update / arrival-time draws.
TEST(SessionLoadGen, ChurnNeverShiftsUserStream) {
  LoadGenerator churned(session_gen_config(0.2));
  LoadGenConfig plain_cfg = session_gen_config(0.0);
  plain_cfg.session_mode = false;
  LoadGenerator plain(plain_cfg);

  std::uint64_t departures_seen = 0;
  while (true) {
    const std::optional<Request> rc = churned.next_arrival();
    const std::optional<Request> rp = plain.next_arrival();
    ASSERT_EQ(rc.has_value(), rp.has_value());
    if (!rc) break;
    EXPECT_EQ(rc->user, rp->user);
    EXPECT_EQ(rc->qos_class, rp->qos_class);
    EXPECT_EQ(rc->is_update, rp->is_update);
    EXPECT_EQ(rc->enqueue.value, rp->enqueue.value);
  }
  departures_seen = churned.sessions()->stats().departures;
  EXPECT_GT(departures_seen, 0u);  // churn actually retired sessions
  EXPECT_LE(churned.sessions()->max_kick_chain(),
            session_gen_config(0.2).session_max_kicks);
}

// Two identically-seeded session-mode generators (churn on) replay the
// exact same stream — the end-to-end determinism the scaling bench's
// steady-state runs rely on.
TEST(SessionLoadGen, SeededStreamsReplayBitIdentically) {
  LoadGenerator a(session_gen_config(0.05));
  LoadGenerator b(session_gen_config(0.05));
  while (true) {
    const std::optional<Request> ra = a.next_arrival();
    const std::optional<Request> rb = b.next_arrival();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra) break;
    EXPECT_EQ(ra->user, rb->user);
    EXPECT_EQ(ra->session_seq, rb->session_seq);
    EXPECT_EQ(ra->session_fresh, rb->session_fresh);
    EXPECT_EQ(ra->enqueue.value, rb->enqueue.value);
  }
  EXPECT_EQ(a.sessions()->stats().hits, b.sessions()->stats().hits);
  EXPECT_EQ(a.sessions()->stats().departures,
            b.sessions()->stats().departures);
}

}  // namespace
}  // namespace imars
