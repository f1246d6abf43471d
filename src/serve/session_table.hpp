// User-session state layer for million-user steady-state workloads.
//
// Real serving fleets do not see a static user population: sessions arrive,
// issue a handful of queries, and depart, with the live set orders of
// magnitude smaller than the registered population. SNIPPETS.md's cuckoo-lb
// exemplar sustains 1M flows with per-second replacement through a cuckoo
// connection table; this is the analogous layer for recommendation
// serving. A bucketized cuckoo hash table keyed by user id holds one
// SessionState per live session:
//
//   * O(1) lookup — a key lives in one of two buckets (4 slots each), so a
//     probe touches at most 8 slots regardless of capacity or load.
//   * 16 bytes per slot — a slot is a bare SessionState (the user and its
//     query sequence, all the load generator reads); which slots are live
//     is one bit per slot beside them, and a bucket's four bits sit in one
//     word. 10^5 sessions round up to 2^17 slots: 2 MiB of states plus
//     16 KiB of bits.
//   * bounded kicks — an insert displaces at most `max_kicks` victims; if
//     the kick chain runs out, the last displaced session departs (a
//     forced eviction, counted) instead of the insert looping. Per-insert
//     work is therefore O(max_kicks) worst case, not amortized.
//   * seeded churn — all placement/kick/eviction randomness comes from
//     seeded generators, so a given seed reproduces the exact
//     arrival/departure/lookup sequence (test_session_table pins this).
//
// The load generator's session mode (LoadGenConfig::session_mode) routes
// every drawn user through touch(): a hit bumps the session's query
// sequence, a miss is a session arrival, and a per-query Bernoulli churn
// draw retires a random live session (departure). The resulting
// SessionState feeds Request::session_seq / session_fresh — per-session
// personalization state the servables can condition on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace imars::serve {

/// Per-session personalization state.
struct SessionState {
  std::uint64_t user = 0;      ///< key: user-context index
  std::uint32_t sequence = 0;  ///< queries this session has issued (1 = first)
};
static_assert(sizeof(SessionState) == 16,
              "a session slot is the user key and its query sequence");

struct SessionTableConfig {
  /// Target live-session capacity; rounded up to a power-of-two bucket
  /// count times 4 slots per bucket. At most 2^32 slots.
  std::size_t capacity = 1 << 16;
  /// Kick-chain bound per insert (the O(1) guarantee).
  std::size_t max_kicks = 32;
  std::uint64_t seed = 7;
};

class SessionTable {
 public:
  static constexpr std::size_t kSlotsPerBucket = 4;
  /// Largest accepted SessionTableConfig::capacity, in slots.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 32;

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;        ///< lookup found a live session
    std::uint64_t arrivals = 0;    ///< sessions created
    std::uint64_t departures = 0;  ///< churn retirements + forced evictions
    std::uint64_t forced_evictions = 0;  ///< kick chain exhausted
    std::uint64_t kicks = 0;             ///< total cuckoo displacements
    double hit_rate() const noexcept {
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  explicit SessionTable(const SessionTableConfig& cfg);

  /// Slot capacity after rounding (buckets * kSlotsPerBucket).
  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t occupancy() const noexcept { return occupancy_; }
  double load_factor() const noexcept {
    return static_cast<double>(occupancy_) /
           static_cast<double>(slots_.size());
  }
  const Stats& stats() const noexcept { return stats_; }
  /// Longest kick chain any insert has walked (<= cfg.max_kicks always).
  std::size_t max_kick_chain() const noexcept { return max_kick_chain_; }

  /// Looks up `user`'s live session: a hit bumps its query sequence; a
  /// miss creates the session at sequence 1 (cuckoo insert with bounded
  /// kicks — a full table along the kick path forcibly retires the last
  /// displaced session). Returns the post-bump state by value (the slot
  /// may move on later inserts).
  SessionState touch(std::uint64_t user);

  /// True if `user` has a live session (no stats side effects).
  bool contains(std::uint64_t user) const;

  /// Churn departure: retires one uniformly random live session using
  /// `rng`. Returns false when the table is empty.
  bool evict_random(util::Xoshiro256& rng);

 private:
  std::size_t bucket_of(std::uint64_t user) const noexcept;
  /// The key's other bucket, computable from either one (cuckoo property).
  std::size_t alt_bucket(std::size_t bucket, std::uint64_t user) const noexcept;
  /// Slot index of `user` in `bucket`, or kSlotsPerBucket if absent.
  std::size_t find_in(std::size_t bucket, std::uint64_t user) const noexcept;
  /// Places into a free slot of `bucket` if any; true on success.
  bool place_if_free(std::size_t bucket, const SessionState& s);
  void insert(const SessionState& s);
  /// Occupancy bits of `bucket`'s slots (bit i = slot i).
  unsigned bucket_bits(std::size_t bucket) const noexcept {
    return static_cast<unsigned>(occupied_[bucket / kBucketsPerWord] >>
                                 (bucket % kBucketsPerWord * kSlotsPerBucket)) &
           0xfu;
  }

  static constexpr std::size_t kBucketsPerWord = 64 / kSlotsPerBucket;

  std::size_t buckets_ = 0;  ///< power of two
  std::size_t mask_ = 0;
  std::uint64_t seed_ = 0;
  std::size_t max_kicks_ = 0;
  /// buckets_ * kSlotsPerBucket sessions, bucket-major. A slot is live
  /// while its bit in occupied_ is set; a free slot's state is stale.
  std::vector<SessionState> slots_;
  std::vector<std::uint64_t> occupied_;  ///< one bit per slot, slot order
  util::Xoshiro256 kick_rng_;
  std::size_t occupancy_ = 0;
  std::size_t max_kick_chain_ = 0;
  Stats stats_;
};

}  // namespace imars::serve
