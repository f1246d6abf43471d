#include "serve/session_table.hpp"

#include <bit>

#include "util/error.hpp"

namespace imars::serve {

namespace {

constexpr std::uint64_t kBucketSeed = 0x73657373696f6e31ULL;  // "session1"
constexpr std::uint64_t kAltSeed = 0x73657373696f6e32ULL;     // "session2"

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

SessionTable::SessionTable(const SessionTableConfig& cfg)
    : seed_(cfg.seed),
      max_kicks_(cfg.max_kicks),
      kick_rng_(util::hash64(cfg.seed, 0x6b69636bULL)) {
  IMARS_REQUIRE(cfg.capacity >= 2 * kSlotsPerBucket,
                "SessionTable: capacity must cover at least two buckets");
  // Bounding the capacity first keeps the rounding below from wrapping: at
  // SIZE_MAX, capacity + 3 would wrap to a one-bucket table whose
  // alt_bucket lies past slots_.
  IMARS_REQUIRE(cfg.capacity <= kMaxCapacity,
                "SessionTable: capacity exceeds 2^32 slots");
  IMARS_REQUIRE(cfg.max_kicks >= 1, "SessionTable: max_kicks must be >= 1");
  buckets_ = next_pow2((cfg.capacity + kSlotsPerBucket - 1) / kSlotsPerBucket);
  mask_ = buckets_ - 1;
  slots_.resize(buckets_ * kSlotsPerBucket);
  occupied_.resize((slots_.size() + 63) / 64);
}

std::size_t SessionTable::bucket_of(std::uint64_t user) const noexcept {
  return static_cast<std::size_t>(util::hash64(seed_ ^ kBucketSeed, user)) &
         mask_;
}

std::size_t SessionTable::alt_bucket(std::size_t bucket,
                                     std::uint64_t user) const noexcept {
  // XOR displacement keeps alt(alt(b)) == b, so a displaced victim's other
  // bucket is computable without knowing which of its two homes it held.
  // A zero displacement would pin alt == bucket and make kicks loop in
  // place, so it is bumped to 1.
  std::size_t d =
      static_cast<std::size_t>(util::hash64(seed_ ^ kAltSeed, user)) & mask_;
  if (d == 0) d = 1;
  return bucket ^ d;
}

std::size_t SessionTable::find_in(std::size_t bucket,
                                  std::uint64_t user) const noexcept {
  const std::size_t base = bucket * kSlotsPerBucket;
  const unsigned live = bucket_bits(bucket);
  for (std::size_t i = 0; i < kSlotsPerBucket; ++i)
    if ((live >> i & 1u) != 0 && slots_[base + i].user == user) return i;
  return kSlotsPerBucket;
}

bool SessionTable::place_if_free(std::size_t bucket, const SessionState& s) {
  const unsigned free = ~bucket_bits(bucket) & 0xfu;
  if (free == 0) return false;
  const std::size_t slot = bucket * kSlotsPerBucket +
                           static_cast<std::size_t>(std::countr_zero(free));
  occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  slots_[slot] = s;
  return true;
}

bool SessionTable::contains(std::uint64_t user) const {
  const std::size_t b1 = bucket_of(user);
  if (find_in(b1, user) < kSlotsPerBucket) return true;
  return find_in(alt_bucket(b1, user), user) < kSlotsPerBucket;
}

void SessionTable::insert(const SessionState& s) {
  const std::size_t b1 = bucket_of(s.user);
  const std::size_t b2 = alt_bucket(b1, s.user);
  if (place_if_free(b1, s) || place_if_free(b2, s)) {
    ++occupancy_;
    return;
  }
  // Both buckets full: displace. The chain is bounded at max_kicks_; if it
  // runs out, the session left in hand departs (a forced eviction) rather
  // than the insert retrying unboundedly — per-insert work is O(max_kicks)
  // worst case.
  SessionState carry = s;
  std::size_t bucket = kick_rng_.bernoulli(0.5) ? b1 : b2;
  for (std::size_t kick = 0; kick < max_kicks_; ++kick) {
    const std::size_t slot =
        bucket * kSlotsPerBucket +
        static_cast<std::size_t>(kick_rng_.below(kSlotsPerBucket));
    std::swap(carry, slots_[slot]);
    ++stats_.kicks;
    if (kick + 1 > max_kick_chain_) max_kick_chain_ = kick + 1;
    bucket = alt_bucket(bucket, carry.user);
    if (place_if_free(bucket, carry)) {
      ++occupancy_;
      return;
    }
  }
  // carry departs; the incoming session is already placed somewhere along
  // the chain, so occupancy is unchanged (+1 arrival, -1 eviction).
  ++stats_.forced_evictions;
  ++stats_.departures;
}

SessionState SessionTable::touch(std::uint64_t user) {
  ++stats_.lookups;
  const std::size_t b1 = bucket_of(user);
  std::size_t bucket = b1;
  std::size_t slot = find_in(b1, user);
  if (slot == kSlotsPerBucket) {
    bucket = alt_bucket(b1, user);
    slot = find_in(bucket, user);
  }
  if (slot < kSlotsPerBucket) {
    SessionState& st = slots_[bucket * kSlotsPerBucket + slot];
    ++st.sequence;
    ++stats_.hits;
    return st;
  }
  const SessionState fresh{user, 1};
  ++stats_.arrivals;
  insert(fresh);
  return fresh;
}

bool SessionTable::evict_random(util::Xoshiro256& rng) {
  if (occupancy_ == 0) return false;
  // Rejection-sample an occupied slot; expected attempts = 1/load_factor,
  // and churn only runs on tables held near steady-state occupancy.
  for (;;) {
    const std::size_t idx =
        static_cast<std::size_t>(rng.below(slots_.size()));
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if ((occupied_[idx / 64] & bit) == 0) continue;
    occupied_[idx / 64] &= ~bit;
    --occupancy_;
    ++stats_.departures;
    return true;
  }
}

}  // namespace imars::serve
