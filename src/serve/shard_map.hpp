// Capability-weighted work placement across accelerator shards.
//
// A ShardMap is a bucket ring: `buckets()` slots, each owned by one shard,
// apportioned to shards proportionally to capability weights
// (largest-remainder rounding) and interleaved by smooth weighted
// round-robin, so every window of the ring is close to proportional to the
// weights. A shard with twice the measured rank-stage throughput owns twice
// the buckets; a zero-weight shard owns none.
//
// The ring places work two ways:
//   * `shard_of(key)` folds one key onto its bucket (`key % buckets`) —
//     the home of a request or an embedding update, by id;
//   * `partition_into(keys)` deals a query's work-item list along the ring,
//     one bucket per key from the first key's bucket, so each shard gets
//     about n * share(s) of the query's n items however the keys hash. A
//     one-key list lands on `shard_of(key)`.
// Nothing ties an item to a shard: factory-built replicas share one
// programmed table image and the hot cache and tiers are global, so the
// deal changes where work runs and how long the slowest slice takes, never
// which keys are served or what they score.
//
// The uniform map uses exactly `shards` buckets, so `shard_of(key)` is
// `key % shards` and a deal is plain round-robin.
//
// PlacementPolicy::top_keys orders a key-frequency profile hottest-first;
// the tiered cache's static warm pins (PlacementConfig::warm_rows) are
// resolved through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "device/units.hpp"
#include "util/error.hpp"

namespace imars::serve {

class ShardMap {
 public:
  /// Empty map (no shards); placeholder until a real map is assigned.
  ShardMap() = default;

  /// Largest bucket ring a map may hold. The ring stores one 32-bit shard
  /// id per bucket and `weighted()` builds it in O(buckets * shards), so a
  /// larger ring costs memory and set-up time for no placement gain (the
  /// default 64 buckets per shard already apportions weights to 1/64 of a
  /// shard's share); the cap also keeps every shard id within 32 bits.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  /// Uniform placement over `shards` shards: one bucket per shard, so
  /// `shard_of(key) == key % shards` exactly. At most kMaxBuckets shards.
  static ShardMap uniform(std::size_t shards);

  /// Capability-weighted placement: `granularity * shards` buckets are
  /// apportioned by largest remainder. Weights must be finite and
  /// non-negative with a positive, finite sum; a zero-weight shard owns no
  /// buckets. A bucket count above kMaxBuckets (or one that overflows) is
  /// rejected.
  static ShardMap weighted(std::span<const double> weights,
                           std::size_t granularity = 64);

  /// Weights derived from measured per-item stage cost: capability is the
  /// reciprocal of cost, so faster shards own proportionally more keys.
  /// Non-positive costs (e.g. the zero-cost CPU oracle) fall back to the
  /// uniform weight; a non-finite cost, or one so small that its
  /// reciprocal overflows, is rejected, as is a `granularity` that
  /// `weighted()` would reject — also when every cost falls back.
  static ShardMap from_costs(std::span<const device::Ns> per_item_cost,
                             std::size_t granularity = 64);

  bool empty() const noexcept { return table_.empty(); }
  std::size_t shards() const noexcept { return share_.size(); }
  std::size_t buckets() const noexcept { return table_.size(); }

  /// The shard owning key `key`'s bucket (`key % buckets()`): the home of
  /// a request or an update, by id. A zero-weight shard owns no key.
  std::size_t shard_of(std::size_t key) const {
    IMARS_REQUIRE(!table_.empty(), "ShardMap::shard_of: empty map");
    return table_[key % table_.size()];
  }

  /// Fraction of the bucket ring shard `s` owns (normalized weight).
  double share(std::size_t s) const;

  /// Deals `keys` into per-shard slices along the bucket ring: key i goes
  /// to the owner of bucket (keys[0] % buckets() + i) % buckets(). So the
  /// slices are a disjoint cover of `keys`, each keeps input order, shard
  /// s gets n * share(s) keys to within shards() (the ring's smooth
  /// interleave bounds every window's deviation below that), a zero-weight
  /// shard gets none, and a one-key list lands on `shard_of(key)`.
  /// `slices` is resized to the shard count and each slice cleared
  /// (capacity kept) and refilled, so a hot scheduling loop reuses its
  /// slice buffers instead of allocating a vector-of-vectors per (query,
  /// stage).
  void partition_into(std::span<const std::size_t> keys,
                      std::vector<std::vector<std::size_t>>& slices) const;

 private:
  std::vector<std::uint32_t> table_;  ///< bucket -> shard
  std::vector<double> share_;         ///< per-shard fraction of buckets
};

/// One entry of a key-frequency profile (warmup window or offline
/// histogram), ordered hottest-first by the policy.
struct HotKey {
  std::size_t key = 0;
  std::uint64_t freq = 0;
};

/// Orders key-frequency profiles for static pinning.
class PlacementPolicy {
 public:
  /// The `max_pins` hottest keys of `counts`, hottest first (frequency
  /// descending, key ascending on ties — deterministic regardless of the
  /// map's iteration order).
  static std::vector<HotKey> top_keys(
      const std::unordered_map<std::size_t, std::uint64_t>& counts,
      std::size_t max_pins);

  /// Same ordering/truncation contract over an unsorted profile (e.g. an
  /// offline histogram); zero-frequency entries are dropped.
  static std::vector<HotKey> top_keys(std::vector<HotKey> profile,
                                      std::size_t max_pins);
};

}  // namespace imars::serve
