// Capability-weighted item placement across accelerator shards.
//
// PR 1 placed items with a hard-coded `item % N`, which assumes every shard
// ranks at the same speed. Mixed-technology fabrics (e.g. FeFET-45 next to
// ReRAM-45 or FeFET-22 replicas) violate that: a slow shard on the critical
// path drags the whole batch. A ShardMap generalizes the placement to any
// disjoint cover of the key space: the key space is folded onto a fixed
// bucket ring (`key % buckets`) and buckets are apportioned to shards
// proportionally to capability weights (largest-remainder rounding), so a
// shard with twice the measured rank-stage throughput owns twice the items.
// Zero-weight shards own no buckets and legitimately receive empty slices.
// Any map is a disjoint cover, so placement changes where work runs, never
// which keys are served.
//
// The uniform map uses exactly `shards` buckets, making `shard_of(key)`
// bit-identical to the old `key % N` — the refactor cannot perturb PR 1's
// timing with identical shards.
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

  /// Uniform placement over `shards` shards: one bucket per shard, so
  /// `shard_of(key) == key % shards` exactly.
  static ShardMap uniform(std::size_t shards);

  /// Capability-weighted placement: `granularity * shards` buckets are
  /// apportioned by largest remainder. Weights must be finite and
  /// non-negative with a positive, finite sum; a zero-weight shard owns no
  /// buckets.
  static ShardMap weighted(std::span<const double> weights,
                           std::size_t granularity = 64);

  /// Weights derived from measured per-item stage cost: capability is the
  /// reciprocal of cost, so faster shards own proportionally more keys.
  /// Non-positive costs (e.g. the zero-cost CPU oracle) fall back to the
  /// uniform weight; a non-finite cost, or one so small that its
  /// reciprocal overflows, is rejected.
  static ShardMap from_costs(std::span<const device::Ns> per_item_cost,
                             std::size_t granularity = 64);

  bool empty() const noexcept { return table_.empty(); }
  std::size_t shards() const noexcept { return share_.size(); }
  std::size_t buckets() const noexcept { return table_.size(); }

  /// The shard owning key `key` (a work item or a request id). Every key
  /// maps to exactly one shard, so the per-shard slices of any key set are
  /// disjoint and cover it.
  std::size_t shard_of(std::size_t key) const {
    IMARS_REQUIRE(!table_.empty(), "ShardMap::shard_of: empty map");
    return table_[key % table_.size()];
  }

  /// Fraction of the bucket ring shard `s` owns (normalized weight).
  double share(std::size_t s) const;

  /// Splits `keys` into per-shard slices, preserving input order within
  /// each slice. Slices are disjoint by construction and their union is
  /// `keys`. `slices` is resized to the shard count and each slice cleared
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
