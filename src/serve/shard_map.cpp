#include "serve/shard_map.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace imars::serve {

namespace {

/// `granularity * shards`, rejected by name when it overflows or exceeds
/// the ring cap (checked by division, so the product is never formed past
/// the cap).
std::size_t ring_buckets(std::size_t shards, std::size_t granularity,
                         const char* who) {
  IMARS_REQUIRE(granularity <= ShardMap::kMaxBuckets / shards,
                std::string(who) + ": granularity " +
                    std::to_string(granularity) + " x " +
                    std::to_string(shards) +
                    " shards exceeds the ring's bucket cap of " +
                    std::to_string(ShardMap::kMaxBuckets));
  return granularity * shards;
}

}  // namespace

ShardMap ShardMap::uniform(std::size_t shards) {
  IMARS_REQUIRE(shards >= 1, "ShardMap::uniform: need at least one shard");
  IMARS_REQUIRE(shards <= kMaxBuckets,
                "ShardMap::uniform: " + std::to_string(shards) +
                    " shards exceed the ring's bucket cap of " +
                    std::to_string(kMaxBuckets));
  ShardMap m;
  m.table_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s)
    m.table_[s] = static_cast<std::uint32_t>(s);
  m.share_.assign(shards, 1.0 / static_cast<double>(shards));
  return m;
}

ShardMap ShardMap::weighted(std::span<const double> weights,
                            std::size_t granularity) {
  IMARS_REQUIRE(!weights.empty(), "ShardMap::weighted: no shards");
  IMARS_REQUIRE(granularity >= 1, "ShardMap::weighted: zero granularity");
  double total = 0.0;
  for (double w : weights) {
    IMARS_REQUIRE(std::isfinite(w), "ShardMap::weighted: non-finite weight");
    IMARS_REQUIRE(w >= 0.0, "ShardMap::weighted: negative weight");
    total += w;
  }
  // An overflowing sum would zero every bucket share below and deal the
  // ring out evenly whatever the weights say.
  IMARS_REQUIRE(std::isfinite(total),
                "ShardMap::weighted: weight sum overflows");
  IMARS_REQUIRE(total > 0.0, "ShardMap::weighted: all weights zero");

  const std::size_t ns = weights.size();
  const std::size_t buckets =
      ring_buckets(ns, granularity, "ShardMap::weighted");
  // Largest-remainder apportionment of `buckets` among the shards.
  std::vector<std::size_t> count(ns, 0);
  std::vector<std::pair<double, std::size_t>> remainder;  // (frac, shard)
  std::size_t assigned = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    const double exact =
        weights[s] / total * static_cast<double>(buckets);
    count[s] = static_cast<std::size_t>(std::floor(exact));
    assigned += count[s];
    remainder.emplace_back(exact - std::floor(exact), s);
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // deterministic tie-break
            });
  for (std::size_t i = 0; assigned < buckets; ++i, ++assigned)
    ++count[remainder[i % ns].second];

  ShardMap m;
  m.table_.reserve(buckets);
  // Interleave bucket ownership (smooth weighted round-robin) rather than
  // laying out contiguous runs: serving keys are often *sequential*
  // (request ids, dense item ranges), and contiguous runs would hand a
  // short sequential burst entirely to the first shard. Interleaving keeps
  // any window of the ring proportional to the weights. With uniform
  // weights this degenerates to [0, 1, ..., N-1] — exactly `key % N`.
  std::vector<double> score(ns, 0.0);
  for (std::size_t b = 0; b < buckets; ++b) {
    std::size_t best = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      score[s] += static_cast<double>(count[s]);
      if (score[s] > score[best]) best = s;
    }
    score[best] -= static_cast<double>(buckets);
    m.table_.push_back(static_cast<std::uint32_t>(best));
  }
  m.share_.resize(ns);
  for (std::size_t s = 0; s < ns; ++s)
    m.share_[s] =
        static_cast<double>(count[s]) / static_cast<double>(buckets);
  return m;
}

ShardMap ShardMap::from_costs(std::span<const device::Ns> per_item_cost,
                              std::size_t granularity) {
  IMARS_REQUIRE(!per_item_cost.empty(), "ShardMap::from_costs: no shards");
  IMARS_REQUIRE(granularity >= 1, "ShardMap::from_costs: zero granularity");
  (void)ring_buckets(per_item_cost.size(), granularity,
                     "ShardMap::from_costs");
  std::vector<double> weights(per_item_cost.size(), 0.0);
  bool any = false;
  for (std::size_t s = 0; s < per_item_cost.size(); ++s) {
    const double cost = per_item_cost[s].value;
    IMARS_REQUIRE(std::isfinite(cost), "ShardMap::from_costs: non-finite cost");
    if (cost > 0.0) {
      weights[s] = 1.0 / cost;
      IMARS_REQUIRE(std::isfinite(weights[s]),
                    "ShardMap::from_costs: cost reciprocal overflows");
      any = true;
    }
  }
  if (!any) return uniform(per_item_cost.size());
  // A shard whose cost could not be measured gets the mean capability
  // rather than zero (it can still serve).
  double sum = 0.0;
  std::size_t measured = 0;
  for (double w : weights)
    if (w > 0.0) {
      sum += w;
      ++measured;
    }
  const double mean = sum / static_cast<double>(measured);
  for (double& w : weights)
    if (w == 0.0) w = mean;
  return weighted(weights, granularity);
}

std::vector<HotKey> PlacementPolicy::top_keys(std::vector<HotKey> profile,
                                              std::size_t max_pins) {
  std::erase_if(profile, [](const HotKey& k) { return k.freq == 0; });
  std::sort(profile.begin(), profile.end(),
            [](const HotKey& a, const HotKey& b) {
              if (a.freq != b.freq) return a.freq > b.freq;
              return a.key < b.key;  // deterministic tie-break
            });
  if (profile.size() > max_pins) profile.resize(max_pins);
  return profile;
}

std::vector<HotKey> PlacementPolicy::top_keys(
    const std::unordered_map<std::size_t, std::uint64_t>& counts,
    std::size_t max_pins) {
  std::vector<HotKey> keys;
  keys.reserve(counts.size());
  for (const auto& [key, freq] : counts) keys.push_back({key, freq});
  return top_keys(std::move(keys), max_pins);
}

double ShardMap::share(std::size_t s) const {
  IMARS_REQUIRE(s < share_.size(), "ShardMap::share: shard out of range");
  return share_[s];
}

void ShardMap::partition_into(
    std::span<const std::size_t> keys,
    std::vector<std::vector<std::size_t>>& slices) const {
  IMARS_REQUIRE(!table_.empty(), "ShardMap::partition_into: empty map");
  slices.resize(shards());
  for (auto& slice : slices) slice.clear();
  if (keys.empty()) return;
  // Deal one bucket per key, from the first key's bucket. The wrapping
  // index needs no division per key, and the ring's interleave keeps every
  // shard's slice within shards() of its share however the keys hash.
  std::size_t bucket = keys.front() % table_.size();
  for (std::size_t key : keys) {
    slices[table_[bucket]].push_back(key);
    if (++bucket == table_.size()) bucket = 0;
  }
}

}  // namespace imars::serve
