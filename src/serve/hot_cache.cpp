#include "serve/hot_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace imars::serve {

HotEmbeddingCache::HotEmbeddingCache(const HotCacheConfig& cfg)
    : cfg_(cfg), tier_on_(cfg.tiering_enabled()) {
  if (tier_on_)
    warm_capacity_blocks_ = cfg_.warm_capacity_rows / cfg_.cold_block_rows;
}

std::uint32_t& HotEmbeddingCache::history(std::uint64_t key) {
  const auto table = static_cast<std::uint32_t>(key >> 32);
  const auto row = static_cast<std::uint32_t>(key);
  // A servable's accesses stay in one table or walk its tables in a fixed
  // order (a DLRM sample reads tables 0..25 in turn), so the scan over the
  // few touched tables starts at the last one seen and wraps around.
  const std::size_t n = table_ids_.size();
  std::size_t i = last_table_;
  std::size_t left = n;
  for (; left > 0 && table_ids_[i] != table; --left) i = i + 1 == n ? 0 : i + 1;
  if (left == 0) {  // first touch of `table`
    i = n;
    table_ids_.push_back(table);
    tables_.emplace_back();
  }
  last_table_ = i;
  TableIndex& index = tables_[i];
  const std::size_t s = row >> kSpanShift;
  if (s >= index.size()) index.resize(s + 1);
  std::unique_ptr<Span>& span = index[s];
  if (!span) span = std::make_unique<Span>();
  const std::size_t p = (row >> kPageShift) & (kSpanPages - 1);
  if (p >= span->size()) {
    // Power-of-two capacities: geometric growth that stops at kSpanPages.
    span->reserve(std::bit_ceil(p + 1));
    span->resize(p + 1);
  }
  Page& page = (*span)[p];
  if (!page) page = std::make_unique<std::uint32_t[]>(kPageRows);
  return page[row & (kPageRows - 1)];
}

const std::uint32_t* HotEmbeddingCache::find_history(
    std::uint64_t key) const noexcept {
  const auto it = std::find(table_ids_.begin(), table_ids_.end(),
                            static_cast<std::uint32_t>(key >> 32));
  if (it == table_ids_.end()) return nullptr;
  const TableIndex& index = tables_[it - table_ids_.begin()];
  const auto row = static_cast<std::uint32_t>(key);
  const std::size_t s = row >> kSpanShift;
  if (s >= index.size() || !index[s]) return nullptr;
  const Span& span = *index[s];
  const std::size_t p = (row >> kPageShift) & (kSpanPages - 1);
  if (p >= span.size() || !span[p]) return nullptr;
  return &span[p][row & (kPageRows - 1)];
}

std::size_t HotEmbeddingCache::history_bytes() const noexcept {
  std::size_t bytes = table_ids_.capacity() * sizeof(std::uint32_t) +
                      tables_.capacity() * sizeof(TableIndex);
  for (const TableIndex& index : tables_) {
    bytes += index.capacity() * sizeof(index[0]);
    for (const auto& span : index) {
      if (!span) continue;
      bytes += sizeof(Span) + span->capacity() * sizeof(Page);
      for (const Page& page : *span)
        if (page) bytes += kPageRows * sizeof(std::uint32_t);
    }
  }
  return bytes;
}

// --- tiered embedding memory -----------------------------------------------

bool HotEmbeddingCache::warm_resident(std::uint32_t table,
                                      std::uint32_t row) const {
  if (!tier_on_) return false;
  return warm_.find(block_of(key_of(table, row))) != nullptr;
}

Tier HotEmbeddingCache::dest_tier(std::uint64_t key) const {
  if (!tier_on_) return Tier::kArray;
  return warm_.find(block_of(key)) != nullptr ? Tier::kWarm : Tier::kCold;
}

void HotEmbeddingCache::touch_tiers(std::uint64_t key, std::uint64_t freq) {
  const std::uint64_t bkey = block_of(key);
  if (std::uint64_t* b = warm_.find(bkey); b != nullptr) {
    // Warm hit: served from the CMA banks at the usual miss cost. Fresh
    // heat revokes any demotion reprieve the block was living on.
    ++stats_.warm_hits;
    const std::uint64_t heat = std::max(*b & kHeatMask, freq);
    *b = (*b & kPinBit) | heat;
    return;
  }
  // Cold block fault: the whole block streams in (charged by the caller
  // via take_block_faults()). Migration admits it warm immediately;
  // capacity demotions wait for the next batch-dispatch commit.
  ++stats_.cold_faults;
  stats_.cold_rows_fetched += cfg_.cold_block_rows;
  ++pending_block_faults_;
  if (cfg_.migrate) {
    ++faults_since_commit_;
    warm_[bkey] = freq;
    warm_fifo_.push_back(bkey);
  }
}

void HotEmbeddingCache::commit_migrations(device::Ns at) {
  if (!tier_on_) return;
  std::uint64_t demoted = 0;
  while (pinned_blocks_ + warm_fifo_.size() > warm_capacity_blocks_ &&
         !warm_fifo_.empty()) {
    const std::uint64_t bkey = warm_fifo_.front();
    warm_fifo_.pop_front();
    std::uint64_t* b = warm_.find(bkey);
    assert(b != nullptr && "warm FIFO entry without a warm slot");
    // One reprieve for a block still hotter than the settled-min LFU
    // bound of the hot tier: within a single commit each block is seen at
    // most twice (reprieve, then demote), so the walk terminates.
    if ((*b & kChanceBit) == 0 && (*b & kHeatMask) > tier_bound_) {
      *b |= kChanceBit;
      warm_fifo_.push_back(bkey);
      continue;
    }
    warm_.erase(bkey);
    ++demoted;
  }
  stats_.warm_evictions += demoted;
  const std::uint64_t promoted = faults_since_commit_;
  faults_since_commit_ = 0;
  if ((promoted != 0 || demoted != 0) && sink_ != nullptr)
    sink_->on_cache_migrate(at, promoted, demoted);
}

void HotEmbeddingCache::pin_warm(std::span<const std::uint64_t> keys) {
  if (!tier_on_) return;
  for (const std::uint64_t key : keys) {
    const std::uint64_t bkey = block_of(key);
    std::uint64_t* b = warm_.find(bkey);
    if (b != nullptr) {
      if ((*b & kPinBit) != 0) continue;  // block already pinned
      // Already warm via migration: promote to pinned and drop the FIFO
      // entry so a commit can never demote it.
      *b |= kPinBit;
      warm_fifo_.erase(std::find(warm_fifo_.begin(), warm_fifo_.end(), bkey));
    } else {
      warm_[bkey] = kPinBit;
    }
    ++pinned_blocks_;
  }
}

std::uint64_t HotEmbeddingCache::take_block_faults() {
  const std::uint64_t n = pending_block_faults_;
  pending_block_faults_ = 0;
  return n;
}

HotEmbeddingCache::TierFlush HotEmbeddingCache::take_flushed_tiers() {
  const TierFlush f{pending_flushes_, pending_flush_warm_,
                    pending_flush_cold_};
  pending_flushes_ = pending_flush_warm_ = pending_flush_cold_ = 0;
  return f;
}

bool HotEmbeddingCache::contains(std::uint32_t table, std::uint32_t row) const {
  const std::uint32_t* slot = find_history(key_of(table, row));
  return slot != nullptr && (*slot & kResidentBit) != 0;
}

bool HotEmbeddingCache::dirty(std::uint32_t table, std::uint32_t row) const {
  return dirty_.contains(key_of(table, row));
}

bool HotEmbeddingCache::settle_heap() {
  while (!heap_.empty()) {
    const auto [freq, key] = heap_.top();
    const std::uint32_t* slot = find_history(key);
    if (slot == nullptr || (*slot & kResidentBit) == 0) {
      heap_.pop();  // evicted row, stale entry
      continue;
    }
    const std::uint64_t fresh = *slot & kFreqMask;
    if (fresh != freq) {
      heap_.pop();  // frequency advanced since this entry was pushed
      heap_.emplace(fresh, key);
      continue;
    }
    return true;
  }
  return false;
}

void HotEmbeddingCache::evict(std::uint64_t key) {
  // The frequency history outlives residency, so eviction is a bit clear
  // on the existing slot.
  history(key) &= ~kResidentBit;
  --resident_count_;
  // A dirty row leaves the buffer through its deferred array write: the
  // eviction flushes it, landing in the row's owning tier. Read-only
  // streams keep dirty_ empty, so this branch never perturbs their
  // accounting.
  const bool was_dirty = !dirty_.empty() && dirty_.erase(key);
  const Tier dest = dest_tier(key);
  if (was_dirty) {
    ++stats_.flushes;
    ++pending_flushes_;
    if (tier_on_) {
      if (dest == Tier::kWarm) {
        ++stats_.flushes_warm;
        ++pending_flush_warm_;
      } else {
        ++stats_.flushes_cold;
        ++pending_flush_cold_;
      }
    }
  }
  if (sink_ != nullptr)
    sink_->on_cache_evict(static_cast<std::uint32_t>(key >> 32),
                          static_cast<std::uint32_t>(key), was_dirty, dest);
}

bool HotEmbeddingCache::access(std::uint32_t table, std::uint32_t row) {
  const std::uint64_t key = key_of(table, row);
  // One slot read bumps the lifetime frequency and reads residency
  // together. History slots never move, so `slot` stays valid across the
  // admission bookkeeping below.
  std::uint32_t& slot = history(key);
  slot = bump(slot);
  const std::uint64_t freq = slot & kFreqMask;
  const bool resident = (slot & kResidentBit) != 0;

  if (resident) {
    ++stats_.hits;  // heap entry refreshed lazily in settle_heap()
    return true;
  }

  ++stats_.misses;
  if (tier_on_) touch_tiers(key, freq);
  if (resident_count_ < cfg_.capacity_rows) {
    slot |= kResidentBit;
    ++resident_count_;
    if (tier_on_) ++stats_.promotions;
    heap_.emplace(freq, key);
    return false;
  }

  // Frequency-based admission: replace the coldest resident row only if the
  // missed row is now strictly hotter. The admitted row enters clean; if it
  // was flushed out dirty moments ago, the deferred write already happened
  // and must not resurrect.
  //
  // Frequencies only ever increase and an admission replaces the minimum
  // with something strictly hotter, so the coldest resident frequency is
  // non-decreasing over the run: the last settled minimum is a permanent
  // lower bound. A miss at freq <= bound can never admit — skip the heap
  // settle outright (on Zipf traffic that is almost every cold miss, and
  // it is what keeps the O(log capacity) heap off the per-access path).
  if (freq > settled_min_ && settle_heap()) {
    const auto [min_freq, min_key] = heap_.top();
    settled_min_ = min_freq;
    if (freq > min_freq) {
      heap_.pop();
      evict(min_key);
      slot |= kResidentBit;
      ++resident_count_;
      tier_bound_ = min_freq;  // settled-min LFU bound for tier demotion
      if (tier_on_) ++stats_.promotions;
      heap_.emplace(freq, key);
    }
  }
  return false;
}

bool HotEmbeddingCache::update(std::uint32_t table, std::uint32_t row) {
  const std::uint64_t key = key_of(table, row);
  std::uint32_t& slot = history(key);
  slot = bump(slot);  // updates count toward LFU admission
  const bool resident = (slot & kResidentBit) != 0;

  if (resident) {
    dirty_.insert(key);  // heap refreshed lazily in settle_heap()
    ++stats_.update_hits;
    if (sink_ != nullptr) sink_->on_cache_update(/*absorbed=*/true);
    return true;
  }
  // No write-allocate: the array takes the write directly, so an update
  // flood can never displace the read-hot set.
  ++stats_.update_misses;
  if (sink_ != nullptr) sink_->on_cache_update(/*absorbed=*/false);
  return false;
}

}  // namespace imars::serve
