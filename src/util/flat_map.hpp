// Open-addressing hash containers for the serving hot path.
//
// The hot-embedding cache keeps two point-lookup structures keyed by
// packed 64-bit ids: the warm tier's block map and the set of dirty
// resident rows (its access history is direct-indexed by row). With
// node-based std::unordered_map each new key would be one malloc and each
// erase a free — per-event heap traffic in the simulator's innermost
// loop. FlatMap64 is a linear-probing open table (u64 -> u64,
// splitmix64-finalized hash, backward-shift deletion, no tombstones) with
// identical observable semantics: point queries only, no iteration order
// is ever exposed, so swapping it in cannot change any simulated figure.
// Any insert may rehash and any erase may shift entries, so a pointer
// returned by find() or operator[] is valid only until the next insert or
// erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace imars::util {

/// Linear-probing open-addressing map from 64-bit keys to 64-bit values.
/// Point operations only (find / insert / erase / clear); deliberately no
/// iteration, so behavior can never depend on hash order.
class FlatMap64 {
 public:
  FlatMap64() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  void clear() {
    state_.assign(state_.size(), 0);
    size_ = 0;
  }

  /// Pointer to the value of `key`, or nullptr when absent.
  std::uint64_t* find(std::uint64_t key) noexcept {
    if (size_ == 0) return nullptr;
    std::size_t i = slot_of(key);
    while (state_[i] != 0) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const std::uint64_t* find(std::uint64_t key) const noexcept {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  bool contains(std::uint64_t key) const noexcept {
    return find(key) != nullptr;
  }

  /// The value slot of `key`, inserted as 0 when absent (the idiom behind
  /// `++freq[key]`).
  std::uint64_t& operator[](std::uint64_t key) {
    reserve_one();
    std::size_t i = slot_of(key);
    while (state_[i] != 0) {
      if (keys_[i] == key) return vals_[i];
      i = (i + 1) & mask_;
    }
    state_[i] = 1;
    keys_[i] = key;
    vals_[i] = 0;
    ++size_;
    return vals_[i];
  }

  /// Sets `key` to `value` (inserting or overwriting).
  void set(std::uint64_t key, std::uint64_t value) {
    (*this)[key] = value;
  }

  /// Removes `key`; returns false when absent. Backward-shift deletion
  /// keeps probe chains compact with no tombstones, so lookup cost stays
  /// bounded under the admission churn of a full cache.
  bool erase(std::uint64_t key) noexcept {
    if (size_ == 0) return false;
    std::size_t i = slot_of(key);
    while (true) {
      if (state_[i] == 0) return false;
      if (keys_[i] == key) break;
      i = (i + 1) & mask_;
    }
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (state_[j] == 0) break;
      // Shift j back into i only if i still lies on j's probe path.
      const std::size_t ideal = slot_of(keys_[j]);
      if (((j - ideal) & mask_) >= ((j - i) & mask_)) {
        keys_[i] = keys_[j];
        vals_[i] = vals_[j];
        i = j;
      }
    }
    state_[i] = 0;
    --size_;
    return true;
  }

 private:
  static std::uint64_t hash(std::uint64_t x) noexcept {
    // splitmix64 finalizer: full-avalanche over the packed (table, row) key.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(hash(key)) & mask_;
  }

  /// Guarantees room for one more entry at load factor <= 3/4.
  void reserve_one() {
    if (state_.empty()) {
      rehash(64);
    } else if ((size_ + 1) * 4 > state_.size() * 3) {
      rehash(state_.size() * 2);
    }
  }

  void rehash(std::size_t cap) {  // cap is a power of two
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint64_t> old_vals = std::move(vals_);
    std::vector<std::uint8_t> old_state = std::move(state_);
    keys_.assign(cap, 0);
    vals_.assign(cap, 0);
    state_.assign(cap, 0);
    mask_ = cap - 1;
    for (std::size_t s = 0; s < old_state.size(); ++s) {
      if (old_state[s] == 0) continue;
      std::size_t i = slot_of(old_keys[s]);
      while (state_[i] != 0) i = (i + 1) & mask_;
      state_[i] = 1;
      keys_[i] = old_keys[s];
      vals_[i] = old_vals[s];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> vals_;
  std::vector<std::uint8_t> state_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// FlatMap64 with the value ignored: the resident-dirty set.
class FlatSet64 {
 public:
  std::size_t size() const noexcept { return map_.size(); }
  bool empty() const noexcept { return map_.empty(); }
  void clear() { map_.clear(); }
  bool contains(std::uint64_t key) const noexcept {
    return map_.contains(key);
  }
  void insert(std::uint64_t key) { map_[key] = 1; }
  bool erase(std::uint64_t key) noexcept { return map_.erase(key); }

 private:
  FlatMap64 map_;
};

}  // namespace imars::util
