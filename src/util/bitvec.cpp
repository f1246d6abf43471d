#include "util/bitvec.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace imars::util {

namespace {
constexpr std::size_t kWordBits = 64;
constexpr std::size_t word_count(std::size_t nbits) {
  return (nbits + kWordBits - 1) / kWordBits;
}

constexpr std::uint64_t low_mask(std::size_t n) {
  return n >= kWordBits ? ~0ULL : (1ULL << n) - 1;
}

// Bits [pos, pos+n) of `w` as the low n bits of a word, 0 < n <= 64. The
// field may straddle one word boundary; the caller guarantees it is in range.
std::uint64_t load_bits(const std::uint64_t* w, std::size_t pos,
                        std::size_t n) {
  const std::size_t off = pos % kWordBits;
  std::uint64_t v = w[pos / kWordBits] >> off;
  if (off + n > kWordBits) v |= w[pos / kWordBits + 1] << (kWordBits - off);
  return v & low_mask(n);
}

// Writes the low n bits of `v` into bits [pos, pos+n) of `w`, 0 < n <= 64.
void store_bits(std::uint64_t* w, std::size_t pos, std::size_t n,
                std::uint64_t v) {
  const std::size_t off = pos % kWordBits;
  const std::uint64_t mask = low_mask(n);
  v &= mask;
  std::uint64_t& lo = w[pos / kWordBits];
  lo = (lo & ~(mask << off)) | (v << off);
  if (off + n > kWordBits) {
    std::uint64_t& hi = w[pos / kWordBits + 1];
    hi = (hi & ~(mask >> (kWordBits - off))) | (v >> (kWordBits - off));
  }
}
}  // namespace

BitVec::BitVec(std::size_t nbits) : words_(word_count(nbits), 0), nbits_(nbits) {}

BitVec BitVec::from_string(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    IMARS_REQUIRE(bits[i] == '0' || bits[i] == '1', "bit string must be 0/1");
    if (bits[i] == '1') v.set(i, true);
  }
  return v;
}

BitVec BitVec::from_words(std::span<const std::uint64_t> words,
                          std::size_t nbits) {
  IMARS_REQUIRE(words.size() >= word_count(nbits),
                "not enough words for requested bit count");
  BitVec v(nbits);
  for (std::size_t w = 0; w < v.words_.size(); ++w) v.words_[w] = words[w];
  v.clear_tail();
  return v;
}

void BitVec::check_index(std::size_t i) const {
  IMARS_REQUIRE(i < nbits_, "bit index " + std::to_string(i) +
                                " out of range (size " +
                                std::to_string(nbits_) + ")");
}

void BitVec::clear_tail() noexcept {
  const std::size_t tail = nbits_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (~0ULL >> (kWordBits - tail));
  }
}

bool BitVec::get(std::size_t i) const {
  check_index(i);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVec::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value)
    words_[i / kWordBits] |= mask;
  else
    words_[i / kWordBits] &= ~mask;
}

void BitVec::flip(std::size_t i) {
  check_index(i);
  words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

void BitVec::fill(bool value) {
  for (auto& w : words_) w = value ? ~0ULL : 0ULL;
  clear_tail();
}

std::size_t BitVec::popcount() const noexcept {
  std::size_t total = 0;
  for (auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitVec::hamming(const BitVec& other) const {
  IMARS_REQUIRE(nbits_ == other.nbits_, "hamming: size mismatch");
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w] ^ other.words_[w]));
  }
  return total;
}

void BitVec::copy_from(const BitVec& src, std::size_t src_begin,
                       std::size_t len, std::size_t dst_begin) {
  IMARS_REQUIRE(src_begin + len <= src.nbits_, "copy_from: source range");
  IMARS_REQUIRE(dst_begin + len <= nbits_, "copy_from: destination range");
  if (&src == this) {  // overlapping self-copy: read from a snapshot
    const BitVec snapshot = src;
    copy_from(snapshot, src_begin, len, dst_begin);
    return;
  }
  for (std::size_t i = 0; i < len; i += kWordBits) {
    const std::size_t n = std::min(kWordBits, len - i);
    store_bits(words_.data(), dst_begin + i, n,
               load_bits(src.words_.data(), src_begin + i, n));
  }
}

std::uint8_t BitVec::byte_at(std::size_t begin) const {
  IMARS_REQUIRE(begin + 8 <= nbits_, "byte_at: range out of bounds");
  return static_cast<std::uint8_t>(load_bits(words_.data(), begin, 8));
}

}  // namespace imars::util
