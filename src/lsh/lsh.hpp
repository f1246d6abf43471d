// Random-hyperplane locality-sensitive hashing (Sec III-B).
//
// iMARS replaces the filtering stage's cosine NNS with a Hamming-distance
// search over LSH signatures so that the TCAM threshold-match mode can
// evaluate all rows in O(1) array time. The paper uses 256-bit signatures
// ("a 256 LSH signature length which requires 2 CMAs to store a single
// entry"). Random-hyperplane LSH (Charikar 2002) has the property
//     P[bit_k(a) != bit_k(b)] = angle(a, b) / pi,
// so Hamming distance is an unbiased estimator of the angular distance and
// preserves cosine-similarity ordering in expectation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"
#include "util/bitvec.hpp"

namespace imars::lsh {

/// Seed of the hyperplanes the hardware's stored signatures, the CPU LSH
/// variant and the funnel's narrowing filter all draw: one set of planes
/// keeps their filters in parity.
inline constexpr std::uint64_t kLshSeed = 2022;

/// A fixed set of random hyperplanes mapping R^dim -> {0,1}^bits.
class RandomHyperplaneLsh {
 public:
  /// Draws `bits` hyperplanes of dimension `dim` from N(0,1), seeded.
  RandomHyperplaneLsh(std::size_t dim, std::size_t bits, std::uint64_t seed);

  std::size_t dim() const noexcept { return planes_.cols(); }
  std::size_t bits() const noexcept { return planes_.rows(); }

  /// Signature bit k = [planes[k] . x >= 0].
  util::BitVec encode(std::span<const float> x) const;

 private:
  tensor::Matrix planes_;  // bits x dim
};

}  // namespace imars::lsh
