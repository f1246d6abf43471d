#include "lsh/lsh.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars::lsh {

RandomHyperplaneLsh::RandomHyperplaneLsh(std::size_t dim, std::size_t bits,
                                         std::uint64_t seed) {
  IMARS_REQUIRE(dim > 0 && bits > 0, "LSH: dim and bits must be positive");
  util::Xoshiro256 rng(seed);
  planes_ = tensor::Matrix::randn(bits, dim, 1.0f, rng);
}

util::BitVec RandomHyperplaneLsh::encode(std::span<const float> x) const {
  IMARS_REQUIRE(x.size() == dim(), "LSH::encode: dimension mismatch");
  const tensor::Vector dots = tensor::gemv(planes_, x);
  util::BitVec sig(bits());
  for (std::size_t k = 0; k < bits(); ++k)
    if (dots[k] >= 0.0f) sig.set(k, true);
  return sig;
}

}  // namespace imars::lsh
