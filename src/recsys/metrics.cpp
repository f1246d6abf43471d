#include "recsys/metrics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace imars::recsys {

double hit_rate(
    std::size_t num_users,
    const std::function<std::vector<std::size_t>(std::size_t user)>& retrieve,
    const std::function<std::size_t(std::size_t user)>& heldout) {
  IMARS_REQUIRE(num_users > 0, "hit_rate: need at least one user");
  std::size_t hits = 0;
  for (std::size_t u = 0; u < num_users; ++u) {
    const auto items = retrieve(u);
    const std::size_t target = heldout(u);
    if (std::find(items.begin(), items.end(), target) != items.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(num_users);
}

}  // namespace imars::recsys
