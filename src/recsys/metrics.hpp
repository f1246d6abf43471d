// Accuracy metrics for the Sec IV-B experiment.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace imars::recsys {

/// Hit rate (paper Sec IV-B: "# of hits divided by # of test users"):
/// for each test user, `retrieve` returns candidate item ids; a hit is the
/// user's held-out item appearing among them.
double hit_rate(
    std::size_t num_users,
    const std::function<std::vector<std::size_t>(std::size_t user)>& retrieve,
    const std::function<std::size_t(std::size_t user)>& heldout);

}  // namespace imars::recsys
