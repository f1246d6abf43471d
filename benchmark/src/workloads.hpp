// The benchmark's four serving workloads.
//
// A workload owns everything one process needs to serve its request
// stream: the synthetic dataset and trained model (fixed seeds), the shard
// fabric behind a ServingRuntime, the serial oracle its outputs are checked
// against, and the paper audit of its model family. Only the request
// stream depends on the run's --seed; every other seed is a constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/runtime.hpp"

namespace imars::bench {

/// Serial iMARS against the calibrated GPU model on the audited queries
/// (the paper's Sec. IV-C3 comparison), summed over those queries. A
/// workload without a paper reference leaves `paper_latency_x` at 0.
struct PaperAudit {
  std::size_t queries = 0;
  double imars_us = 0.0;
  double imars_uj = 0.0;
  double gpu_us = 0.0;
  double gpu_uj = 0.0;
  double paper_latency_x = 0.0;
  double paper_energy_x = 0.0;
};

struct WorkloadSpec {
  std::string name;
  /// Offered open-loop rate (requests per simulated second) at which
  /// latency, energy and host throughput are measured.
  double nominal_qps = 0.0;
  std::size_t nominal_streams = 0;  ///< independent streams pooled
  std::size_t queries = 0;          ///< requests per nominal pass
  /// Offered rates of the SLO ladder, ascending, straddling saturation.
  std::vector<double> ladder_qps;
  std::size_t ladder_queries = 0;  ///< requests per ladder rung
  std::size_t warmup_queries = 0;  ///< untimed warm-up pass in set-up
  double slo_us = 0.0;             ///< p99 limit of the SLO class
  /// Class whose latencies the SLO applies to; nullopt = every query.
  std::optional<std::size_t> slo_class;
};

/// Result of checking a pass against the serial oracle.
struct AuditResult {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  PaperAudit paper;
};

class Workload {
 public:
  /// Every served query whose id is a multiple of this is audited.
  static constexpr std::size_t kAuditEvery = 50;

  virtual ~Workload() = default;

  virtual const WorkloadSpec& spec() const = 0;

  /// Builds data, model, fabric and oracle: everything before the first
  /// request.
  virtual void setup() = 0;

  /// The request stream of one pass: `requests` arrivals (updates
  /// included) at `rate`. Only `seed` differs between runs of the
  /// benchmark.
  virtual serve::LoadGenConfig load(double rate, std::uint64_t seed,
                                    std::size_t requests) const = 0;

  /// The runtime built by setup(). Its servable's population is bound, so
  /// ServingRuntime::run(gen) serves a stream directly.
  virtual serve::ServingRuntime& runtime() = 0;

  /// A runtime with the workload's configuration serving `servable` (the
  /// traced run wraps runtime().servable() in a decorator), optionally
  /// self-profiling its host path.
  virtual std::unique_ptr<serve::ServingRuntime> runtime_over(
      std::unique_ptr<serve::ServableBackend> servable,
      bool self_profile) const = 0;

  /// Checks every kAuditEvery-th served query against the serial oracle
  /// and costs the same queries on serial iMARS and the GPU model.
  virtual AuditResult audit(const serve::ServeReport& report) = 0;
};

std::unique_ptr<Workload> make_workload(std::string_view name);
const std::vector<std::string>& workload_names();

}  // namespace imars::bench
