// Backend factories: stamp out one backend replica per accelerator shard.
//
// The serving runtime (src/serve/) spins up N independent accelerator
// instances over the same trained model. A factory captures everything
// needed to build one replica so the serving fabric can clone backends
// without knowing their concrete type. Factories come in two flavours:
//
//   * BackendFactory — uniform replicas (PR 1's shape): every shard gets an
//     identical backend.
//   * ShardedBackendFactory / CtrBackendFactory — per-slot replicas: the
//     factory sees the ShardSlot (index + device profile) it is building
//     for, enabling heterogeneous fabrics that mix technologies (e.g.
//     FeFET-45 next to ReRAM-45 shards) behind one serving runtime.
//
// Replicas must be *functionally* identical (same model, same quantization)
// regardless of slot so that sharded execution reproduces single-backend
// results; the slot's profile may only change hardware timing/energy. The
// iMARS factories exploit that: each quantizes and loads its model's tables
// once, into an image built by its first call, and every call — slot 0
// included — returns a replica sharing the image's CMA bits (see
// ImarsBackend's replica constructor). Fabric memory then holds one table
// image per model, not one per shard. Serving only reads the image, and any
// write takes a private copy first (cma::Cma), so shards sharing it still
// run concurrently on their own worker threads.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend.hpp"
#include "data/criteo.hpp"
#include "recsys/dlrm.hpp"
#include "recsys/types.hpp"
#include "util/error.hpp"

namespace imars::core {

/// Builds one independent backend replica per call (uniform fabrics).
using BackendFactory =
    std::function<std::unique_ptr<recsys::FilterRankBackend>()>;

/// One shard's identity: its index and the device technology it runs on.
struct ShardSlot {
  std::size_t index = 0;
  device::DeviceProfile profile;
};

/// Builds the replica for one specific shard slot (heterogeneous fabrics).
using ShardedBackendFactory =
    std::function<std::unique_ptr<recsys::FilterRankBackend>(
        const ShardSlot&)>;

/// Builds the CTR (DLRM/Criteo) replica for one shard slot.
using CtrBackendFactory =
    std::function<std::unique_ptr<recsys::CtrBackend>(const ShardSlot&)>;

/// Builds one replica per profile slot, in slot order on the calling
/// thread. The iMARS factories load their tables once and share them, so
/// only the first call is expensive; building on the caller also keeps that
/// image in the caller's malloc arena, where repeated set-ups reuse freed
/// memory instead of growing a worker thread's arena.
template <class Backend>
std::vector<std::unique_ptr<Backend>> build_replicas(
    const std::function<std::unique_ptr<Backend>(const ShardSlot&)>& factory,
    std::span<const device::DeviceProfile> profiles) {
  std::vector<std::unique_ptr<Backend>> replicas;
  replicas.reserve(profiles.size());
  for (std::size_t s = 0; s < profiles.size(); ++s) {
    replicas.push_back(factory(ShardSlot{s, profiles[s]}));
    IMARS_REQUIRE(replicas.back() != nullptr,
                  "build_replicas: factory returned null");
  }
  return replicas;
}

/// Lifts a uniform factory into the per-slot shape (the slot is ignored).
ShardedBackendFactory per_slot(BackendFactory factory);

/// Factory for iMARS replicas: the first call quantizes/loads the model into
/// the factory's image (thread-safe), and every call returns a replica of
/// it on `profile`. `model` must outlive the factory and every backend it
/// builds; `calibration` is copied into the factory.
BackendFactory imars_backend_factory(
    const recsys::YoutubeDnn& model, const ArchConfig& arch,
    const device::DeviceProfile& profile, const ImarsBackendConfig& cfg,
    std::vector<recsys::UserContext> calibration);

/// Per-slot iMARS factory: the replica is built on the slot's own device
/// profile (mixed-technology fabrics); the image is built on the first
/// call's. `model` must outlive the factory.
ShardedBackendFactory imars_sharded_backend_factory(
    const recsys::YoutubeDnn& model, const ArchConfig& arch,
    const ImarsBackendConfig& cfg,
    std::vector<recsys::UserContext> calibration);

/// Per-slot iMARS CTR factory (DLRM over Criteo): one ImarsCtrBackend
/// replica per shard, built on the slot's device profile over one shared
/// image. `model` must outlive the factory; `calibration` is copied into
/// the factory.
CtrBackendFactory imars_ctr_backend_factory(
    const recsys::Dlrm& model, const ArchConfig& arch, TimingMode timing,
    std::vector<data::CriteoSample> calibration);

/// Factory for CPU-reference replicas (exact software oracle; used by the
/// shard-merge correctness tests). `model` must outlive the factory.
BackendFactory cpu_backend_factory(const recsys::YoutubeDnn& model,
                                   const baseline::CpuBackendConfig& cfg);

}  // namespace imars::core
