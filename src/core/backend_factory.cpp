#include "core/backend_factory.hpp"

#include <mutex>

namespace imars::core {

namespace {

/// The image a factory's replicas share: built once, by whichever call
/// comes first, and kept while any copy of the factory lives.
template <class Backend>
class SharedImage {
 public:
  template <class Build>
  const Backend& get(const Build& build) {
    std::call_once(once_, [&] { image_ = build(); });
    return *image_;
  }

 private:
  std::once_flag once_;
  std::unique_ptr<Backend> image_;
};

}  // namespace

ShardedBackendFactory per_slot(BackendFactory factory) {
  return [factory = std::move(factory)](const ShardSlot&) {
    return factory();
  };
}

BackendFactory imars_backend_factory(
    const recsys::YoutubeDnn& model, const ArchConfig& arch,
    const device::DeviceProfile& profile, const ImarsBackendConfig& cfg,
    std::vector<recsys::UserContext> calibration) {
  // The per-slot factory with every slot on `profile`.
  return [sharded = imars_sharded_backend_factory(model, arch, cfg,
                                                  std::move(calibration)),
          profile]() { return sharded(ShardSlot{0, profile}); };
}

ShardedBackendFactory imars_sharded_backend_factory(
    const recsys::YoutubeDnn& model, const ArchConfig& arch,
    const ImarsBackendConfig& cfg,
    std::vector<recsys::UserContext> calibration) {
  const recsys::YoutubeDnn* model_ptr = &model;
  auto image = std::make_shared<SharedImage<ImarsBackend>>();
  return [model_ptr, arch, cfg, calib = std::move(calibration),
          image](const ShardSlot& slot) {
    const ImarsBackend& img = image->get([&] {
      return std::make_unique<ImarsBackend>(*model_ptr, arch, slot.profile,
                                            cfg, calib);
    });
    return std::make_unique<ImarsBackend>(img, slot.profile, calib);
  };
}

CtrBackendFactory imars_ctr_backend_factory(
    const recsys::Dlrm& model, const ArchConfig& arch, TimingMode timing,
    std::vector<data::CriteoSample> calibration) {
  const recsys::Dlrm* model_ptr = &model;
  auto image = std::make_shared<SharedImage<ImarsCtrBackend>>();
  return [model_ptr, arch, timing, calib = std::move(calibration),
          image](const ShardSlot& slot) {
    const ImarsCtrBackend& img = image->get([&] {
      return std::make_unique<ImarsCtrBackend>(*model_ptr, arch, slot.profile,
                                               timing, calib);
    });
    return std::make_unique<ImarsCtrBackend>(img, slot.profile, calib);
  };
}

BackendFactory cpu_backend_factory(const recsys::YoutubeDnn& model,
                                   const baseline::CpuBackendConfig& cfg) {
  const recsys::YoutubeDnn* model_ptr = &model;
  return [model_ptr, cfg]() {
    return std::make_unique<baseline::CpuBackend>(*model_ptr, cfg);
  };
}

}  // namespace imars::core
