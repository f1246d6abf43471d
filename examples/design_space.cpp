// Design-space exploration with the analytical models: how architecture
// knobs (C, fan-in, technology, signature length) move latency, energy and
// area for a Criteo-class workload. A condensed, single-binary tour of the
// ablation benches.
//
//   $ ./design_space
#include <iostream>

#include "core/area.hpp"
#include "core/calibration.hpp"
#include "core/mapping.hpp"
#include "core/perf_model.hpp"
#include "util/table.hpp"

using namespace imars;

namespace {

core::EtLookupParams criteo_params(std::size_t mats) {
  core::EtLookupParams p;
  p.tables = 26;
  p.lookups_per_table = core::kWorstCaseLookupsPerTable;
  p.mats_per_table = mats;
  p.active_cmas = 2860;
  return p;
}

}  // namespace

int main() {
  std::cout << "=== iMARS design-space tour (analytical models) ===\n\n";

  const auto fefet = device::DeviceProfile::fefet45();

  // 1. Where does the worst-case ET-lookup time go?
  {
    const core::PerfModel pm(core::ArchConfig{}, fefet);
    const auto c = pm.et_lookup(criteo_params(4));
    // The worst case as PerfModel::et_lookup composes it: all lookups in
    // one array, read + (L-1) x (read + write + add), then one intra-mat
    // add, one IBC shot and one intra-bank round.
    const std::size_t lookups = core::kWorstCaseLookupsPerTable;
    const double array_ns =
        static_cast<double>(lookups) * fefet.cma_read.latency.value +
        static_cast<double>(lookups - 1) *
            (fefet.cma_write.latency.value + fefet.cma_add.latency.value);
    const double trees_ns = fefet.intra_mat_add.latency.value +
                            fefet.ibc_cycle.value +
                            fefet.intra_bank_add.latency.value;
    std::cout << "Criteo worst-case ET lookup: " << c.latency.value << " ns, "
              << c.energy.uj() << " uJ\n"
              << "  array phase (" << lookups << " serialized lookups): "
              << array_ns << " ns\n"
              << "  trees + IBC: " << trees_ns << " ns\n"
              << "  RSC serialization (26 banks): the rest\n\n";
  }

  // 2. C (CMAs per mat) at fixed bank budget.
  {
    util::Table t("C sweep (M*C = 128 fixed)");
    t.header({"C", "M", "mats for 30k ET", "ET lookup (ns)"});
    for (std::size_t c : {8, 16, 32, 64}) {
      core::ArchConfig arch;
      arch.cmas_per_mat = c;
      arch.mats_per_bank = 128 / c;
      const core::EtMapping m(arch);
      const std::size_t mats = m.mats_for_cmas(m.cmas_for_rows(30000));
      const core::PerfModel pm(arch, fefet);
      t.row({std::to_string(c), std::to_string(arch.mats_per_bank),
             std::to_string(mats),
             util::Table::num(pm.et_lookup(criteo_params(mats)).latency.value,
                              0)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // 3. Technology.
  {
    util::Table t("Technology (Criteo ET lookup + area)");
    t.header({"profile", "latency (ns)", "energy (uJ)", "area (CMA-equiv)"});
    for (const auto& p : {device::DeviceProfile::fefet45(),
                          device::DeviceProfile::cmos45(),
                          device::DeviceProfile::reram45()}) {
      const core::ArchConfig arch;
      const core::PerfModel pm(arch, p);
      const auto c = pm.et_lookup(criteo_params(4));
      t.row({p.name, util::Table::num(c.latency.value, 0),
             util::Table::num(c.energy.uj(), 2),
             util::Table::num(core::chip_area(arch, p, 0).total(), 0)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // 4. NNS cost vs signature length.
  {
    util::Table t("NNS vs signature length (MovieLens ItET, 16 data CMAs)");
    t.header({"bits", "sig CMAs searched", "NNS energy (nJ)",
              "NNS latency (ns)"});
    const core::PerfModel pm(core::ArchConfig{}, fefet);
    for (std::size_t bits : {64, 128, 256, 512}) {
      const std::size_t sig_cmas = 16 * ((bits + 255) / 256);
      const auto c = pm.nns(sig_cmas);
      t.row({std::to_string(bits), std::to_string(sig_cmas),
             util::Table::num(c.energy.nj(), 2),
             util::Table::num(c.latency.value, 2)});
    }
    t.print(std::cout);
  }

  std::cout << "\nSee bench_ablation_{fanin,dims,lsh,tech} for the full\n"
               "sweeps with commentary.\n";
  return 0;
}
