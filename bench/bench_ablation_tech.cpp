// Ablation X4: memory technology.
//
// Sec II-B argues for FeFET CMAs over CMOS (density, leakage) and ReRAM
// (write cost). This bench runs the Table III ET-lookup composition and the
// table-loading cost under the three device profiles, plus the area model.
// The CMOS/ReRAM profiles are documented estimates (device/profile.cpp);
// the comparison shows *why* the paper's technology choice holds, not
// exact competitor numbers.
#include <iostream>

#include "core/area.hpp"
#include "core/calibration.hpp"
#include "core/perf_model.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace imars;
using bench::PaperWorkloads;

int main() {
  std::cout << "=== Ablation: memory technology (FeFET vs CMOS vs ReRAM) "
               "===\n\n";

  const device::DeviceProfile profiles[] = {
      device::DeviceProfile::fefet45(),
      device::DeviceProfile::fefet22(),
      device::DeviceProfile::cmos45(),
      device::DeviceProfile::reram45(),
  };

  util::Table t("Technology sweep (Criteo ET lookup + fabric properties)");
  t.header({"technology", "ET lookup lat (us)", "ET lookup E (uJ)",
            "load 30k-row ET (us)", "search E/array (pJ)",
            "chip area (CMA-equiv)", "endurance (cycles)"});

  for (const auto& p : profiles) {
    const core::ArchConfig arch;
    const core::PerfModel pm(arch, p);

    core::EtLookupParams params;
    params.tables = PaperWorkloads::kCriteoTables;
    params.lookups_per_table = core::kWorstCaseLookupsPerTable;
    params.mats_per_table = PaperWorkloads::kCriteoMatsPerTable;
    params.active_cmas = PaperWorkloads::kCriteoActiveCmas;
    const auto lookup = pm.et_lookup(params);

    // Loading a 30,000-row table = 30,000 serialized row writes.
    const double load_us = p.cma_write.latency.us() * 30000.0;

    t.row({p.name, util::Table::num(lookup.latency.us(), 3),
           util::Table::num(lookup.energy.uj(), 2),
           util::Table::num(load_us, 0),
           util::Table::num(p.cma_search.energy.value, 1),
           util::Table::num(core::chip_area(arch, p, 0).total(), 0),
           std::to_string(p.endurance_cycles)});
  }
  t.print(std::cout);

  std::cout
      << "\nReading (Sec II-B's argument, quantified):\n"
         " * CMOS: fastest writes and lookups, but ~2.1x the cell area --\n"
         "   the ET capacity that fits one FeFET chip needs two CMOS chips\n"
         "   (and SRAM leaks statically, which this energy model does not\n"
         "   even charge).\n"
         " * ReRAM: competitive reads/searches, but table loads and every\n"
         "   in-place update pay ~10x latency and energy per write.\n"
         " * FeFET: near-CMOS speed at non-volatile, 1T-cell density --\n"
         "   the paper's choice. The projected 22nm FDSOI point (Dunkel et\n"
         "   al., cited by the paper for manufacturability) roughly halves\n"
         "   energy again at a quarter of the area.\n"
         " * Endurance: embedding tables are written once per deployment\n"
         "   and read at inference, so even ReRAM's ~1e7-cycle budget is\n"
         "   ample; wear would only matter for GPCiM staging patterns,\n"
         "   which no modeled workload runs.\n";
  return 0;
}
