// Ablation X1: the intra-bank adder-tree fan-in.
//
// Sec III-A1 calls the fan-in of 4 "a design choice made as a compromise
// between area footprint of the iMARS banks and performance of the
// intra-bank addition". This bench sweeps the fan-in and reports, for a
// Criteo-sized bank (4 contributing mats) and a hypothetical 16-mat bank,
// the accumulation rounds, the ET-lookup latency, and the adder-tree area.
#include <iostream>

#include "adder/adder_tree.hpp"
#include "core/area.hpp"
#include "core/calibration.hpp"
#include "core/perf_model.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace imars;
using bench::PaperWorkloads;

int main() {
  std::cout << "=== Ablation: intra-bank adder tree fan-in (paper default 4) "
               "===\n\n";

  const auto profile = device::DeviceProfile::fefet45();

  util::Table t("Fan-in sweep");
  t.header({"fan-in", "rounds (4 mats)", "rounds (16 mats)",
            "Criteo ET lookup (us)", "tree area (CMA-equiv, whole chip)"});

  for (std::size_t fan_in : {2, 4, 8, 16}) {
    core::ArchConfig arch;
    arch.bank_fan_in = fan_in;
    const core::PerfModel pm(arch, profile);

    device::EnergyLedger scratch;
    const adder::IntraBankAdderTree tree(profile, &scratch, fan_in);

    core::EtLookupParams p;
    p.tables = PaperWorkloads::kCriteoTables;
    p.lookups_per_table = core::kWorstCaseLookupsPerTable;
    p.mats_per_table = PaperWorkloads::kCriteoMatsPerTable;
    p.active_cmas = PaperWorkloads::kCriteoActiveCmas;

    const auto area = core::chip_area(arch, profile, 0);
    t.row({std::to_string(fan_in), std::to_string(tree.rounds_for(4)),
           std::to_string(tree.rounds_for(16)),
           util::Table::num(pm.et_lookup(p).latency.us(), 3),
           util::Table::num(area.bank_trees, 1)});
  }
  t.print(std::cout);

  std::cout
      << "\nReading: fan-in 2 doubles the accumulation rounds for a 4-mat\n"
         "bank (and quadruples them at 16 mats); fan-in 8/16 only helps\n"
         "banks with more mats than the Criteo mapping uses, while the\n"
         "tree area grows linearly. Fan-in 4 matches the paper's choice:\n"
         "one-round accumulation for the largest mapped workload at the\n"
         "smallest area that achieves it.\n";
  return 0;
}
