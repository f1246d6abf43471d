// Ablation X2: dimensioning B / M / C.
//
// Sec III-A1: "design parameters B, M and C largely impact the area,
// capacity and the performance of iMARS". This bench sweeps C (CMAs per
// mat) at fixed bank capacity, and B (banks), reporting capacity, the mats
// needed for the largest Criteo table, the worst-case ET-lookup latency and
// the chip area.
#include <iostream>

#include "util/rng.hpp"

#include "core/accelerator.hpp"
#include "core/area.hpp"
#include "core/calibration.hpp"
#include "core/mapping.hpp"
#include "core/perf_model.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace imars;
using bench::PaperWorkloads;

int main() {
  std::cout << "=== Ablation: fabric dimensioning (paper: B=32, M=4, C=32) "
               "===\n\n";

  const auto profile = device::DeviceProfile::fefet45();
  constexpr std::size_t kCriteoRows = 30000;  // largest Table I ET

  // ---- Sweep C at fixed per-bank CMA budget (M*C = 128). -----------------
  util::Table tc("C sweep (per-bank CMA budget fixed at M*C = 128)");
  tc.header({"C", "M", "mats for 30k-row ET", "ET lookup (us)",
             "intra-mat tree fan-in", "chip area (CMA-equiv)"});
  for (std::size_t c : {8, 16, 32, 64, 128}) {
    core::ArchConfig arch;
    arch.cmas_per_mat = c;
    arch.mats_per_bank = 128 / c;
    const core::EtMapping m(arch);
    const std::size_t cmas = m.cmas_for_rows(kCriteoRows);
    const std::size_t mats = m.mats_for_cmas(cmas);

    const core::PerfModel pm(arch, profile);
    core::EtLookupParams p;
    p.tables = PaperWorkloads::kCriteoTables;
    p.lookups_per_table = core::kWorstCaseLookupsPerTable;
    p.mats_per_table = mats;
    p.active_cmas = PaperWorkloads::kCriteoActiveCmas;

    tc.row({std::to_string(c), std::to_string(arch.mats_per_bank),
            std::to_string(mats),
            util::Table::num(pm.et_lookup(p).latency.us(), 3),
            std::to_string(c),
            util::Table::num(core::chip_area(arch, profile, 0).total(), 0)});
  }
  tc.print(std::cout);

  // ---- Sweep B. ------------------------------------------------------------
  std::cout << "\n";
  util::Table tb("B sweep (M=4, C=32)");
  tb.header({"B", "capacity (ET rows)", "fits Criteo (26 features)?",
             "chip area (CMA-equiv)"});
  for (std::size_t b : {8, 16, 26, 32, 64}) {
    core::ArchConfig arch;
    arch.banks = b;
    const bool fits = b >= 26;
    tb.row({std::to_string(b),
            std::to_string(b * arch.bank_capacity_rows()),
            fits ? "yes" : "no (one bank per sparse feature)",
            util::Table::num(core::chip_area(arch, profile, 0).total(), 0)});
  }
  tb.print(std::cout);

  // ---- Row placement (extension): sequential vs striped. ------------------
  std::cout << "\n";
  {
    util::Table tp("Row placement (extension): 16 contiguous multi-hot "
                   "lookups, actual placement");
    tp.header({"placement", "ET lookup (ns)"});
    for (const auto placement :
         {core::RowPlacement::kSequential, core::RowPlacement::kStriped}) {
      core::ArchConfig arch;
      arch.placement = placement;
      core::ImarsAccelerator acc(arch, profile);
      util::Xoshiro256 rng(9);
      const auto table = tensor::QMatrix::quantize(
          tensor::Matrix::randn(2048, 32, 0.5f, rng));
      const auto id = acc.load_uiet("t", table);
      acc.reset_energy();
      std::vector<std::size_t> idx;
      for (std::size_t i = 512; i < 528; ++i) idx.push_back(i);
      const core::LookupRequest req{id, idx, true};
      recsys::OpCost cost;
      (void)acc.lookup_pooled(std::span(&req, 1),
                              core::TimingMode::kActualPlacement, &cost);
      tp.row({placement == core::RowPlacement::kSequential ? "sequential (paper)"
                                                           : "striped (ext)",
              util::Table::num(cost.latency.value, 1)});
    }
    tp.print(std::cout);
  }

  std::cout
      << "\nReading: small C shifts arrays into more mats -> more\n"
         "intra-bank rounds and IBC serialization for big tables; large C\n"
         "widens the intra-mat tree (area, parasitics) without helping\n"
         "tables that already fit one mat. C=32 x M=4 is the smallest\n"
         "configuration that holds the 118-CMA Criteo table with one-round\n"
         "intra-bank accumulation -- the paper's choice. B is set by the\n"
         "feature count (26 sparse features -> 32 banks with headroom).\n";
  return 0;
}
