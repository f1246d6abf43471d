// Reproduces Table II: array-level figures of merit.
//
// The functional simulator executes each array operation (CMA write / read /
// in-memory add / TCAM search, intra-mat and intra-bank 256-bit adds, one
// crossbar matmul) and reports the charged energy and returned latency next
// to the paper's HSPICE/RTL/Neurosim values. Exact agreement is expected —
// the device layer carries the published FoM — so this bench doubles as an
// end-to-end check that the accounting plumbing charges exactly one FoM per
// operation.
#include <iostream>

#include "adder/adder_tree.hpp"
#include "cma/cma.hpp"
#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xbar/crossbar.hpp"

using namespace imars;
using device::Component;

namespace {

struct Measured {
  double energy_pj = 0.0;
  double latency_ns = 0.0;
};

/// Measured values that differ from their paper value, over every fmt().
std::size_t g_mismatches = 0;

/// Formats one measured E/L pair next to the paper's and counts each
/// value that is not exactly the paper's in g_mismatches.
std::string fmt(const Measured& m, double paper_e, double paper_l) {
  g_mismatches += (m.energy_pj != paper_e) + (m.latency_ns != paper_l);
  return util::Table::num(m.energy_pj, 1) + " / " +
         util::Table::num(m.latency_ns, 1) + "  [paper " +
         util::Table::num(paper_e, 1) + " / " + util::Table::num(paper_l, 1) +
         "]";
}

}  // namespace

int main() {
  std::cout << "=== Table II: array-level evaluation of CMA, adder trees and "
               "crossbars ===\n"
            << "(energy pJ / latency ns; measured by running one functional "
               "op)\n\n";

  const auto profile = device::DeviceProfile::fefet45();
  util::Xoshiro256 rng(1);

  util::Table t("256x256 FeFET CMA + periphery (45nm)");
  t.header({"Component", "Operation", "measured E/L [paper E/L]"});

  // CMA write.
  {
    device::EnergyLedger ledger;
    cma::Cma array(profile, &ledger);
    util::BitVec row(256);
    for (std::size_t i = 0; i < 256; ++i) row.set(i, rng.bernoulli(0.5));
    const auto lat = array.write_row(3, row);
    t.row({"256x256 CMA", "Write",
           fmt({ledger.energy(Component::kCmaRam).value, lat.value}, 49.1,
               10.0)});
  }
  // CMA read.
  {
    device::EnergyLedger ledger;
    cma::Cma array(profile, &ledger);
    array.write_row_i8(0, std::vector<std::int8_t>(32, 7));
    ledger.clear();
    device::Ns lat{0.0};
    (void)array.read_row(0, &lat);
    t.row({"256x256 CMA", "Read",
           fmt({ledger.energy(Component::kCmaRam).value, lat.value}, 3.2,
               0.3)});
  }
  // CMA in-memory addition.
  {
    device::EnergyLedger ledger;
    cma::Cma array(profile, &ledger);
    array.write_row_i8(0, std::vector<std::int8_t>(32, 5));
    array.write_row_i8(1, std::vector<std::int8_t>(32, 9));
    array.set_mode(cma::Mode::kGpcim);
    ledger.clear();
    const auto lat = array.add_rows(2, 0, 1);
    t.row({"256x256 CMA", "Addition",
           fmt({ledger.energy(Component::kCmaAdd).value, lat.value}, 108.0,
               8.1)});
  }
  // CMA TCAM search.
  {
    device::EnergyLedger ledger;
    cma::Cma array(profile, &ledger);
    for (std::size_t r = 0; r < 64; ++r) {
      util::BitVec row(256);
      for (std::size_t i = 0; i < 256; ++i) row.set(i, rng.bernoulli(0.5));
      array.write_row(r, row);
    }
    array.set_mode(cma::Mode::kTcam);
    ledger.clear();
    util::BitVec q(256);
    const auto result = array.search(q, 96);
    t.row({"256x256 CMA", "Search",
           fmt({ledger.energy(Component::kCmaSearch).value,
                result.latency.value},
               13.8, 0.2)});
  }
  // Intra-mat adder tree.
  {
    device::EnergyLedger ledger;
    adder::IntraMatAdderTree tree(profile, &ledger, 32);
    std::vector<adder::Lanes> inputs(32, adder::Lanes(32, 3));
    device::Ns lat{0.0};
    (void)tree.sum(inputs, &lat);
    t.row({"Intra-mat adder tree", "256-bit Add",
           fmt({ledger.energy(Component::kIntraMatTree).value, lat.value},
               137.0, 14.7)});
  }
  // Intra-bank adder tree (one round, fan-in 4).
  {
    device::EnergyLedger ledger;
    adder::IntraBankAdderTree tree(profile, &ledger, 4);
    std::vector<adder::Lanes> inputs(4, adder::Lanes(32, 3));
    device::Ns lat{0.0};
    (void)tree.sum(inputs, &lat);
    t.row({"Intra-bank adder tree", "256-bit Add",
           fmt({ledger.energy(Component::kIntraBankTree).value, lat.value},
               956.0, 44.2)});
  }
  // Crossbar matmul.
  {
    device::EnergyLedger ledger;
    xbar::Crossbar xb(profile, &ledger);
    xb.load_weights(tensor::QMatrix(xb.rows(), xb.cols(), {}));
    ledger.clear();
    device::Ns lat{0.0};
    std::vector<std::int32_t> out(xb.cols(), 0);
    xb.gemv(std::vector<std::int8_t>(xb.rows(), 1), out, &lat);
    t.row({"256x128 Crossbar", "MatMul",
           fmt({ledger.energy(Component::kCrossbar).value, lat.value}, 13.8,
               225.0)});
  }

  t.print(std::cout);
  std::cout << "\nAll rows must match the paper exactly: the device layer\n"
               "carries the published Table II values, and each functional\n"
               "operation charges exactly one FoM.\n";
  if (g_mismatches != 0)
    std::cout << "\nFAIL: measured values that differ from the paper: "
              << g_mismatches << "\n";
  return g_mismatches == 0 ? 0 : 1;
}
