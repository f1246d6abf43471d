// Tests for the device layer: Table II values, unit arithmetic, ledger.
#include <gtest/gtest.h>

#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "device/units.hpp"
#include "util/error.hpp"

namespace imars {
namespace {

using device::Component;
using device::DeviceProfile;
using device::EnergyLedger;
using device::Ns;
using device::Pj;

TEST(Units, ArithmeticAndComparison) {
  const Ns a{2.0}, b{3.0};
  EXPECT_EQ((a + b).value, 5.0);
  EXPECT_EQ((b - a).value, 1.0);
  EXPECT_EQ((a * 2.0).value, 4.0);
  EXPECT_EQ((2.0 * a).value, 4.0);
  EXPECT_EQ((b / 3.0).value, 1.0);
  EXPECT_EQ(b / a, 1.5);
  EXPECT_LT(a, b);
  EXPECT_EQ(device::max(a, b), b);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(Ns{1500.0}.us(), 1.5);
  EXPECT_DOUBLE_EQ(device::from_us(2.0).value, 2000.0);
  EXPECT_DOUBLE_EQ(Pj{5e6}.uj(), 5.0);
  EXPECT_DOUBLE_EQ(device::from_uj(3.0).value, 3e6);
  EXPECT_DOUBLE_EQ(device::from_mj(1.0).value, 1e9);
}

TEST(Profile, Fefet45MatchesTableII) {
  const DeviceProfile p = DeviceProfile::fefet45();
  // Paper Table II, verbatim.
  EXPECT_DOUBLE_EQ(p.cma_write.energy.value, 49.1);
  EXPECT_DOUBLE_EQ(p.cma_write.latency.value, 10.0);
  EXPECT_DOUBLE_EQ(p.cma_read.energy.value, 3.2);
  EXPECT_DOUBLE_EQ(p.cma_read.latency.value, 0.3);
  EXPECT_DOUBLE_EQ(p.cma_add.energy.value, 108.0);
  EXPECT_DOUBLE_EQ(p.cma_add.latency.value, 8.1);
  EXPECT_DOUBLE_EQ(p.cma_search.energy.value, 13.8);
  EXPECT_DOUBLE_EQ(p.cma_search.latency.value, 0.2);
  EXPECT_DOUBLE_EQ(p.intra_mat_add.energy.value, 137.0);
  EXPECT_DOUBLE_EQ(p.intra_mat_add.latency.value, 14.7);
  EXPECT_DOUBLE_EQ(p.intra_bank_add.energy.value, 956.0);
  EXPECT_DOUBLE_EQ(p.intra_bank_add.latency.value, 44.2);
  EXPECT_DOUBLE_EQ(p.xbar_matmul.energy.value, 13.8);
  EXPECT_DOUBLE_EQ(p.xbar_matmul.latency.value, 225.0);
  EXPECT_EQ(p.cma_rows, 256u);
  EXPECT_EQ(p.cma_cols, 256u);
  EXPECT_EQ(p.xbar_rows, 256u);
  EXPECT_EQ(p.xbar_cols, 128u);
}

TEST(Profile, TechnologyOrderings) {
  const auto fefet = DeviceProfile::fefet45();
  const auto cmos = DeviceProfile::cmos45();
  const auto reram = DeviceProfile::reram45();
  // CMOS SRAM writes are faster/cheaper; FeFET cells are denser.
  EXPECT_LT(cmos.cma_write.latency.value, fefet.cma_write.latency.value);
  EXPECT_GT(cmos.cma_area, fefet.cma_area);
  // CMOS search costs more energy (full-swing matchlines).
  EXPECT_GT(cmos.cma_search.energy.value, fefet.cma_search.energy.value);
  // ReRAM writes are dramatically slower and more energetic.
  EXPECT_GT(reram.cma_write.latency.value, 5.0 * fefet.cma_write.latency.value);
  EXPECT_GT(reram.cma_write.energy.value, 5.0 * fefet.cma_write.energy.value);
}

TEST(Ledger, ChargeAndTotal) {
  EnergyLedger l;
  l.charge(Component::kCmaRam, Pj{10.0});
  l.charge(Component::kCmaRam, Pj{5.0});
  l.charge(Component::kCrossbar, Pj{2.5});
  EXPECT_DOUBLE_EQ(l.energy(Component::kCmaRam).value, 15.0);
  EXPECT_EQ(l.ops(Component::kCmaRam), 2u);
  EXPECT_DOUBLE_EQ(l.total().value, 17.5);
}

TEST(Ledger, ChargeWithExplicitOpCount) {
  EnergyLedger l;
  l.charge(Component::kRscBus, Pj{100.0}, 25);
  EXPECT_EQ(l.ops(Component::kRscBus), 25u);
  EXPECT_DOUBLE_EQ(l.energy(Component::kRscBus).value, 100.0);
}

TEST(Ledger, Clear) {
  EnergyLedger a;
  a.charge(Component::kCmaAdd, Pj{1.0});
  a.charge(Component::kIbcNetwork, Pj{4.0});
  a.clear();
  EXPECT_DOUBLE_EQ(a.total().value, 0.0);
  EXPECT_EQ(a.ops(Component::kCmaAdd), 0u);
}

TEST(Ledger, ComponentNamesAreDistinct) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Component::kCount); ++i)
    for (std::size_t j = i + 1; j < static_cast<std::size_t>(Component::kCount);
         ++j)
      EXPECT_NE(device::component_name(static_cast<Component>(i)),
                device::component_name(static_cast<Component>(j)));
}

}  // namespace
}  // namespace imars
