#include "device/ledger.hpp"

#include "util/error.hpp"

namespace imars::device {

std::string_view component_name(Component c) {
  switch (c) {
    case Component::kCmaRam: return "cma-ram";
    case Component::kCmaSearch: return "cma-search";
    case Component::kCmaAdd: return "cma-add";
    case Component::kIntraMatTree: return "intra-mat-tree";
    case Component::kIntraBankTree: return "intra-bank-tree";
    case Component::kCrossbar: return "crossbar";
    case Component::kRscBus: return "rsc-bus";
    case Component::kIbcNetwork: return "ibc-network";
    case Component::kController: return "controller";
    case Component::kPeripheral: return "peripheral";
    case Component::kCount: break;
  }
  return "unknown";
}

namespace {
std::size_t index_of(Component c) {
  const auto i = static_cast<std::size_t>(c);
  IMARS_REQUIRE(i < static_cast<std::size_t>(Component::kCount),
                "EnergyLedger: invalid component");
  return i;
}
}  // namespace

void EnergyLedger::charge(Component c, Pj energy) { charge(c, energy, 1); }

void EnergyLedger::charge(Component c, Pj energy, std::size_t ops) {
  const auto i = index_of(c);
  energy_pj_[i] += energy.value;
  ops_[i] += ops;
  if (capturing_) capture_pj_ += energy.value;
}

void EnergyLedger::begin_capture() {
  IMARS_REQUIRE(!capturing_, "EnergyLedger: capture already open");
  capturing_ = true;
  capture_pj_ = 0.0;
}

Pj EnergyLedger::end_capture() {
  IMARS_REQUIRE(capturing_, "EnergyLedger: no capture open");
  capturing_ = false;
  return Pj{capture_pj_};
}

Pj EnergyLedger::energy(Component c) const { return Pj{energy_pj_[index_of(c)]}; }

std::size_t EnergyLedger::ops(Component c) const { return ops_[index_of(c)]; }

Pj EnergyLedger::total() const {
  double sum = 0.0;
  for (double e : energy_pj_) sum += e;
  return Pj{sum};
}

void EnergyLedger::clear() {
  energy_pj_.fill(0.0);
  ops_.fill(0);
  capture_pj_ = 0.0;
  capturing_ = false;
}

}  // namespace imars::device
