// Death tests for the contract layer: every checker must abort with a
// diagnostic on bad input and pass good values through unchanged, and each
// module's public API must reject physically-nonsensical input (NaNs and
// out-of-range values that the documented std::invalid_argument /
// std::domain_error checks cannot catch).
#include "util/contract.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/netlist.hpp"
#include "circuits/transient.hpp"
#include "energy/battery.hpp"
#include "mac/arq.hpp"
#include "mac/frame.hpp"
#include "phy/ber.hpp"
#include "plan/offload.hpp"
#include "rf/pathloss.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// All contract failures share this stderr signature.
constexpr char kDies[] = "braidio contract violation";

#if BRAIDIO_CONTRACTS_ENABLED

// --- checker death tests -------------------------------------------------

TEST(ContractCheckersDeathTest, ProbabilityRejectsOutOfRangeAndNan) {
  EXPECT_DEATH(util::contract::check_probability(-0.1, "p"), kDies);
  EXPECT_DEATH(util::contract::check_probability(1.1, "p"), kDies);
  EXPECT_DEATH(util::contract::check_probability(kNan, "p"), kDies);
}

TEST(ContractCheckersDeathTest, EnergyRejectsNegativeAndNonFinite) {
  EXPECT_DEATH(util::contract::check_nonneg_energy_j(-1e-12, "e"), kDies);
  EXPECT_DEATH(util::contract::check_nonneg_energy_j(kNan, "e"), kDies);
  EXPECT_DEATH(util::contract::check_nonneg_energy_j(kInf, "e"), kDies);
}

TEST(ContractCheckersDeathTest, PowerDbmRejectsOutsideRange) {
  EXPECT_DEATH(util::contract::check_power_dbm_range(-300.0, "tx"), kDies);
  EXPECT_DEATH(util::contract::check_power_dbm_range(100.0, "tx"), kDies);
  EXPECT_DEATH(util::contract::check_power_dbm_range(kNan, "tx"), kDies);
  EXPECT_DEATH(util::contract::check_power_dbm_range(5.0, "tx", 10.0, 20.0),
               kDies);
}

TEST(ContractCheckersDeathTest, MacrosReportAllThreeKinds) {
  EXPECT_DEATH(BRAIDIO_REQUIRE(1 == 2, "lhs", 1, "rhs", 2), "REQUIRE");
  EXPECT_DEATH(BRAIDIO_ENSURE(false), "ENSURE");
  EXPECT_DEATH(BRAIDIO_INVARIANT(false), "INVARIANT");
}

// --- per-module boundary death tests -------------------------------------

TEST(ModuleContractsDeathTest, UtilUnitsRejectNanDbm) {
  EXPECT_DEATH(util::dbm_to_watts(kNan), kDies);
}

TEST(ModuleContractsDeathTest, UtilRngRejectsInvertedBounds) {
  util::Rng rng(1);
  EXPECT_DEATH(rng.uniform_int(5, 2), kDies);
  EXPECT_DEATH(rng.uniform(2.0, 1.0), kDies);
  EXPECT_DEATH(rng.bernoulli(kNan), kDies);
}

TEST(ModuleContractsDeathTest, PhyBerRejectsNanSnr) {
  EXPECT_DEATH(phy::bit_error_rate(phy::BerModel::CoherentBpsk, kNan), kDies);
  EXPECT_DEATH(phy::packet_error_rate(kNan, 100), kDies);
}

TEST(ModuleContractsDeathTest, RfPathlossRejectsNanDistance) {
  EXPECT_DEATH(rf::friis_gain(kNan, 915e6), kDies);
}

TEST(ModuleContractsDeathTest, EnergyBatteryRejectsNanDrain) {
  energy::Battery battery(util::WattHours(1.0));
  EXPECT_DEATH(battery.drain(util::Joules(kNan)), kDies);
}

TEST(ModuleContractsDeathTest, MacArqRejectsAbsurdConfig) {
  mac::ArqSender sender(1, 2);
  std::vector<std::uint8_t> oversized(mac::kMaxPayloadBytes + 1, 0xAB);
  EXPECT_DEATH(sender.submit(std::move(oversized)), kDies);
}

// NaN timestep is caught by the documented `!(dt > 0)` throw; the contract
// adds the +inf case, which passes `> 0` but is physically meaningless.
TEST(ModuleContractsDeathTest, CircuitsTransientRejectsInfiniteTimestep) {
  circuits::Netlist netlist;
  const circuits::NodeId node = netlist.add_node("n1");
  netlist.add_resistor(0, node, 1e3);
  circuits::TransientOptions options;
  options.timestep_s = kInf;
  EXPECT_DEATH(circuits::TransientSimulator(netlist, options), kDies);
  options.timestep_s = 1e-9;
  options.abs_tolerance = kNan;
  EXPECT_DEATH(circuits::TransientSimulator(netlist, options), kDies);
}

// Same split in the planner: NaN energies hit the documented throw, +inf
// sails past `> 0` and must trip the finiteness contract.
TEST(ModuleContractsDeathTest, CoreOffloadRejectsInfiniteEnergy) {
  std::vector<plan::ModeCandidate> candidates(1);
  candidates[0].tx_power_w = 0.1;
  candidates[0].rx_power_w = 0.1;
  EXPECT_DEATH(plan::OffloadPlanner::plan(candidates, kInf, 1.0), kDies);
  EXPECT_DEATH(plan::OffloadPlanner::plan(candidates, 1.0, kInf), kDies);
}

#endif  // BRAIDIO_CONTRACTS_ENABLED

// --- good inputs must pass through untouched (both build flavors) --------

TEST(ContractCheckers, GoodValuesPassThrough) {
  EXPECT_EQ(util::contract::check_probability(0.0, "p"), 0.0);
  EXPECT_EQ(util::contract::check_probability(1.0, "p"), 1.0);
  EXPECT_EQ(util::contract::check_nonneg_energy_j(0.0, "e"), 0.0);
  EXPECT_EQ(util::contract::check_nonneg_energy_j(3.5, "e"), 3.5);
  EXPECT_EQ(util::contract::check_power_dbm_range(-30.0, "tx"), -30.0);
}

TEST(ContractCheckers, MacrosAreSilentWhenSatisfied) {
  BRAIDIO_REQUIRE(1 + 1 == 2);
  BRAIDIO_ENSURE(true, "value", 42);
  BRAIDIO_INVARIANT(2 < 3, "lo", 2, "hi", 3);
  SUCCEED();
}

// Documented recoverable errors must still throw — contracts only cover
// conditions the existing checks could not see (NaN slips past `< 0`).
TEST(ContractCheckers, DocumentedExceptionsStillThrow) {
  EXPECT_THROW(energy::Battery(util::WattHours(-1.0)),
               std::invalid_argument);
  EXPECT_THROW(phy::bit_error_rate(phy::BerModel::CoherentBpsk, -1.0),
               std::domain_error);
  energy::Battery battery(util::WattHours(1.0));
  EXPECT_THROW(battery.drain(util::Joules(-0.5)), std::invalid_argument);
}

}  // namespace
}  // namespace braidio
