// Unit tests for the radio HAL: the link-mode vocabulary, capability
// lattice lookups, the StandardRadio request/confirm state machine, the
// backend registry, and the shipped drivers' declared contracts. The
// per-backend conformance sweep lives in hal_conformance_test.cpp; this
// suite pins the building blocks it is made of.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "hal/backend.hpp"
#include "hal/conformance.hpp"
#include "hal/link_mode.hpp"
#include "hal/radio.hpp"
#include "obs/span.hpp"
#include "util/units.hpp"

namespace braidio::hal {
namespace {

// ---------- link-mode vocabulary ----------

TEST(HalLinkMode, BitrateValuesAndNames) {
  EXPECT_DOUBLE_EQ(bitrate_bps(Bitrate::k10), 1e4);
  EXPECT_DOUBLE_EQ(bitrate_bps(Bitrate::k100), 1e5);
  EXPECT_DOUBLE_EQ(bitrate_bps(Bitrate::M1), 1e6);
  EXPECT_STREQ(to_string(Bitrate::k10), "10k");
  EXPECT_STREQ(to_string(Bitrate::M1), "1M");
  EXPECT_STREQ(to_string(LinkMode::Backscatter), "backscatter");
}

// ---------- capability lattice ----------

Capabilities tiny_caps() {
  Capabilities caps;
  caps.can_active = true;
  caps.lattice = {{LinkMode::Active, Bitrate::M1, 0.1, 0.09}};
  return caps;
}

TEST(HalCapabilities, SupportsAndFind) {
  const Capabilities caps = tiny_caps();
  EXPECT_TRUE(caps.supports(LinkMode::Active));
  EXPECT_FALSE(caps.supports(LinkMode::Backscatter));
  const OperatingPoint* point = caps.find(LinkMode::Active, Bitrate::M1);
  ASSERT_NE(point, nullptr);
  EXPECT_DOUBLE_EQ(point->tx_power_w, 0.1);
  EXPECT_EQ(caps.find(LinkMode::Active, Bitrate::k10), nullptr);
  EXPECT_EQ(caps.find(LinkMode::PassiveRx, Bitrate::M1), nullptr);
}

/// "<mode>@<rate>", composed from the vocabulary's names.
std::string composed_label(LinkMode mode, Bitrate rate) {
  return std::string(to_string(mode)) + "@" + to_string(rate);
}

TEST(HalOperatingPoint, LabelsMatchTheComposedNames) {
  for (const LinkMode mode : kAllLinkModes) {
    for (const Bitrate rate : kAllBitrates) {
      const OperatingPoint point{mode, rate, 0.1, 0.05};
      EXPECT_STREQ(point.label(), composed_label(mode, rate).c_str());
    }
  }
}

TEST(HalOperatingPoint, PerBitEnergiesFollowTheLattice) {
  const OperatingPoint point{LinkMode::Active, Bitrate::M1, 0.1, 0.05};
  EXPECT_DOUBLE_EQ(point.tx_joules_per_bit(), 0.1 / 1e6);
  EXPECT_DOUBLE_EQ(point.rx_joules_per_bit(), 0.05 / 1e6);
  EXPECT_DOUBLE_EQ(point.efficiency_ratio(), 0.5);
}

// ---------- StandardRadio request/confirm state machine ----------

TEST(HalStandardRadio, RequestConfirmHandshake) {
  StandardRadio radio("dev", 1, util::WattHours(1.0), tiny_caps());
  EXPECT_EQ(radio.state(), RadioState::Sleep);
  EXPECT_STREQ(to_string(radio.state()), "sleep");

  const OperatingPoint point = radio.caps().lattice.front();
  ASSERT_TRUE(radio.switch_to(point, Role::DataTransmitter));
  EXPECT_EQ(radio.state(), RadioState::TransmitReady);
  EXPECT_TRUE(radio.transmit(util::Seconds(1e-3)));

  ASSERT_TRUE(radio.switch_to(point, Role::DataReceiver));
  EXPECT_EQ(radio.state(), RadioState::ListenReady);
  EXPECT_TRUE(radio.listen(util::Seconds(1e-3)));

  radio.go_idle();
  EXPECT_EQ(radio.state(), RadioState::Sleep);
}

TEST(HalStandardRadio, IllegalOpsThrow) {
  StandardRadio radio("dev", 1, util::WattHours(1.0), tiny_caps());
  // Sleep: neither data op is legal, and this hardware has no CCA.
  EXPECT_THROW(radio.transmit(util::Seconds(1e-3)), std::logic_error);
  EXPECT_THROW(radio.listen(util::Seconds(1e-3)), std::logic_error);
  EXPECT_THROW(radio.cca_clear(util::Dbm(-90.0)), std::logic_error);

  const OperatingPoint point = radio.caps().lattice.front();
  ASSERT_TRUE(radio.switch_to(point, Role::DataTransmitter));
  EXPECT_THROW(radio.listen(util::Seconds(1e-3)), std::logic_error);
}

TEST(HalStandardRadio, DrainMatchesLedger) {
  StandardRadio radio("dev", 1, util::WattHours(1.0), tiny_caps());
  const double start = radio.battery().remaining_joules();
  const OperatingPoint point = radio.caps().lattice.front();
  ASSERT_TRUE(radio.switch_to(point, Role::DataTransmitter));
  ASSERT_TRUE(radio.advance(util::Seconds(2.0)));
  radio.go_idle();
  const double drained = start - radio.battery().remaining_joules();
  EXPECT_NEAR(drained, radio.ledger().total_joules(), 1e-12 * start);
  EXPECT_GT(drained, 0.0);
}

#if BRAIDIO_OBS_COMPILED
// advance() charges under "<device>/<state label>/<category>", the state
// label being "<mode>@<rate>:<role>" for every (mode, rate) and role, or
// "idle" when idle.
TEST(HalStandardRadio, StateLabelsMatchTheComposedNames) {
  std::vector<std::string> expected{"dev/idle/idle"};
  obs::EnergyProfile profile;
  obs::set_attribution_enabled(true);
  {
    obs::ScopedEnergyProfile scoped(&profile);
    StandardRadio radio("dev", 1, util::WattHours(1.0), tiny_caps());
    ASSERT_TRUE(radio.advance(util::Seconds(1.0)));
    for (const LinkMode mode : kAllLinkModes) {
      for (const Bitrate rate : kAllBitrates) {
        for (const Role role : {Role::DataTransmitter, Role::DataReceiver}) {
          const OperatingPoint point{mode, rate, 1e-3, 1e-3};
          ASSERT_TRUE(radio.switch_to(point, role));
          ASSERT_TRUE(radio.advance(util::Seconds(1.0)));
          expected.push_back("dev/" + composed_label(mode, rate) + ":" +
                             to_string(role) + "/" +
                             energy::to_string(category_for(mode, role)));
        }
      }
    }
  }
  obs::set_attribution_enabled(false);
  const auto entries = profile.entries();
  for (const std::string& path : expected) {
    EXPECT_EQ(entries.count(path), 1u) << path << "\n" << profile.to_json();
  }
}
#endif  // BRAIDIO_OBS_COMPILED

// ---------- registry + shipped backends ----------

TEST(HalBackendRegistry, RegisterAllIsIdempotentAndSorted) {
  backends::register_all();
  backends::register_all();  // second call must be a no-op, not a throw
  auto& registry = BackendRegistry::instance();
  const auto names = registry.names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* name :
       {backends::kBraidio, backends::kBleActive, backends::kReaderPassive,
        backends::kBlispHybrid}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.get(name).name(), name);
  }
  EXPECT_FALSE(registry.contains("no-such-radio"));
  EXPECT_THROW(registry.get("no-such-radio"), std::out_of_range);
}

TEST(HalBackends, DeclaredCapabilitiesMatchTheHardwareStory) {
  backends::register_all();
  const Capabilities& braidio = backends::braidio_backend().caps();
  EXPECT_TRUE(braidio.can_active);
  EXPECT_TRUE(braidio.can_source_carrier);
  EXPECT_TRUE(braidio.can_backscatter);
  EXPECT_EQ(braidio.lattice.size(), 9u);  // 3 modes x 3 bitrates

  const Capabilities& ble = backends::ble_active_backend().caps();
  EXPECT_TRUE(ble.can_active);
  EXPECT_FALSE(ble.can_backscatter);
  EXPECT_FALSE(ble.can_source_carrier);

  const Capabilities& reader = backends::reader_passive_backend().caps();
  EXPECT_FALSE(reader.can_active);
  EXPECT_TRUE(reader.can_source_carrier);
  EXPECT_TRUE(reader.can_backscatter);

  const Capabilities& blisp = backends::blisp_hybrid_backend().caps();
  EXPECT_TRUE(blisp.can_active);
  EXPECT_TRUE(blisp.can_backscatter);
}

TEST(HalBackends, EveryShippedBackendConforms) {
  backends::register_all();
  for (const auto& name : BackendRegistry::instance().names()) {
    const auto violations =
        conformance_violations(BackendRegistry::instance().get(name));
    EXPECT_TRUE(violations.empty())
        << name << ": " << violations.size() << " violation(s), first: "
        << violations.front();
  }
}

TEST(HalBackends, CreateRadioHonorsBatteryAndCaps) {
  backends::register_all();
  const auto& backend = backends::ble_active_backend();
  const auto radio = backend.create_radio("node", 7, util::WattHours(0.5));
  EXPECT_EQ(radio->name(), "node");
  EXPECT_EQ(radio->address(), 7);
  EXPECT_NEAR(radio->battery().remaining_joules(), 0.5 * 3600.0, 1e-9);
  EXPECT_FALSE(radio->caps().can_backscatter);
}

}  // namespace
}  // namespace braidio::hal
