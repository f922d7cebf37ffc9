#include "backends/backends.hpp"

#include <memory>
#include <string>
#include <utility>

#include "baseline/bluetooth.hpp"
#include "baseline/reader.hpp"
#include "core/braidio_radio.hpp"
#include "core/power_table.hpp"
#include "phy/link_budget.hpp"

namespace braidio::backends {

namespace {

using hal::Bitrate;
using hal::LinkMode;

/// Shared scaffolding: name/description/caps storage and the generic
/// hal::StandardRadio factory. Derived backends fill caps_ in their ctor
/// and own whatever their ChannelModel needs.
class StandardBackend : public hal::RadioBackend {
 public:
  const std::string& name() const override { return name_; }
  const std::string& description() const override { return description_; }
  const hal::Capabilities& caps() const override { return caps_; }

  std::unique_ptr<hal::IRadio> create_radio(
      std::string name, std::uint8_t address,
      util::WattHours battery_capacity) const override {
    return std::make_unique<hal::StandardRadio>(std::move(name), address,
                                                battery_capacity, caps_);
  }

 protected:
  StandardBackend(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}

  std::string name_;
  std::string description_;
  hal::Capabilities caps_;
};

// ---------------------------------------------------------------- braidio

class BraidioBackend final : public StandardBackend {
 public:
  BraidioBackend()
      : StandardBackend(kBraidio,
                        "Calibrated Braidio prototype: active, passive-RX, "
                        "and backscatter at 10k/100k/1M (PowerTable + "
                        "Fig. 13 link budget)") {
    caps_ = core::braidio_capabilities(core::PowerTable());
  }

  const hal::ChannelModel& channel() const override { return budget_; }

 private:
  phy::LinkBudget budget_;
};

// ------------------------------------------------------------- ble-active

class BleActiveBackend final : public StandardBackend {
 public:
  BleActiveBackend()
      : StandardBackend(kBleActive,
                        "SPBT/CC26xx-class BLE module: active-only at "
                        "1 Mbps, no carrier sourcing or backscatter"),
        budget_(ble_budget_config()) {
    const baseline::BluetoothRadioModel model;
    caps_.can_active = true;
    caps_.can_cca = true;  // BLE listen-before-talk
    caps_.cca_threshold_dbm = -70.0;
    caps_.sleep_power = util::Watts{3e-6};  // ~1 uA retention at 3 V
    caps_.lattice = {{LinkMode::Active, Bitrate::M1, model.tx_power_w,
                      model.rx_power_w}};
    // Connection establishment: one ~1.25 ms connection event per end.
    caps_.switch_overhead[static_cast<int>(LinkMode::Active)] = {
        model.tx_power_w * 1.25e-3, model.rx_power_w * 1.25e-3};
  }

  const hal::ChannelModel& channel() const override { return budget_; }

 private:
  static phy::LinkBudgetConfig ble_budget_config() {
    phy::LinkBudgetConfig config;
    config.active_tx_dbm = 0.0;  // BLE-typical output level
    config.active_range = 30.0;  // open-air BLE-class range
    return config;
  }

  phy::LinkBudget budget_;
};

// --------------------------------------------------------- reader-passive

class ReaderPassiveBackend final : public StandardBackend {
 public:
  ReaderPassiveBackend()
      : StandardBackend(kReaderPassive,
                        "AS3993-class commercial reader driving passive "
                        "tags: backscatter-only, reader-grade carrier "
                        "(Fig. 12 physics)") {
    // Same tag hardware as the braidio prototype on the transmit side; the
    // data receiver is the 640 mW reader (carrier + coherent IQ decode).
    const core::PowerTable table;
    caps_.can_source_carrier = true;
    caps_.can_backscatter = true;
    // The envelope detector sits behind the reader's own carrier: no
    // useful carrier sense.
    caps_.can_cca = false;
    caps_.sleep_power = util::Watts{2e-6};  // tag-side retention floor
    for (const hal::OperatingPoint& p : table.candidates()) {
      if (p.mode != LinkMode::Backscatter) continue;
      caps_.lattice.push_back(
          {p.mode, p.rate, p.tx_power_w, reader_.power_watts()});
    }
    caps_.switch_overhead[static_cast<int>(LinkMode::Backscatter)] =
        table.switch_overhead(LinkMode::Backscatter);
  }

  const hal::ChannelModel& channel() const override {
    return reader_.link_budget();
  }

 private:
  baseline::CommercialReaderModel reader_;
};

// ----------------------------------------------------------- blisp-hybrid

class BlispHybridBackend final : public StandardBackend {
 public:
  BlispHybridBackend()
      : StandardBackend(kBlispHybrid,
                        "BLISP-style sketch: BLE-class active radio "
                        "grafted onto a backscatter front end, sharing one "
                        "antenna") {
    const core::PowerTable table;
    const baseline::BluetoothRadioModel model;
    caps_.can_active = true;
    caps_.can_source_carrier = true;
    caps_.can_backscatter = true;
    caps_.can_cca = true;
    caps_.cca_threshold_dbm = -60.0;
    caps_.sleep_power = util::Watts{2e-6};
    caps_.lattice = {{LinkMode::Active, Bitrate::M1, model.tx_power_w,
                      model.rx_power_w}};
    for (const hal::OperatingPoint& p : table.candidates()) {
      if (p.mode != LinkMode::Backscatter) continue;
      caps_.lattice.push_back(p);
    }
    caps_.switch_overhead[static_cast<int>(LinkMode::Active)] =
        table.switch_overhead(LinkMode::Active);
    caps_.switch_overhead[static_cast<int>(LinkMode::Backscatter)] =
        table.switch_overhead(LinkMode::Backscatter);
  }

  const hal::ChannelModel& channel() const override { return budget_; }

 private:
  phy::LinkBudget budget_;
};

}  // namespace

void register_all() {
  auto& registry = hal::BackendRegistry::instance();
  if (registry.contains(kBraidio)) return;
  registry.register_backend(std::make_unique<BraidioBackend>());
  registry.register_backend(std::make_unique<BleActiveBackend>());
  registry.register_backend(std::make_unique<ReaderPassiveBackend>());
  registry.register_backend(std::make_unique<BlispHybridBackend>());
}

namespace {
const hal::RadioBackend& registered(const char* name) {
  register_all();
  return hal::BackendRegistry::instance().get(name);
}
}  // namespace

const hal::RadioBackend& braidio_backend() { return registered(kBraidio); }
const hal::RadioBackend& ble_active_backend() {
  return registered(kBleActive);
}
const hal::RadioBackend& reader_passive_backend() {
  return registered(kReaderPassive);
}
const hal::RadioBackend& blisp_hybrid_backend() {
  return registered(kBlispHybrid);
}

}  // namespace braidio::backends
