#include "hal/radio.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/span.hpp"

namespace braidio::hal {

const char* to_string(Role role) {
  return role == Role::DataTransmitter ? "tx" : "rx";
}

const char* to_string(RadioState state) {
  switch (state) {
    case RadioState::Sleep: return "sleep";
    case RadioState::TransmitReady: return "tx-ready";
    case RadioState::ListenReady: return "listen-ready";
  }
  return "?";
}

energy::EnergyCategory category_for(LinkMode mode, Role role) {
  using energy::EnergyCategory;
  const bool tx = role == Role::DataTransmitter;
  switch (mode) {
    case LinkMode::Active:
      return tx ? EnergyCategory::ActiveTx : EnergyCategory::ActiveRx;
    case LinkMode::PassiveRx:
      // The data transmitter holds the carrier.
      return tx ? EnergyCategory::CarrierGeneration
                : EnergyCategory::PassiveRx;
    case LinkMode::Backscatter:
      // The data receiver holds the carrier; the transmitter is a tag.
      return tx ? EnergyCategory::BackscatterTx
                : EnergyCategory::CarrierGeneration;
  }
  return EnergyCategory::Idle;
}

namespace {

// Span labels, indexed [mode][rate] and [mode][rate][role] in enum
// order: a warm attribution span reads its label here instead of
// building a string.
constexpr const char* kPointLabels[3][3] = {
    {"active@10k", "active@100k", "active@1M"},
    {"passive@10k", "passive@100k", "passive@1M"},
    {"backscatter@10k", "backscatter@100k", "backscatter@1M"}};
constexpr const char* kStateLabels[3][3][2] = {
    {{"active@10k:tx", "active@10k:rx"},
     {"active@100k:tx", "active@100k:rx"},
     {"active@1M:tx", "active@1M:rx"}},
    {{"passive@10k:tx", "passive@10k:rx"},
     {"passive@100k:tx", "passive@100k:rx"},
     {"passive@1M:tx", "passive@1M:rx"}},
    {{"backscatter@10k:tx", "backscatter@10k:rx"},
     {"backscatter@100k:tx", "backscatter@100k:rx"},
     {"backscatter@1M:tx", "backscatter@1M:rx"}}};

}  // namespace

const char* OperatingPoint::label() const {
  return kPointLabels[static_cast<int>(mode)][static_cast<int>(rate)];
}

bool Capabilities::supports(LinkMode mode) const {
  return std::any_of(lattice.begin(), lattice.end(),
                     [&](const OperatingPoint& p) { return p.mode == mode; });
}

RadioState IRadio::state() const {
  const auto r = role();
  if (!operating_point() || !r) return RadioState::Sleep;
  return *r == Role::DataTransmitter ? RadioState::TransmitReady
                                     : RadioState::ListenReady;
}

bool IRadio::transmit(util::Seconds airtime) {
  if (state() != RadioState::TransmitReady) {
    throw std::logic_error("hal::IRadio::transmit: radio not TransmitReady");
  }
  return advance(airtime);
}

bool IRadio::listen(util::Seconds window) {
  if (state() != RadioState::ListenReady) {
    throw std::logic_error("hal::IRadio::listen: radio not ListenReady");
  }
  return advance(window);
}

bool IRadio::cca_clear(util::Dbm ambient) const {
  const auto& c = caps();
  if (!c.can_cca) {
    throw std::logic_error("hal::IRadio::cca_clear: driver declares no CCA");
  }
  return ambient.value() < c.cca_threshold_dbm;
}

StandardRadio::StandardRadio(std::string name, std::uint8_t address,
                             util::WattHours battery_capacity,
                             Capabilities caps)
    : name_(std::move(name)),
      address_(address),
      battery_(battery_capacity),
      caps_(std::move(caps)) {}

util::Watts StandardRadio::power_draw() const {
  if (!point_ || !role_) return caps_.sleep_power;
  return util::Watts(*role_ == Role::DataTransmitter ? point_->tx_power_w
                                                     : point_->rx_power_w);
}

energy::EnergyCategory StandardRadio::active_category() const {
  if (!point_ || !role_) return energy::EnergyCategory::Idle;
  return category_for(point_->mode, *role_);
}

const char* StandardRadio::state_label() const {
  if (!point_ || !role_) return "idle";
  return kStateLabels[static_cast<int>(point_->mode)]
                     [static_cast<int>(point_->rate)]
                     [static_cast<int>(*role_)];
}

bool StandardRadio::switch_to(const OperatingPoint& point, Role role) {
  const bool same_mode =
      point_ && point_->mode == point.mode && role_ && *role_ == role;
  if (!same_mode) {
    const auto& overhead = caps_.switch_overhead[static_cast<int>(point.mode)];
    const double cost = role == Role::DataTransmitter ? overhead.tx_joules
                                                      : overhead.rx_joules;
    const double taken = battery_.drain(util::Joules(cost)).value();
    {
      BRAIDIO_ENERGY_SPAN(device_span, name_.c_str());
      BRAIDIO_ENERGY_SPAN(switch_span, to_string(point.mode));
      ledger_.charge(energy::EnergyCategory::ModeSwitch, util::Joules(taken),
                     util::Seconds(clock_s_));
    }
    ++switches_;
    obs::count(obs::Counter::ModeSwitches);
    BRAIDIO_TRACE_EVENT(obs::EventType::ModeSwitch, to_string(point.mode),
                        clock_s_, taken);
    if (taken < cost) {
      obs::count(obs::Counter::BatteryDeaths);
      BRAIDIO_TRACE_EVENT(obs::EventType::BatteryDeath, name_.c_str(),
                          clock_s_, battery_.remaining_joules());
      go_idle();
      return false;
    }
  }
  point_ = point;
  role_ = role;
  return true;
}

void StandardRadio::go_idle() {
  point_.reset();
  role_.reset();
}

bool StandardRadio::sense(util::Seconds window) {
  if (!caps_.can_cca) {
    throw std::logic_error("hal::StandardRadio::sense: driver declares no CCA");
  }
  const double seconds = window.value();
  if (seconds < 0.0) {
    throw std::invalid_argument("hal::StandardRadio::sense: negative window");
  }
  const double want = caps_.cca_sense_power.value() * seconds;
  const double taken = battery_.drain(util::Joules(want)).value();
  clock_s_ += seconds;
  {
    BRAIDIO_ENERGY_SPAN(device_span, name_.c_str());
    BRAIDIO_ENERGY_SPAN(sense_span, "cca");
    ledger_.charge(energy::EnergyCategory::PassiveRx, util::Joules(taken),
                   util::Seconds(clock_s_));
  }
  if (taken < want) {
    obs::count(obs::Counter::BatteryDeaths);
    BRAIDIO_TRACE_EVENT(obs::EventType::BatteryDeath, name_.c_str(),
                        clock_s_, battery_.remaining_joules());
    go_idle();
    return false;
  }
  return true;
}

bool StandardRadio::advance(util::Seconds elapsed) {
  const double seconds = elapsed.value();
  if (seconds < 0.0) {
    throw std::invalid_argument("hal::StandardRadio::advance: negative time");
  }
  const double want = power_draw().value() * seconds;
  const double taken = battery_.drain(util::Joules(want)).value();
  clock_s_ += seconds;
  {
    BRAIDIO_ENERGY_SPAN(device_span, name_.c_str());
    BRAIDIO_ENERGY_SPAN(state_span, state_label());
    ledger_.charge(active_category(), util::Joules(taken),
                   util::Seconds(clock_s_));
  }
  if (taken < want) {
    obs::count(obs::Counter::BatteryDeaths);
    BRAIDIO_TRACE_EVENT(obs::EventType::BatteryDeath, name_.c_str(),
                        clock_s_, battery_.remaining_joules());
    go_idle();
    return false;
  }
  return true;
}

}  // namespace braidio::hal
