// The capability-based radio HAL (DESIGN.md §14).
//
// Modeled on the IEEE 802.15.4 radio-HAL design: a driver exposes
// *primitive operations only* — set an operating point (request state),
// confirm the state it is in, transmit, listen, CCA-style carrier sense,
// sleep — plus a *declared capability set* (can it source a carrier, can
// it backscatter, which (mode, bitrate) lattice it supports, what each
// mode switch costs). Everything above this boundary — offload planning,
// ARQ, rate adaptation, schedules, fallback policy — is MAC logic and
// MUST NOT live in a driver; everything below it is the driver's own
// physics. Energy spans and trace events are emitted here, at the HAL
// boundary, so attribution paths are identical for every backend.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "energy/battery.hpp"
#include "energy/ledger.hpp"
#include "hal/link_mode.hpp"
#include "util/units.hpp"

namespace braidio::hal {

/// Which end of the data transfer this radio plays.
enum class Role { DataTransmitter, DataReceiver };

const char* to_string(Role role);

/// The ledger category a radio in (mode, role) drains while operating:
/// who holds the carrier, who decodes, who reflects. This mapping is the
/// single source of truth shared by every driver's accounting and the
/// fluid simulators' energy attribution.
energy::EnergyCategory category_for(LinkMode mode, Role role);

/// One operating point: a (mode, bitrate) pair with its per-end powers.
struct OperatingPoint {
  LinkMode mode = LinkMode::Active;
  Bitrate rate = Bitrate::M1;
  double tx_power_w = 0.0;  // data-transmitter side
  double rx_power_w = 0.0;  // data-receiver side

  double bits_per_second() const { return bitrate_bps(rate); }
  /// Per-bit energy at each end (the paper's T_i and R_i of Eq. 1).
  double tx_joules_per_bit() const { return tx_power_w / bits_per_second(); }
  double rx_joules_per_bit() const { return rx_power_w / bits_per_second(); }
  /// TX:RX efficiency ratio expressed as the paper does ("1:2546" -> this
  /// returns 1/2546): (bits/J at TX) / (bits/J at RX) = rx_power / tx_power.
  double efficiency_ratio() const { return rx_power_w / tx_power_w; }

  /// "<mode>@<rate>" (e.g. "passive@1M"), from a static table.
  const char* label() const;

  bool operator==(const OperatingPoint&) const = default;
};

/// Per-mode energy cost of switching *into* a mode (Table 5), per end.
struct SwitchOverhead {
  double tx_joules = 0.0;
  double rx_joules = 0.0;
};

/// What a driver declares about its hardware. The MAC consults this —
/// never the driver's internals — to decide which plans are even
/// expressible on a given radio.
struct Capabilities {
  /// Mode feature flags. A lattice entry is only honest when its mode's
  /// flags are set: Active needs can_active; PassiveRx needs
  /// can_source_carrier (the data transmitter holds the carrier);
  /// Backscatter needs can_backscatter AND can_source_carrier (the data
  /// receiver holds the carrier the tag reflects).
  bool can_active = false;
  bool can_source_carrier = false;
  bool can_backscatter = false;
  /// Carrier sense: the radio can report whether the channel is clear.
  bool can_cca = false;
  /// Ambient power above which cca_clear() reports the channel busy [dBm].
  double cca_threshold_dbm = -60.0;
  /// Draw while the envelope detector + comparator sample the channel for
  /// one CCA window (sense()). Far below any decode-path rx power.
  util::Watts cca_sense_power{240e-6};
  /// Sleep-state floor draw (MCU retention + RTC).
  util::Watts sleep_power{2e-6};
  /// Supported (mode, bitrate) operating points with per-end powers.
  std::vector<OperatingPoint> lattice;
  /// Switch-in cost per mode, indexed by LinkMode.
  SwitchOverhead switch_overhead[3];

  bool supports(LinkMode mode) const;
  /// Lattice lookup; nullptr when the point is not supported. Defined
  /// here so the fluid engines' per-point lookups inline.
  const OperatingPoint* find(LinkMode mode, Bitrate rate) const {
    for (const OperatingPoint& p : lattice) {
      if (p.mode == mode && p.rate == rate) return &p;
    }
    return nullptr;
  }
};

/// Coarse driver state for the request/confirm handshake: the MAC
/// *requests* a state with switch_to()/go_idle() and *confirms* it with
/// state() before driving transmit()/listen().
enum class RadioState { Sleep, TransmitReady, ListenReady };

const char* to_string(RadioState state);

/// A radio endpoint behind the HAL: battery + operating-point state +
/// per-category energy accounting. All mutating calls are single-threaded
/// per instance (one radio belongs to one simulated device).
class IRadio {
 public:
  virtual ~IRadio() = default;

  virtual const Capabilities& caps() const = 0;
  virtual const std::string& name() const = 0;
  virtual std::uint8_t address() const = 0;

  virtual energy::Battery& battery() = 0;
  virtual const energy::Battery& battery() const = 0;
  virtual const energy::EnergyLedger& ledger() const = 0;

  /// Current operating point; nullopt when idle (sleep floor only).
  virtual std::optional<OperatingPoint> operating_point() const = 0;
  virtual std::optional<Role> role() const = 0;

  /// Instantaneous power draw in the current state.
  virtual util::Watts power_draw() const = 0;

  /// Request state: switch to an operating point/role, charging the
  /// declared switch-in overhead for entering `point.mode` (no charge when
  /// already there). Returns false (and goes idle) if the battery empties
  /// during the switch.
  virtual bool switch_to(const OperatingPoint& point, Role role) = 0;

  /// Request state: leave the link (sleep).
  virtual void go_idle() = 0;

  /// Spend `elapsed` time in the current state; drains the battery and
  /// posts the ledger. Returns false when the battery empties (radio goes
  /// idle).
  virtual bool advance(util::Seconds elapsed) = 0;

  /// Simulated seconds accumulated over every advance() so far. Stamped
  /// onto this radio's trace events (ModeSwitch, EnergyPost, ...).
  virtual double clock_s() const = 0;

  virtual std::uint64_t mode_switches() const = 0;

  // ------ derived primitive ops (state machine over the virtuals) ------

  /// Confirm state: Sleep when idle, otherwise the side of the link the
  /// current role puts this radio on.
  RadioState state() const;

  /// Spend one transmission's airtime. Throws std::logic_error unless the
  /// radio confirmed TransmitReady (switch_to(..., DataTransmitter)).
  bool transmit(util::Seconds airtime);

  /// Spend a listen window. Throws std::logic_error unless the radio
  /// confirmed ListenReady (switch_to(..., DataReceiver)).
  bool listen(util::Seconds window);

  /// CCA-style carrier sense: channel clear at the given ambient power?
  /// Throws std::logic_error when the hardware declares no CCA support.
  /// Verdict only — the listen window itself is charged via sense().
  bool cca_clear(util::Dbm ambient) const;

  /// Spend one carrier-sense window: drains cca_sense_power x window and
  /// advances the clock without leaving the current state (the sense path
  /// is a detector in front of the demodulator, not a mode switch).
  /// Returns false when the battery empties. Throws std::logic_error when
  /// the hardware declares no CCA support.
  virtual bool sense(util::Seconds window) = 0;
};

/// Generic driver endpoint: the full battery/ledger/span bookkeeping for
/// any radio described by a Capabilities set. Every built-in backend, the
/// calibrated Braidio prototype included, builds its radios as this class.
/// Energy spans ("<device>/<mode>[:role]") and trace events (ModeSwitch,
/// BatteryDeath) are emitted here, at the HAL boundary, so attribution
/// paths are backend-independent.
class StandardRadio : public IRadio {
 public:
  /// The capability set is copied; no external lifetime requirements.
  StandardRadio(std::string name, std::uint8_t address,
                util::WattHours battery_capacity, Capabilities caps);

  const Capabilities& caps() const override { return caps_; }
  const std::string& name() const override { return name_; }
  std::uint8_t address() const override { return address_; }

  energy::Battery& battery() override { return battery_; }
  const energy::Battery& battery() const override { return battery_; }
  const energy::EnergyLedger& ledger() const override { return ledger_; }

  std::optional<OperatingPoint> operating_point() const override {
    return point_;
  }
  std::optional<Role> role() const override { return role_; }

  util::Watts power_draw() const override;
  bool switch_to(const OperatingPoint& point, Role role) override;
  void go_idle() override;
  bool advance(util::Seconds elapsed) override;
  bool sense(util::Seconds window) override;
  double clock_s() const override { return clock_s_; }
  std::uint64_t mode_switches() const override { return switches_; }

 private:
  energy::EnergyCategory active_category() const;
  /// Attribution span label for the current state,
  /// "<mode>@<rate>:<role>" (e.g. "active@1M:tx") or "idle", from a
  /// static table.
  const char* state_label() const;

  std::string name_;
  std::uint8_t address_;
  energy::Battery battery_;
  energy::EnergyLedger ledger_;
  Capabilities caps_;
  std::optional<OperatingPoint> point_;
  std::optional<Role> role_;
  std::uint64_t switches_ = 0;
  double clock_s_ = 0.0;
};

}  // namespace braidio::hal
